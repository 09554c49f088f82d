"""The names the benchmark patches from outside the package still resolve.

``perfbench/spans.py`` (``SPANS``) and ``perfbench/laps.py`` (``POINTS``)
wrap functions by module and attribute name, in the namespace where the
caller looks them up, and ``perfbench/workloads.py`` calls
``evaluate.oracle_ap``. Renaming or deleting any of these in ``src/`` breaks
the benchmark without failing a package test; these tests resolve every
entry the way the two ``install()`` methods do. One installs the span
tracer around a training step, to pin the records it counts through
``Tape.record`` and that uninstalling restores it. The
work counters that ``spans._counters`` reads off a span's arguments and
result are checked against real results too, and so is the one call per
training step that the forward and head spans count.
"""

import builtins
import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from soundloc import autodiff as ad
from soundloc import decode, evaluate, losses, model, train
from soundloc import params as pr
from soundloc.config import desk_scale_config
from soundloc.data import SyntheticSpec, fuse_features, generate_synthetic
from soundloc.datasets import load_dataset, write_dataset

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench_modules():
    # laps imports spans by its bare name; leave no bytecode in perfbench/
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        mp.setattr(sys, "dont_write_bytecode", True)
        spans = importlib.import_module("spans")
        laps = importlib.import_module("laps")
    yield spans, laps
    for name in ("spans", "laps"):
        sys.modules.pop(name, None)


def _owner(module_name: str, attr: str):
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def test_span_targets_resolve(bench_modules):
    spans, _ = bench_modules
    for module_name, attr, _ in spans.SPANS:
        owner, leaf = _owner(module_name, attr)
        assert callable(getattr(owner, leaf, None)), f"{module_name}.{attr}"


def test_lap_points_resolve(bench_modules):
    _, laps = bench_modules
    for module_name, attr in laps.POINTS:
        owner, leaf = _owner(module_name, attr)
        # a name missing from the module is a builtin the module calls
        fn = owner.__dict__.get(leaf, getattr(builtins, leaf, None))
        assert callable(fn), f"{module_name}.{attr}"


def test_workloads_oracle_exists():
    assert callable(evaluate.oracle_ap)


def test_counters_read_real_results(bench_modules):
    # one desk-preset video, untrained: the counters the traced benchmark
    # reports must be the work counts of what the stages return
    spans, _ = bench_modules
    cfg = desk_scale_config().model
    pairs, anns = generate_synthetic(SyntheticSpec(
        num_videos=1, duration_sec=64.0, num_classes=cfg.num_classes, seed=0))
    seq = fuse_features(*pairs[0])
    tape = ad.Tape(dtype=np.float32)
    (points,), head_out = model.forward_video(
        pr.bind(tape, model.init_model_arrays(cfg, seed=0)), cfg, [seq.data], tape)

    assignment = losses.assign_targets(points, anns[0], seq.stride_sec,
                                       cfg.num_classes)
    sums = losses.loss_sums(head_out, assignment)
    assert assignment.t_plus > 0
    assert spans._counters("losses.loss_sums", (head_out, assignment), sums) == {
        "losses.positives": assignment.t_plus}

    dc = decode.DecodeConfig()
    cands = decode.recover_intervals(head_out, points, seq.stride_sec,
                                     seq.duration_sec, dc)
    kept = decode.soft_nms(cands, dc)
    top = decode.select_top_k(kept, seq.video_id)
    for name, args, result, counter in [
            ("decode.recover_intervals", (head_out, points), cands,
             "decode.candidates"),
            ("decode.soft_nms", (cands,), kept, "decode.survivors"),
            ("decode.select_top_k", (kept, seq.video_id), top, "decode.kept")]:
        assert len(result) > 0
        assert spans._counters(name, args, result) == {counter: len(result)}

    gts = [decode.Interval(seq.video_id, ev.label, 1.0, ev.start_sec, ev.end_sec)
           for ev in anns[0].events]
    report = evaluate.mean_ap(top, gts)
    assert spans._counters("evaluate.mean_ap", (top, gts), report) == {
        "evaluate.detections": len(top), "evaluate.gts": len(gts)}


@pytest.mark.parametrize("batch_size", [1, 3])
def test_one_traced_forward_per_step(tmp_path, monkeypatch, batch_size):
    # the spans model.forward_video and heads.run_heads wrap
    # soundloc.train.forward_video and soundloc.model.run_heads: a training
    # step, whatever its batch size, is one call of each
    write_dataset(tmp_path, SyntheticSpec(num_videos=batch_size, duration_sec=32.0,
                                          seed=2),
                  split_counts=(batch_size, 0, 0))
    ds = load_dataset(tmp_path)
    calls = []
    for owner, name in ((train, "forward_video"), (model, "run_heads")):
        def counted(*args, _original=getattr(owner, name), _name=name):
            calls.append(_name)
            return _original(*args)
        monkeypatch.setattr(owner, name, counted)
    cfg = desk_scale_config().model
    train.train_step(model.init_model_arrays(cfg, seed=0), cfg, ds.videos("train"),
                     ds, 1.0)
    assert calls == ["forward_video", "run_heads"]


def test_tracer_counts_a_step_records_and_uninstalls(tmp_path, bench_modules):
    # spans.Tracer replaces Tape.record to count records per phase: a desk
    # training step records 101 ops, and uninstalling puts Tape.record back
    spans, _ = bench_modules
    write_dataset(tmp_path, SyntheticSpec(num_videos=2, duration_sec=64.0, seed=2),
                  split_counts=(2, 0, 0))
    ds = load_dataset(tmp_path)
    cfg = desk_scale_config().model
    arrays = model.init_model_arrays(cfg, seed=0)
    record = ad.Tape.record
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert ad.Tape.record is not record
        with tracer.span("op"):
            train.train_step(arrays, cfg, ds.videos("train"), ds, 1.0)
    finally:
        tracer.uninstall()
    assert ad.Tape.record is record
    assert tracer.counts[("op", "autodiff.records")] == 101
    assert [s[0] for s in tracer.spans].count("train.train_step") == 1
