"""The four benchmark workloads: seeded inputs, set-up, measured loop, checks.

Every workload drives soundloc only through its public functions, looked up
as module attributes at call time so that a traced run can wrap them. Inputs
come from the seed alone and are written by a separate process before the
measuring process starts, so its peak RSS is that of the workload.

Why these four (each one makes a different module dominate):
  train_desk     the training loop: autodiff forward/backward, backbone at
                 short T, heads, losses and AdamW; no decode, no evaluation.
  predict_short  the predict command over many T=64 videos with untrained
                 weights: every point passes the score threshold, so
                 soft-NMS takes most of each video's time.
  predict_long   the predict command over T=2048 videos with dense events:
                 the quadratic windowed attention gives the backbone its
                 largest share and the process its largest peak RSS.
  eval_dense     the eval command over 10^5 detections (200 per video, 500
                 videos): only data loading and evaluate do work.

Each loop repeats a round (a train() call, a predict pass over every video,
one eval) until the run length has passed, and at least twice, so that every
unit of work has a repeat to check and to time. A lap clock (see laps.py)
cuts every unit into short laps.
"""

from __future__ import annotations

import gc
import hashlib
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from soundloc import config, data, datasets, decode, evaluate, model, train
from soundloc.errors import SoundlocError

MIN_ROUNDS = 2
# Set-ups take about 10 ms; several per round give the median of set-up
# time enough samples to hold still from run to run.
SETUPS_PER_ROUND = 5
STEP_WAIT_S = 0.05

# Predict workloads use one fixed model, as a deployed model would; only the
# videos come from the run's seed. Decode cost depends on the weights (they
# decide which candidates overlap), so seeded weights would make each run's
# work differ by more than the run-to-run noise.
WEIGHTS_SEED = 0

SIZES = {
    "train_desk": {
        "full": {"videos": 64, "t": 64, "epochs": 1, "warmup": 0},
        "tiny": {"videos": 4, "t": 32, "epochs": 1, "warmup": 0},
    },
    "predict_short": {
        "full": {"videos": 8, "t": 64, "events": (1, 3)},
        "tiny": {"videos": 3, "t": 32, "events": (1, 2)},
    },
    "predict_long": {
        "full": {"videos": 1, "t": 2048, "events": (32, 64)},
        "tiny": {"videos": 1, "t": 128, "events": (2, 4)},
    },
    "eval_dense": {
        "full": {"videos": 500, "per_video": 200, "oracle_videos": 25},
        "tiny": {"videos": 20, "per_video": 20, "oracle_videos": 5},
    },
}


@dataclass
class Outcome:
    """What one measured run produced, before it becomes metrics.

    ``samples`` holds ``(unit, laps, is_op)`` for every timed unit of work,
    with the unit's lap durations in seconds; a unit (a step position in
    train(), a video, a predictions write, an eval) recurs once per round.
    ``is_op`` marks the operations whose latency is reported; the other
    units (set-up inside train(), writing predictions) count only towards
    throughput.
    """

    setup_s: list[float] = field(default_factory=list)
    samples: list[tuple] = field(default_factory=list)
    items_per_round: float = 0.0   # videos, timesteps or detections
    ops: int = 0                   # operations run, for per-layer metrics
    attempted: int = 0
    failed: int = 0
    checks: dict = field(default_factory=dict)   # name -> [passed, failed]
    digests: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def check(self, name: str, ok: bool) -> bool:
        counts = self.checks.setdefault(name, [0, 0])
        counts[0 if ok else 1] += 1
        return ok


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _desk_config(seed: int):
    cfg = config.desk_scale_config()
    cfg.seed = seed
    return cfg


def _timed_setup(out: Outcome, tracer, clock, fn):
    """Set up afresh; every round does, so set-up samples span the run.

    The machine's speed drifts over seconds, and a median over set-ups
    taken back to back would carry whatever state the first second had.
    The collection first, outside the timing, frees the previous round's
    tapes: they hold reference cycles, so only the cyclic collector frees
    them, at a moment that would otherwise depend on allocation counts.
    A round sets up ``SETUPS_PER_ROUND`` times and keeps the last result.
    """
    for _ in range(SETUPS_PER_ROUND):
        gc.collect()
        clock.picker.settle()
        with tracer.span("setup"):
            t0 = time.perf_counter()
            result = fn()
            out.setup_s.append(time.perf_counter() - t0)
    return result


class Rounds:
    """Counts the rounds of a run.

    After ``MIN_ROUNDS``, another round starts only if one as long as the
    last still ends within the run length.
    """

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.count = 0
        self._t0 = self._start = time.perf_counter()

    def another(self) -> bool:
        now = time.perf_counter()
        last = now - self._start
        if self.count >= MIN_ROUNDS and now - self._t0 + last > self.seconds:
            return False
        self.count += 1
        self._start = now
        return True


# ---------------------------------------------------------------------------
# inputs (run in a separate process)

def make_inputs(name: str, work: Path, seed: int, size: str) -> None:
    p = SIZES[name][size]
    if name == "eval_dense":
        _make_eval_inputs(work, seed, p)
        return
    spec = data.SyntheticSpec(num_videos=p["videos"], duration_sec=float(p["t"]),
                              events_per_video=p.get("events", (1, 3)), seed=seed)
    datasets.write_dataset(work / "data", spec, split_counts=(p["videos"], 0, 0))
    if name != "train_desk":
        arrays = model.init_model_arrays(_desk_config(seed).model, WEIGHTS_SEED)
        model.save_checkpoint(arrays, work / "model.ckpt")


def _make_eval_inputs(work: Path, seed: int, p: dict) -> None:
    """Ground truth from the synthetic generator plus seeded detections.

    Per video, three jittered copies of every event score high, and random
    false positives fill the rest of the ``per_video`` detections.
    """
    spec = data.SyntheticSpec(num_videos=p["videos"], duration_sec=64.0,
                              events_per_video=(1, 3), seed=seed)
    _, annotations = data.generate_synthetic(spec)
    data.save_annotations(annotations, work / "annotations.json")
    rng = np.random.default_rng(seed)
    preds = {}
    for ann in annotations:
        dur = ann.duration_sec
        dets = []
        for ev in ann.events:
            for _ in range(3):
                jitter = rng.normal(0.0, 1.0, size=2)
                s = float(np.clip(ev.start_sec + jitter[0], 0.0, dur - 1.0))
                e = float(np.clip(ev.end_sec + jitter[1], s + 0.5, dur))
                dets.append({"label": ev.label, "score": float(rng.uniform(0.3, 1.0)),
                             "start_sec": s, "end_sec": e})
        while len(dets) < p["per_video"]:
            s = float(rng.uniform(0.0, dur - 2.0))
            e = float(min(dur, s + rng.uniform(1.0, 16.0)))
            dets.append({"label": int(rng.integers(0, spec.num_classes)),
                         "score": float(rng.uniform(0.0, 0.6)),
                         "start_sec": s, "end_sec": e})
        preds[ann.video_id] = dets[:p["per_video"]]
    data.write_predictions(preds, work / "predictions.json")


# ---------------------------------------------------------------------------
# measured runs

def run(name: str, work: Path, seed: int, size: str, seconds: float,
        tracer, clock) -> Outcome:
    p = SIZES[name][size]
    if name == "train_desk":
        return _run_train(work, seed, p, seconds, tracer, clock)
    if name == "eval_dense":
        return _run_eval(work, p, seconds, tracer, clock)
    return _run_predict(work, seed, seconds, tracer, clock)


def _run_train(work: Path, seed: int, p: dict, seconds: float, tracer,
               clock) -> Outcome:
    out = Outcome()
    cfg = _desk_config(seed)
    cfg.epochs, cfg.warmup_epochs = p["epochs"], p["warmup"]
    run_dir = work / "run"
    ckpt = run_dir / "checkpoints" / f"epoch_{cfg.epochs - 1:03d}.ckpt"

    # A step's latency runs from its train_step call to the next one (or to
    # the end of train()), so it includes clipping, AdamW and checkpoints.
    # Each step starts a lap; ``starts`` keeps the index of that lap. Steps
    # are short, so the wait for a free CPU between them is short too.
    starts: list[int] = []
    inner_step = train.train_step

    def timed_step(*args, **kwargs):
        clock.settle(STEP_WAIT_S)
        starts.append(len(clock.laps))
        return inner_step(*args, **kwargs)

    train.train_step = timed_step
    first = None
    rounds = Rounds(seconds)
    try:
        while rounds.another():
            dataset = _timed_setup(out, tracer, clock,
                                   lambda: datasets.load_dataset(work / "data"))
            out.items_per_round = len(dataset.videos("train")) * cfg.epochs
            starts.clear()
            clock.picker.settle()
            clock.start()
            try:
                with tracer.span("op"):
                    manifest = train.train(cfg, dataset, run_dir)
            except SoundlocError:
                manifest = None
            laps = clock.stop()
            steps = len(starts)
            edges = [0, *starts, len(laps)]
            units = [laps[a:b] for a, b in zip(edges, edges[1:])]
            out.samples.append(("before first step", units[0], False))
            out.samples.extend((i, u, True) for i, u in enumerate(units[1:]))
            out.ops += steps
            out.attempted += max(steps, 1)
            ok = out.check("train_completed", manifest is not None)
            if ok:
                losses = [e[k] for e in manifest.epochs
                          for k in ("mean_total", "mean_cls", "mean_reg")]
                ok = out.check("epoch_loss_finite",
                               all(math.isfinite(v) for v in losses))
            if ok:
                result = (manifest.epochs[-1]["mean_total"], _sha256(ckpt))
                first = first or result
                ok = out.check("same_result_every_run", result == first)
            if not ok:
                out.failed += max(steps, 1)
    finally:
        train.train_step = inner_step
    if first:
        out.extra["train_loss_final"] = first[0]
        out.digests["final_checkpoint_sha256"] = first[1]
    return out


def _valid_intervals(ivs, seq, num_classes: int, max_out: int) -> bool:
    return len(ivs) <= max_out and all(
        iv.video_id == seq.video_id and 0 <= iv.label_id < num_classes
        and 0.0 <= iv.start_sec < iv.end_sec <= seq.duration_sec
        and math.isfinite(iv.score) and 0.0 <= iv.score <= 1.0
        for iv in ivs)


def _run_predict(work: Path, seed: int, seconds: float, tracer,
                 clock) -> Outcome:
    out = Outcome()
    cfg = _desk_config(seed)

    def setup():
        arrays = model.load_checkpoint(work / "model.ckpt")
        model.check_checkpoint_shapes(arrays, cfg.model)
        return arrays, datasets.load_feature_dir(work / "data" / "features")

    path = work / "predictions.json"
    first_output: dict[str, list] = {}
    rounds = Rounds(seconds)
    while rounds.another():
        arrays, fused = _timed_setup(out, tracer, clock, setup)
        videos = sorted(fused)
        out.items_per_round = sum(fused[v].num_timesteps for v in videos)
        by_video = {}
        for vid in videos:
            clock.picker.settle()
            with tracer.span("op"):
                clock.start()
                ivs = model.predict_intervals(arrays, cfg.model, fused[vid],
                                              cfg.decode)
                out.samples.append((vid, clock.stop(), True))
            out.ops += 1
            out.attempted += 1
            ok = out.check("intervals_valid", _valid_intervals(
                ivs, fused[vid], cfg.model.num_classes, cfg.decode.max_out))
            expected = first_output.setdefault(vid, ivs)
            ok &= out.check("same_output_twice", ivs == expected)
            out.failed += not ok
            by_video[vid] = [{"label": iv.label_id, "score": iv.score,
                              "start_sec": iv.start_sec, "end_sec": iv.end_sec}
                             for iv in ivs]
        with tracer.span("op"):
            clock.start()
            data.write_predictions(by_video, path)
            out.samples.append(("write predictions", clock.stop(), False))
        if rounds.count == 1:
            out.digests["predictions_sha256"] = _sha256(path)
    return out


def _run_eval(work: Path, p: dict, seconds: float, tracer, clock) -> Outcome:
    out = Outcome()

    def setup():
        anns = data.load_annotations(work / "annotations.json")
        with tracer.span("decode.Interval"):
            gts = [decode.Interval(a.video_id, ev.label, 1.0, ev.start_sec, ev.end_sec)
                   for a in anns for ev in a.events]
        return gts, anns[0].class_names

    report_path = work / "report.json"
    first_digest = None
    rounds = Rounds(seconds)
    while rounds.another():
        gts, class_names = _timed_setup(out, tracer, clock, setup)
        clock.picker.settle()
        with tracer.span("op"):
            clock.start()
            by_video = data.load_predictions(work / "predictions.json")
            preds = []
            with tracer.span("decode.Interval"):
                for vid, dets in by_video.items():
                    preds.extend(decode.Interval(vid, d["label"], d["score"],
                                                 d["start_sec"], d["end_sec"])
                                 for d in dets)
                    clock.mark()
            report = evaluate.mean_ap(preds, gts, class_names=class_names)
            report.save_json(report_path)
            out.samples.append(("eval", clock.stop(), True))
        out.items_per_round = len(preds)
        out.ops += 1
        out.attempted += 1
        digest = _sha256(report_path)
        first_digest = first_digest or digest
        values = report.map_per_threshold + [report.average_map]
        ok = out.check("map_in_unit_range",
                       all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in values))
        ok &= out.check("same_report_every_run", digest == first_digest)
        out.failed += not ok

    # mean_ap against the brute-force oracle on one class of a fixed subset
    keep = set(sorted({g.video_id for g in gts})[:p["oracle_videos"]])
    label = next(g.label_id for g in gts if g.video_id in keep)
    sub_p = [x for x in preds if x.video_id in keep and x.label_id == label]
    sub_g = [x for x in gts if x.video_id in keep and x.label_id == label]
    sub_report = evaluate.mean_ap(sub_p, sub_g, class_names=class_names)
    oracle = [evaluate.oracle_ap(sub_p, sub_g, tau) for tau in sub_report.thresholds]
    out.attempted += 1
    out.failed += not out.check("mean_ap_matches_oracle",
                                sub_report.map_per_threshold == oracle)
    out.digests["report_sha256"] = first_digest
    out.extra["average_map"] = report.average_map
    out.extra["oracle_sample"] = {"label": label, "detections": len(sub_p),
                                  "ground_truth": len(sub_g)}
    return out
