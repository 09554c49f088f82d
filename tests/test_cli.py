"""Tests for the command-line interface, config files and training loop."""

import contextlib
import gc
import hashlib
import io
import json
import math
import os
import re
import shutil
import struct
import tempfile
import tracemalloc
import weakref
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soundloc import autodiff as ad
from soundloc import cli
from soundloc import config as config_mod
from soundloc import model as model_mod
from soundloc import data as dio
from soundloc import params as pr
from soundloc import train as train_mod
from soundloc.backbone import BackboneConfig
from soundloc.config import TrainConfig, desk_scale_config, load_config, save_config
from soundloc.datasets import load_dataset, write_dataset
from soundloc.errors import CheckpointError, ConfigError, NumericError, ValidationError
from soundloc.losses import assign_targets, total_loss
from soundloc.model import (
    ModelConfig,
    check_checkpoint_shapes,
    forward_video,
    init_model_arrays,
    load_checkpoint,
    predict_intervals,
    save_checkpoint,
)
from soundloc.train import lr_at, train, train_step
from tests import level_oracles

# loss sums over every row of a batch against per-level, per-video sums:
# eight float32 ulps
LOSS_SUM_RTOL = 1e-6


def tiny_spec(**kw):
    base = dict(num_videos=8, duration_sec=32.0, num_classes=3, dim_visual=8,
                dim_audio=4, stride_sec=1.0, events_per_video=(1, 2),
                event_length_sec=(4.0, 10.0), signal_to_noise=5.0, seed=3)
    base.update(kw)
    return dio.SyntheticSpec(**base)


def tiny_train_config(**kw):
    backbone = BackboneConfig(input_dim=12, d_model=16, num_blocks=3,
                              window=5, num_heads=2, stride_schedule=(1, 2, 2))
    cfg = TrainConfig(learning_rate=1e-3, batch_size=2, epochs=2,
                      warmup_epochs=1,
                      model=ModelConfig(backbone=backbone, num_classes=3))
    for k, v in kw.items():
        setattr(cfg, k, v)
    return cfg


def oracle_init_model_arrays(cfg, seed):
    """(name, array) per parameter, each drawn where the name is made."""
    rng = np.random.default_rng(seed)
    b = cfg.backbone
    d = b.d_model

    def conv(k, c_in, c_out):
        std = np.sqrt(2.0 / (k * c_in))
        return rng.normal(0.0, std, size=(k, c_in, c_out)).astype(np.float32)

    def linear(d_in, d_out):
        return rng.normal(0.0, 0.02, size=(d_in, d_out)).astype(np.float32)

    yield "embed.conv1.w", conv(3, b.input_dim, d)
    yield "embed.conv1.b", np.zeros(d, dtype=np.float32)
    yield "embed.conv2.w", conv(3, d, d)
    yield "embed.conv2.b", np.zeros(d, dtype=np.float32)
    for i, stride in enumerate(b.stride_schedule):
        pref = f"block{i}"
        yield f"{pref}.ln1.gamma", np.ones(d, dtype=np.float32)
        yield f"{pref}.ln1.beta", np.zeros(d, dtype=np.float32)
        for proj in ("wq", "wk", "wv", "wo"):
            yield f"{pref}.attn.{proj}", linear(d, d)
        for bias in ("bq", "bk", "bv", "bo"):
            yield f"{pref}.attn.{bias}", np.zeros(d, dtype=np.float32)
        yield f"{pref}.scale_attn", np.full(d, b.layerscale_init, dtype=np.float32)
        yield f"{pref}.ln2.gamma", np.ones(d, dtype=np.float32)
        yield f"{pref}.ln2.beta", np.zeros(d, dtype=np.float32)
        hidden = b.mlp_ratio * d
        yield f"{pref}.mlp.w1", linear(d, hidden)
        yield f"{pref}.mlp.b1", np.zeros(hidden, dtype=np.float32)
        yield f"{pref}.mlp.w2", linear(hidden, d)
        yield f"{pref}.mlp.b2", np.zeros(d, dtype=np.float32)
        yield f"{pref}.scale_mlp", np.full(d, b.layerscale_init, dtype=np.float32)
        if stride == 2:
            yield f"{pref}.down.w", conv(3, d, d)
            yield f"{pref}.down.b", np.zeros(d, dtype=np.float32)
    for branch in ("cls", "reg"):
        for i in (1, 2):
            yield f"head.{branch}.conv{i}.w", conv(3, d, d)
            yield f"head.{branch}.conv{i}.b", np.zeros(d, dtype=np.float32)
            yield f"head.{branch}.ln{i}.gamma", np.ones(d, dtype=np.float32)
            yield f"head.{branch}.ln{i}.beta", np.zeros(d, dtype=np.float32)
    yield "head.cls.out.w", conv(3, d, cfg.num_classes)
    yield "head.cls.out.b", np.full(
        cfg.num_classes, -math.log((1.0 - cfg.prior_prob) / cfg.prior_prob),
        dtype=np.float32)
    yield "head.reg.out.w", conv(3, d, 2)
    yield "head.reg.out.b", np.zeros(2, dtype=np.float32)


def config_with_retired_key(cfg, path, value):
    """``cfg`` saved to ``path`` as when ``[backbone]`` had ``msa_residual``."""
    save_config(cfg, path)
    text = path.read_text()
    assert "msa_residual" not in text
    path.write_text(text.replace("[backbone]\n",
                                 f"[backbone]\nmsa_residual = {value}\n"))
    return path


def config_sections(cfg):
    """The config object behind each section of the INI file."""
    return {"train": cfg, "model": cfg.model, "backbone": cfg.model.backbone,
            "decode": cfg.decode}


PARAM_NAMES = sorted(init_model_arrays(tiny_train_config().model, seed=0))
INTEGER_KEYS = [(section, f.name)
                for section, obj in config_sections(tiny_train_config()).items()
                for f in fields(obj) if type(getattr(obj, f.name)) is int]


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("tinyds")
    write_dataset(root, tiny_spec(), split_counts=(4, 2, 2))
    return root


def broken_copy(src: Path, dst: Path, how: str) -> Path:
    """A copy of a dataset whose features break one audio/visual pairing."""
    shutil.copytree(src, dst)
    feats = dst / "features"
    first = sorted(feats.glob("*.audio.tslf"))[0]
    audio = dio.load_features(first)
    if how == "duplicate_visual":
        # a second file holding the first video's visual features
        visual = first.name.replace(".audio.", ".visual.")
        shutil.copy(feats / visual, feats / visual.replace(".visual.", ".copy.visual."))
    elif how == "short_audio":
        # two strides shorter than its visual partner
        dio.save_features(dio.FeatureSequence(
            audio.video_id, "audio", audio.stride_sec, audio.data[:-2]), first)
    else:
        dio.save_features(dio.FeatureSequence(
            "ghost", "audio", audio.stride_sec, audio.data), feats / "ghost.audio.tslf")
    return dst


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestGenData:
    def test_file_count(self, tmp_path):
        rc = cli.main(["gen-data", "--out", str(tmp_path / "d"), "--videos", "8",
                       "--classes", "5"])
        assert rc == 0
        tslf = list((tmp_path / "d" / "features").glob("*.tslf"))
        assert len(tslf) == 16

    def test_byte_identical_trees(self, tmp_path):
        for name in ("a", "b"):
            rc = cli.main(["gen-data", "--out", str(tmp_path / name),
                           "--videos", "4", "--seed", "9"])
            assert rc == 0
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")

    def test_annotations_roundtrip(self, tiny_dataset):
        anns = dio.load_annotations(tiny_dataset / "annotations.json")
        for a in anns:
            a.validate()
        assert len(anns) == 8

    @pytest.mark.parametrize("flags", [
        ["--seed", "-2"], ["--duration", "inf"], ["--split-counts", "5", "-1", "4"],
        # T = inf and T = 10^18, beyond the feature file header's u32 T
        ["--duration", "1e308", "--stride", "1e-10", "--event-length", "1", "2"],
        ["--duration", "1e9", "--stride", "1e-9"]])
    def test_bad_spec_exits_2_writing_nothing(self, tmp_path, capsys, flags):
        out = tmp_path / "d"
        assert cli.main(["gen-data", "--out", str(out), "--videos", "8"] + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[config]") and err.count("\n") == 1
        assert not out.exists()

    def test_fractional_duration_dataset_loads(self, tmp_path):
        # 10.4 s at a 1 s stride is recorded as 10 steps, 10 s
        out = tmp_path / "d"
        assert cli.main(["gen-data", "--out", str(out), "--videos", "20",
                         "--duration", "10.4", "--stride", "1",
                         "--event-length", "2", "4", "--seed", "3"]) == 0
        anns = load_dataset(out).annotations.values()
        assert {a.duration_sec for a in anns} == {10.0}
        assert max(ev.end_sec for a in anns for ev in a.events) <= 10.0

    def test_event_longer_than_recorded_duration_exits_2(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert cli.main(["gen-data", "--out", str(out), "--duration", "10.4",
                         "--event-length", "2", "10.2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[config]") and "duration 10.0" in err
        assert not out.exists()

    def test_refuses_nonempty_without_force(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert cli.main(["gen-data", "--out", str(out), "--videos", "2"]) == 0
        assert cli.main(["gen-data", "--out", str(out), "--videos", "2"]) == 2
        assert "error[validation]" in capsys.readouterr().err
        assert cli.main(["gen-data", "--out", str(out), "--videos", "2",
                         "--force"]) == 0
        # a smaller dataset over a larger one leaves none of its features
        assert cli.main(["gen-data", "--out", str(out), "--videos", "6",
                         "--force"]) == 0
        (out / "features" / "notes.txt").write_text("kept")
        assert cli.main(["gen-data", "--out", str(out), "--videos", "3",
                         "--force"]) == 0
        feats = sorted(p.name for p in (out / "features").iterdir())
        assert feats == ["notes.txt"] + sorted(
            f"vid{i:05d}.{m}.tslf" for i in range(3) for m in ("audio", "visual"))
        assert load_dataset(out).videos() == ["vid00000", "vid00001", "vid00002"]


class TestConfigFile:
    def test_roundtrip(self, tmp_path):
        cfg = tiny_train_config()
        path = tmp_path / "c.ini"
        save_config(cfg, path)
        loaded = load_config(path)
        assert loaded == cfg

    def test_desk_preset_roundtrip(self, tmp_path):
        cfg = desk_scale_config()
        path = tmp_path / "c.ini"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[train]\nlearning_rte = 0.1\n")
        with pytest.raises(ConfigError, match="learning_rte"):
            load_config(path)

    @pytest.mark.parametrize("text, key", [
        ("[train]\nvalidate = 1\n", "validate"),       # a method, not a field
        ("[model]\nbackbone = 1\n", "backbone"),       # a section, not a key
        ("[train]\ndecode = 1\n", "decode")])
    def test_only_field_keys_accepted(self, tmp_path, text, key):
        path = tmp_path / "c.ini"
        path.write_text(text)
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            load_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[optimizer]\nlr = 0.1\n")
        with pytest.raises(ConfigError, match="optimizer"):
            load_config(path)

    @pytest.mark.parametrize("text", [
        # configparser's default section held a typo, which the full-scale
        # defaults silently replaced
        "[DEFAULT]\nepochz = 3\n",
        # it copied a [train] key into every section, so the error named
        # the wrong one
        "[DEFAULT]\nlearning_rate = 0.5\n[model]\nnum_classes = 3\n",
    ], ids=["typo", "train-key"])
    def test_default_section_rejected(self, tiny_dataset, tmp_path, capsys, text):
        cfg_path = tmp_path / "c.ini"
        cfg_path.write_text(text)
        message = f"{cfg_path}: unknown config section [DEFAULT]"
        with pytest.raises(ConfigError) as exc:
            load_config(cfg_path)
        assert str(exc.value) == message
        out = tmp_path / "run"
        rc = cli.main(["train", "--data", str(tiny_dataset), "--out", str(out),
                       "--config", str(cfg_path)])
        assert rc == 2
        assert capsys.readouterr().err == f"error[config]: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("value", ["true", "True", "1", "yes", "on"])
    def test_retired_residual_key_true_loads(self, tmp_path, value):
        # the key's only value is the recurrence every block now runs
        cfg = desk_scale_config()
        old = config_with_retired_key(cfg, tmp_path / "old.ini", value)
        save_config(cfg, tmp_path / "new.ini")
        assert load_config(old) == load_config(tmp_path / "new.ini") == cfg

    @pytest.mark.parametrize("value", ["false", "0", "off", "maybe"])
    def test_retired_residual_key_false_exits_2_writing_nothing(
            self, tiny_dataset, tmp_path, capsys, value):
        cfg_path = config_with_retired_key(tiny_train_config(),
                                           tmp_path / "old.ini", value)
        with pytest.raises(ConfigError, match="does not train"):
            load_config(cfg_path)
        out = tmp_path / "run"
        rc = cli.main(["train", "--data", str(tiny_dataset), "--out", str(out),
                       "--config", str(cfg_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error[config]") and err.count("\n") == 1
        assert f"msa_residual = {value}" in err and "does not train" in err
        assert not out.exists()

    def test_warmup_exceeding_epochs_rejected(self):
        cfg = tiny_train_config(epochs=1, warmup_epochs=5)
        with pytest.raises(ConfigError, match="warmup"):
            cfg.validate()

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/config.ini")

    @pytest.mark.parametrize("text", [
        b"learning_rate = 0.1\n",                 # no [section] header
        b"[train]\nepochs = 2\nepochs = 3\n",     # a repeated key
        b"[train]\nepochs = 2\xff\n",             # not UTF-8
        b"[train]\nlearning_rate = 5%\n",         # a bad interpolation
    ])
    def test_unparsable_file_exits_2_writing_nothing(self, tiny_dataset, tmp_path,
                                                      capsys, text):
        cfg_path = tmp_path / "bad.ini"
        cfg_path.write_bytes(text)
        with pytest.raises(ConfigError, match="bad.ini"):
            load_config(cfg_path)
        out = tmp_path / "run"
        rc = cli.main(["train", "--data", str(tiny_dataset), "--out", str(out),
                       "--config", str(cfg_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error[config]") and err.count("\n") == 1
        assert "bad.ini" in err
        assert not out.exists()


class TestSchedule:
    def test_warmup_then_cosine(self):
        base = 1.0
        assert lr_at(0, 100, 10, base) == pytest.approx(0.1)
        assert lr_at(9, 100, 10, base) == pytest.approx(1.0)
        assert lr_at(10, 100, 10, base) == pytest.approx(1.0)
        assert lr_at(99, 100, 10, base) < 0.01
        # monotone decay after warmup
        vals = [lr_at(s, 100, 10, base) for s in range(10, 100)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


@pytest.fixture(scope="module")
def desk_four(tmp_path_factory):
    """Four T=64 videos for the desk preset; train_desk batches two."""
    root = tmp_path_factory.mktemp("deskfour")
    spec = dio.SyntheticSpec(num_videos=4, duration_sec=64.0,
                             events_per_video=(1, 3), seed=1)
    write_dataset(root, spec, split_counts=(4, 0, 0))
    return load_dataset(root)


def count_step_records(dataset, batch, monkeypatch):
    """(records made, backward closures run) by one desk-preset train_step."""
    records, ran = [], []

    class CountingTape(ad.Tape):
        def record(self, out_values, bwd):
            records.append(1)

            def counted(g, acc):
                ran.append(1)
                bwd(g, acc)

            return super().record(out_values, counted)

    monkeypatch.setattr(ad, "Tape", CountingTape)
    cfg = desk_scale_config().model
    _, scalars = train_step(init_model_arrays(cfg, seed=0), cfg, batch, dataset, 1.0)
    assert scalars["t_plus"] > 0
    return len(records), len(ran)


# parameter gradients of the packed step against the per-video, per-level
# oracle: each weight gradient is one GEMM over every video's and level's
# rows instead of a sum of per-video GEMMs, so float32 roundings differ
# (up to 1.7e-6 of the parameter's largest gradient on these batches); the
# attention key biases have an exactly zero gradient that rounds to ~1e-16
GRAD_RTOL = 1e-5
GRAD_ATOL = 1e-12


class TestTraining:
    def test_train_step_record_count(self, desk_four, monkeypatch):
        # the forward pass of test_backbone's TestForwardRecords, 93; focal
        # 2 (elements, sum); DIoU 3 (gather, loss, sum); the objective 3.
        # 289 when the step ran the model once per video, 643 before the
        # fused losses and biases
        records, ran = count_step_records(desk_four, desk_four.videos("train")[:2],
                                          monkeypatch)
        assert records == 93 + 2 + 3 + 3 == 101
        # every level of every video has a positive point, and every point
        # a class loss: every backward closure runs
        assert ran == records

    def test_train_step_records_do_not_grow_with_the_batch(self, desk_four,
                                                           monkeypatch):
        videos = desk_four.videos("train")
        counts = {n: count_step_records(desk_four, videos[:n], monkeypatch)[0]
                  for n in (1, 2, 4)}
        assert counts == {1: 101, 2: 101, 4: 101}

    @pytest.mark.parametrize("data_seed, videos, duration", [
        (1, 2, 64.0), (7, 2, 64.0), (8, 2, 64.0),
        # odd lengths down the pyramid: 37, 19, 10, 5
        (8, 3, 37.0), (3, 4, 64.0)])
    def test_train_step_matches_per_video_oracle(self, tmp_path, data_seed,
                                                 videos, duration):
        write_dataset(tmp_path, dio.SyntheticSpec(
            num_videos=videos, duration_sec=duration, events_per_video=(1, 3),
            seed=data_seed), split_counts=(videos, 0, 0))
        ds = load_dataset(tmp_path)
        cfg = desk_scale_config().model
        arrays = init_model_arrays(cfg, seed=0)
        batch = ds.videos("train")
        grads, got = train_step(arrays, cfg, batch, ds, 1.0)
        want_grads, want = level_oracles.train_step(arrays, cfg, batch, ds, 1.0)
        assert sorted(grads) == sorted(want_grads)
        for name in grads:
            bound = GRAD_RTOL * np.abs(want_grads[name]).max() + GRAD_ATOL
            assert np.abs(grads[name] - want_grads[name]).max() <= bound, name
        # the oracle rounds one float32 focal (and DIoU) sum per level and
        # video and adds them up; the packed step sums every row at once
        assert got["t_plus"] == want["t_plus"]
        for key in ("total", "l_cls", "l_reg"):
            assert got[key] == pytest.approx(want[key], rel=LOSS_SUM_RTOL), key

    def test_zero_lr_leaves_parameters_bitwise_unchanged(self, tiny_dataset):
        cfg = tiny_train_config(learning_rate=0.0, weight_decay=0.0, epochs=1,
                                warmup_epochs=0)
        ds = load_dataset(tiny_dataset)
        manifest = train(cfg, ds, tiny_dataset.parent / "zero_lr_run")
        trained = load_checkpoint(manifest.checkpoints[-1])
        fresh = init_model_arrays(cfg.model, cfg.seed)
        assert sorted(trained) == sorted(fresh)
        for name in fresh:
            assert np.array_equal(trained[name],
                                  fresh[name].astype(np.float32)), name

    def test_identical_seeds_identical_trajectories(self, tiny_dataset, tmp_path):
        ds = load_dataset(tiny_dataset)
        m1 = train(tiny_train_config(), ds, tmp_path / "r1")
        m2 = train(tiny_train_config(), ds, tmp_path / "r2")
        assert m1.epochs == m2.epochs
        b1 = (tmp_path / "r1" / "checkpoints" / "best.ckpt").read_bytes()
        b2 = (tmp_path / "r2" / "checkpoints" / "best.ckpt").read_bytes()
        assert b1 == b2

    def test_validation_split_scored_once_per_epoch(self, tiny_dataset, tmp_path,
                                                    monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[3])
            return real(*args, **kwargs)

        real = train_mod.evaluate_on
        monkeypatch.setattr(train_mod, "evaluate_on", counted)
        cfg = tiny_train_config(epochs=3)
        manifest = train(cfg, load_dataset(tiny_dataset), tmp_path / "run")
        assert len(calls) == cfg.epochs
        # the final report is the last epoch's
        assert manifest.final_report["average_map"] == manifest.epochs[-1]["val_map"]

    def test_manifest_independent_of_output_directory(self, tiny_dataset, tmp_path):
        ds = load_dataset(tiny_dataset)
        docs = []
        for out in (tmp_path / "one", tmp_path / "deeper" / "two"):
            manifest = train(tiny_train_config(), ds, out)
            # in memory the paths stay loadable from here
            load_checkpoint(manifest.best_checkpoint)
            load_checkpoint(manifest.checkpoints[0])
            doc = json.loads((out / "manifest.json").read_text())
            assert doc["best_checkpoint"] == "checkpoints/best.ckpt"
            assert doc["checkpoints"] == ["checkpoints/epoch_000.ckpt",
                                          "checkpoints/epoch_001.ckpt"]
            assert (out / doc["best_checkpoint"]).is_file()
            del doc["wall_time_sec"]
            docs.append(doc)
        assert docs[0] == docs[1]

    def test_manifest_records_the_environment(self, tiny_dataset, tmp_path,
                                              monkeypatch):
        # the bytes of a run hold at one numpy build and BLAS thread count
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        train(tiny_train_config(epochs=1), load_dataset(tiny_dataset),
              tmp_path / "run")
        doc = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert doc["environment"] == {
            "numpy_version": np.__version__, "OMP_NUM_THREADS": "1",
            "OPENBLAS_NUM_THREADS": None, "cpu_count": os.cpu_count()}

    def test_shorter_run_clears_stale_epoch_checkpoints(self, tiny_dataset,
                                                         tmp_path):
        ds = load_dataset(tiny_dataset)
        out = tmp_path / "run"
        ckpts = out / "checkpoints"
        train(tiny_train_config(epochs=3), ds, out)
        before = tree_bytes(ckpts)
        # a rejected run writes and deletes nothing
        bad = tiny_train_config(epochs=1)
        bad.model.num_classes = 2
        with pytest.raises(ValidationError, match="num_classes"):
            train(bad, ds, out)
        assert tree_bytes(ckpts) == before
        train(tiny_train_config(epochs=1), ds, out)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["checkpoints"] == ["checkpoints/epoch_000.ckpt"]
        assert sorted(p.relative_to(out).as_posix() for p in ckpts.iterdir()) == (
            ["checkpoints/best.ckpt"] + manifest["checkpoints"])

    def test_loss_decreases_on_easy_data(self, tiny_dataset, tmp_path):
        cfg = tiny_train_config(epochs=4)
        ds = load_dataset(tiny_dataset)
        manifest = train(cfg, ds, tmp_path / "decrease")
        totals = [e["mean_total"] for e in manifest.epochs]
        assert totals[-1] < totals[0]

    def test_loss_strictly_decreases_early_across_seeds(self, tmp_path):
        # easy synthetic data: the first five epochs should improve
        # monotonically for nearly every seed
        root = tmp_path / "easy"
        write_dataset(root, tiny_spec(num_videos=4, events_per_video=(1, 1)),
                      split_counts=(4, 0, 0))
        ds = load_dataset(root)
        good = 0
        for seed in range(10):
            cfg = tiny_train_config(epochs=5, warmup_epochs=1, seed=seed)
            manifest = train(cfg, ds, tmp_path / f"seed{seed}")
            totals = [e["mean_total"] for e in manifest.epochs]
            if all(b < a for a, b in zip(totals, totals[1:])):
                good += 1
        assert good >= 9, f"only {good}/10 seeds decreased monotonically"

    def test_nan_loss_aborts_with_batch_id(self, tiny_dataset, tmp_path, monkeypatch):
        def poisoned(store, cfg, batch, dataset, lambda_reg):
            return store.grads, {"total": float("nan"), "l_cls": 0.0,
                                 "l_reg": 0.0, "t_plus": 0}

        monkeypatch.setattr(train_mod, "train_step", poisoned)
        ds = load_dataset(tiny_dataset)
        with pytest.raises(NumericError, match="epoch 0 batch 0"):
            train_mod.train(tiny_train_config(), ds, tmp_path / "nanrun")

    @settings(max_examples=12, deadline=None)
    @given(names=st.lists(st.sampled_from(PARAM_NAMES), min_size=1, max_size=3,
                          unique=True),
           value=st.sampled_from([math.inf, -math.inf, math.nan]),
           step=st.integers(0, 3))
    def test_non_finite_gradient_exits_3_naming_the_parameter(
            self, tiny_dataset, names, value, step):
        # 4 training videos in batches of 2 for 2 epochs: steps 0..3
        real_step, calls = train_mod.train_step, []

        def poisoned(*args, **kwargs):
            grads, scalars = real_step(*args, **kwargs)
            if len(calls) == step:
                for name in names:
                    grads[name].flat[-1] = value
            calls.append(1)
            return grads, scalars

        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            cfg_path = Path(tmp) / "c.ini"
            save_config(tiny_train_config(), cfg_path)
            mp.setattr(train_mod, "train_step", poisoned)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = cli.main(["train", "--data", str(tiny_dataset),
                               "--out", str(Path(tmp) / "run"),
                               "--config", str(cfg_path)])
            # only the epochs before the poisoned step were saved
            saved = list(Path(tmp).glob("run/checkpoints/epoch_*.ckpt"))
            assert len(saved) == step // 2
        assert rc == 3 and len(calls) == step + 1
        msg = err.getvalue()
        assert msg.startswith("error[numeric]: non-finite gradient norm")
        assert f"epoch {step // 2} batch {step % 2}" in msg
        assert f"parameter {min(names)!r}" in msg

    def test_non_finite_norm_leaves_gradients_unscaled(self):
        store = pr.ParamStore({"a": np.zeros(2), "b": np.zeros(1)})
        store.grads["a"][:] = [3.0, math.inf]
        store.grads["b"][:] = math.nan
        norm = pr.clip_by_global_norm(store, 1.0)
        assert math.isnan(norm)
        assert store.grads["a"].tolist() == [3.0, math.inf]

    def test_train_step_accumulates_into_the_store(self, desk_four):
        # every leaf adds its gradient into the store's buffer, which bind
        # zeroes: two steps give the gradients of a plain-dict step, bitwise
        cfg = desk_scale_config().model
        arrays = init_model_arrays(cfg, seed=0)
        store = pr.ParamStore(arrays)
        batch = desk_four.videos("train")[:2]
        want, want_scalars = train_step(arrays, cfg, batch, desk_four, 1.0)
        for _ in range(2):
            grads, scalars = train_step(store, cfg, batch, desk_four, 1.0)
            assert scalars == want_scalars
            assert list(grads) == list(want)
            for name, g in grads.items():
                assert g is store.grads[name]
                assert np.shares_memory(g, store.grad), name
                assert np.array_equal(g, want[name]), name

    def test_train_step_scalars_equal_total_loss(self, tiny_dataset):
        # train_step and total_loss share one objective: on a one-video
        # batch their scalars are the same floats
        cfg = tiny_train_config(lambda_reg=0.5)
        ds = load_dataset(tiny_dataset)
        vid = ds.videos("train")[0]
        arrays = init_model_arrays(cfg.model, seed=5)
        _, got = train_step(arrays, cfg.model, [vid], ds, cfg.lambda_reg)

        tape = ad.Tape(dtype=np.float32)
        (points,), head_out = forward_video(pr.bind(tape, arrays), cfg.model,
                                            [ds.fused[vid].data], tape)
        a = assign_targets(points, ds.annotations[vid], ds.fused[vid].stride_sec,
                           cfg.model.num_classes)
        _, want = total_loss(head_out, a, cfg.lambda_reg)
        assert want["t_plus"] > 0
        assert got == want

    @pytest.mark.parametrize("value", [-1, 0])
    @pytest.mark.parametrize("section, key", INTEGER_KEYS)
    def test_integer_key_runs_or_exits_2_writing_nothing(
            self, tiny_dataset, tmp_path, capsys, section, key, value):
        cfg = tiny_train_config()
        setattr(config_sections(cfg)[section], key, value)
        cfg_path = tmp_path / "c.ini"
        save_config(cfg, cfg_path)
        out = tmp_path / "run"
        rc = cli.main(["train", "--data", str(tiny_dataset), "--out", str(out),
                       "--config", str(cfg_path)])
        if rc != 0:
            assert rc == 2
            assert capsys.readouterr().err.startswith("error[config]")
            assert not out.exists()

    def test_negative_seed_flag_writes_nothing(self, tiny_dataset, tmp_path, capsys):
        cfg_path = tmp_path / "c.ini"
        save_config(tiny_train_config(), cfg_path)
        out = tmp_path / "run"
        rc = cli.main(["train", "--data", str(tiny_dataset), "--out", str(out),
                       "--config", str(cfg_path), "--seed", "-1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error[config]") and "seed" in err
        assert not out.exists()

    @pytest.mark.parametrize("manifest", [
        [1, 2], "splits", {"splits": {"train": 5}}, {"splits": ["train"]},
        {"splits": {"train": [1]}}, {"splits": {"train": ["vid00000", None]}}])
    def test_malformed_dataset_manifest_exits_4(self, tiny_dataset, tmp_path,
                                                capsys, manifest):
        data = tmp_path / "data"
        shutil.copytree(tiny_dataset, data)
        (data / "manifest.json").write_text(json.dumps(manifest))
        out = tmp_path / "run"
        rc = cli.main(["train", "--data", str(data), "--out", str(out)])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("error[annotation-format]") and "manifest.json" in err
        assert not out.exists()

    @pytest.mark.parametrize("train_ids, val_ids, homes", [
        (["vid00000", "vid00000"], ["vid00000", "vid00000"],
         "['train', 'train', 'val', 'val']"),
        (None, ["vid00000"], "['train', 'val']")], ids=["twice-in-each", "in-two"])
    def test_video_listed_twice_in_splits_exits_4(self, tmp_path, capsys,
                                                  train_ids, val_ids, homes):
        # a training video scored as validation would report its own fit
        data = tmp_path / "data"
        assert cli.main(["gen-data", "--out", str(data), "--videos", "6",
                         "--split-counts", "3", "2", "1"]) == 0
        doc = json.loads((data / "manifest.json").read_text())
        assert "vid00000" in doc["splits"]["train"]
        doc["splits"]["train"] = train_ids or doc["splits"]["train"]
        doc["splits"]["val"] = val_ids
        (data / "manifest.json").write_text(json.dumps(doc))
        capsys.readouterr()
        out = tmp_path / "run"
        rc = cli.main(["train", "--data", str(data), "--out", str(out)])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("error[annotation-format]")
        assert f"video 'vid00000' is listed more than once, in splits {homes}" in err
        assert not out.exists()

    def test_label_beyond_num_classes_rejected(self, tmp_path, capsys):
        root = tmp_path / "ds7"
        write_dataset(root, tiny_spec(num_classes=7), split_counts=(4, 2, 2))
        ds = load_dataset(root)
        labels = {ev.label for vid in ds.videos("train") + ds.videos("val")
                  for ev in ds.annotations[vid].events}
        assert max(labels) >= 3
        cfg_path = tmp_path / "c.ini"
        save_config(tiny_train_config(), cfg_path)
        rc = cli.main(["train", "--data", str(root), "--out", str(tmp_path / "run"),
                       "--config", str(cfg_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error[validation]") and "num_classes 3" in err
        assert not (tmp_path / "run").exists()

    def test_rejected_desk_run_writes_nothing(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert cli.main(["gen-data", "--out", str(data), "--videos", "8",
                         "--classes", "7", "--seed", "1"]) == 0
        out = tmp_path / "run"
        assert cli.main(["train", "--data", str(data), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[validation]") and "num_classes 5" in err
        assert not out.exists()

    def test_validation_split_without_events_writes_nothing(self, tmp_path,
                                                            capsys):
        data = tmp_path / "data"
        assert cli.main(["gen-data", "--out", str(data), "--videos", "4",
                         "--events", "0", "0", "--duration", "16",
                         "--event-length", "2", "4"]) == 0
        assert load_dataset(data).videos("val")
        out = tmp_path / "run"
        assert cli.main(["train", "--data", str(data), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[validation]") and "split 'val'" in err
        assert not out.exists()

    def test_feature_dim_mismatch_writes_nothing(self, tiny_dataset, tmp_path,
                                                 capsys):
        out = tmp_path / "run"
        rc = cli.main(["train", "--data", str(tiny_dataset), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error[validation]") and "input_dim 40" in err
        assert not out.exists()

    @pytest.mark.parametrize("section, key, value", [
        ("train", "learning_rate", float("nan")),
        ("train", "learning_rate", -1e-3),
        ("train", "weight_decay", float("inf")),
        ("train", "grad_clip", float("nan")),
        # a clip of 0 scales every gradient to 0: nothing would train
        ("train", "grad_clip", 0.0),
        ("train", "grad_clip", -1.0),
        ("train", "lambda_reg", float("inf")),
        ("train", "lambda_reg", -0.5),
        ("model", "prior_prob", 0.0),
        ("model", "prior_prob", 1.0),
        ("model", "prior_prob", float("nan")),
        ("model", "range_base", 0.0),
        ("model", "range_base", float("inf")),
        ("model", "range_base", float("nan")),
        ("backbone", "layerscale_init", float("nan")),
        ("backbone", "layerscale_init", float("-inf")),
        ("backbone", "num_heads", 0),
        ("backbone", "num_heads", -4),
        ("backbone", "d_model", 0),
        ("train", "seed", -1),
    ])
    def test_bad_train_config_exit_code(self, tiny_dataset, tmp_path, capsys,
                                        section, key, value):
        cfg = tiny_train_config()
        setattr(config_sections(cfg)[section], key, value)
        bad_cfg = tmp_path / "bad.ini"
        save_config(cfg, bad_cfg)
        rc = cli.main(["train", "--data", str(tiny_dataset),
                       "--out", str(tmp_path / "run"), "--config", str(bad_cfg)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error[config]") and key in err


def raw_checkpoint(entries, magic=b"TSCP", version=1):
    """Checkpoint bytes written field by field from (name, dims, payload)
    entries, whatever the payloads' lengths."""
    blob = struct.pack("<4sII", magic, version, len(entries))
    for name, dims, payload in entries:
        encoded = name.encode("utf-8")
        blob += struct.pack(f"<H{len(encoded)}sB{len(dims)}I", len(encoded),
                            encoded, len(dims), *dims) + payload
    return blob


class TestCheckpoints:
    def test_roundtrip_exact(self, tmp_path):
        cfg = tiny_train_config()
        arrays = init_model_arrays(cfg.model, seed=5)
        path = tmp_path / "m.ckpt"
        save_checkpoint(arrays, path)
        loaded = load_checkpoint(path)
        assert sorted(loaded) == sorted(arrays)
        for k in arrays:
            assert np.array_equal(loaded[k], arrays[k].astype(np.float32))

    def test_predict_from_reloaded_equals_in_memory(self, tiny_dataset, tmp_path):
        cfg = tiny_train_config()
        arrays = init_model_arrays(cfg.model, seed=5)
        path = tmp_path / "m.ckpt"
        save_checkpoint(arrays, path)
        loaded = load_checkpoint(path)
        ds = load_dataset(tiny_dataset)
        vid = ds.videos()[0]
        a = predict_intervals(arrays, cfg.model, ds.fused[vid], cfg.decode)
        b = predict_intervals(loaded, cfg.model, ds.fused[vid], cfg.decode)
        assert a == b

    def test_predict_frees_its_tape_without_the_cyclic_collector(
            self, tiny_dataset, monkeypatch):
        tapes = []

        class WatchedTape(model_mod.Tape):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                tapes.append(weakref.ref(self))

        monkeypatch.setattr(model_mod, "Tape", WatchedTape)
        cfg = tiny_train_config()
        ds = load_dataset(tiny_dataset)
        gc.disable()
        try:
            predict_intervals(init_model_arrays(cfg.model, seed=5), cfg.model,
                              ds.fused[ds.videos()[0]], cfg.decode)
            assert len(tapes) == 1 and tapes[0]() is None
        finally:
            gc.enable()

    def test_predict_records_nothing(self, tiny_dataset, monkeypatch):
        calls, kept = [], []

        class WatchedTape(model_mod.Tape):
            def record(self, out_values, bwd):
                calls.append(1)
                out = super().record(out_values, bwd)
                kept.append(len(self._nodes))
                return out

        monkeypatch.setattr(model_mod, "Tape", WatchedTape)
        cfg = tiny_train_config()
        ds = load_dataset(tiny_dataset)
        predict_intervals(init_model_arrays(cfg.model, seed=5), cfg.model,
                          ds.fused[ds.videos()[0]], cfg.decode)
        assert calls and max(kept) == 0

    def test_train_step_frees_its_tape_without_the_cyclic_collector(
            self, tiny_dataset, monkeypatch):
        tapes = []

        class WatchedTape(ad.Tape):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                tapes.append(weakref.ref(self))

        monkeypatch.setattr(ad, "Tape", WatchedTape)
        cfg = tiny_train_config()
        ds = load_dataset(tiny_dataset)
        gc.disable()
        try:
            grads, scalars = train_step(
                init_model_arrays(cfg.model, seed=5), cfg.model,
                ds.videos("train")[:2], ds, cfg.lambda_reg)
            assert len(tapes) == 1 and tapes[0]() is None
        finally:
            gc.enable()
        assert math.isfinite(scalars["total"])
        assert any(np.abs(g).sum() > 0 for g in grads.values())

    def test_shape_mismatch_names_first_parameter(self, tmp_path):
        cfg = tiny_train_config()
        arrays = init_model_arrays(cfg.model, seed=0)
        other = tiny_train_config()
        other.model.backbone.d_model = 32
        with pytest.raises(CheckpointError, match="shape mismatch at"):
            check_checkpoint_shapes(arrays, other.model)

    def test_shape_check_messages(self):
        cfg = desk_scale_config().model
        arrays = init_model_arrays(cfg, seed=0)
        missing = {k: v for k, v in arrays.items() if k != "head.reg.out.b"}
        with pytest.raises(CheckpointError) as exc:
            check_checkpoint_shapes(missing, cfg)
        assert str(exc.value) == "checkpoint is missing parameter 'head.reg.out.b'"
        with pytest.raises(CheckpointError) as exc:
            check_checkpoint_shapes({**arrays, "extra.w": arrays["head.reg.out.b"]},
                                    cfg)
        assert str(exc.value) == "checkpoint has unexpected parameter 'extra.w'"
        other = desk_scale_config().model
        other.backbone.d_model = 32
        with pytest.raises(CheckpointError) as exc:
            check_checkpoint_shapes(arrays, other)
        assert str(exc.value) == ("checkpoint/config shape mismatch at "
                                  "'block0.attn.bk': (64,) vs expected (32,)")

    def test_shape_check_draws_no_weights(self, monkeypatch):
        cfg = desk_scale_config().model
        arrays = init_model_arrays(cfg, seed=0)

        def refuse(*args, **kwargs):
            raise AssertionError("the shape check drew weights")

        monkeypatch.setattr(pr, "init_params", refuse)
        monkeypatch.setattr(model_mod, "init_model_arrays", refuse)
        check_checkpoint_shapes(arrays, cfg)
        assert {k: v.shape for k, v in arrays.items()} == {
            k: s.shape for k, s in model_mod.param_shapes(cfg).items()}

    @pytest.mark.parametrize("make_cfg", [lambda: desk_scale_config().model,
                                          ModelConfig],
                             ids=["desk", "paper"])
    def test_init_matches_per_parameter_draws(self, make_cfg):
        # the paper-scale defaults hold 39.6M parameters: compare one array
        # at a time
        cfg = make_cfg()
        arrays = init_model_arrays(cfg, seed=0)
        want = oracle_init_model_arrays(cfg, seed=0)
        for name, got in arrays.items():
            want_name, want_arr = next(want)
            assert name == want_name
            assert got.dtype == want_arr.dtype == np.float32
            assert got.shape == want_arr.shape
            assert got.tobytes() == want_arr.tobytes()
        assert next(want, None) is None

    def test_truncated_checkpoint_rejected(self, tmp_path):
        cfg = tiny_train_config()
        path = tmp_path / "m.ckpt"
        save_checkpoint(init_model_arrays(cfg.model, 0), path)
        path.write_bytes(path.read_bytes()[:50])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("dims", [(2**32 - 1,) * 3, (2**31, 2**31),
                                      (2**32 - 1,) * 4],
                             ids=["3x(2^32-1)", "2^31x2^31", "4x(2^32-1)"])
    def test_payload_beyond_the_file_rejected_before_allocation(self, tmp_path,
                                                                dims):
        # the first and last products overflow int64; the middle one fits
        # but is more than numpy can allocate
        path = tmp_path / "big.ckpt"
        path.write_bytes(raw_checkpoint([("a", dims, bytes(16))]))
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError) as exc:
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value) == (f"{path}: parameter 'a' payload truncated "
                                  f"(16 of {4 * math.prod(dims)} bytes)")
        assert peak < 1 << 20

    @pytest.mark.parametrize("cut", [4, 14], ids=["payload", "dims"])
    def test_first_problem_in_file_order_is_reported(self, tmp_path, cut):
        # the first parameter holds a NaN and the last entry is cut short:
        # the NaN comes first in the file, so it is what the error names
        path = tmp_path / "m.ckpt"
        blob = raw_checkpoint([
            ("a", (2,), np.array([math.nan, 1.0], "<f4").tobytes()),
            ("b", (3,), bytes(12))])
        path.write_bytes(blob[:-cut])
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(path)
        assert str(exc.value) == f"{path}: parameter 'a' has non-finite values"

    @pytest.mark.parametrize("blob, message", [
        (b"TSCP\x01", "truncated checkpoint header"),
        (raw_checkpoint([], magic=b"NOPE"), "bad checkpoint magic b'NOPE'"),
        (raw_checkpoint([], version=2), "unsupported checkpoint version 2"),
        (raw_checkpoint([("a", (1,), bytes(4))] * 2), "parameter 'a' appears twice"),
        (raw_checkpoint([("a", (1,), bytes(4)), ("b", (3,), bytes(8))]),
         "parameter 'b' payload truncated (8 of 12 bytes)"),
        (raw_checkpoint([("a", (1,), bytes(4))]) + b"xyz", "3 trailing bytes"),
    ], ids=["header", "magic", "version", "twice", "payload", "trailing"])
    def test_rejection_messages(self, tmp_path, blob, message):
        path = tmp_path / "m.ckpt"
        path.write_bytes(blob)
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(path)
        assert str(exc.value) == f"{path}: {message}"

    @pytest.mark.parametrize("name, value", [
        ("head.cls.out.b", float("nan")),
        ("head.reg.out.b", float("inf")),
        ("block0.attn.wq", float("-inf")),
    ])
    def test_non_finite_checkpoint_rejected(self, trained, tmp_path, capsys,
                                            name, value):
        arrays = load_checkpoint(trained["ckpt"])
        arrays[name].flat[0] = value
        path = tmp_path / "bad.ckpt"
        save_checkpoint(arrays, path)
        out = tmp_path / "x.json"
        rc = cli.main(["predict", "--checkpoint", str(path),
                       "--features", str(trained["data"] / "features"),
                       "--out", str(out), "--config", str(trained["config"])])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("error[checkpoint]") and repr(name) in err
        assert not out.exists()

    def test_parameter_named_twice_rejected(self, trained, tmp_path, capsys):
        # a second copy of a parameter, appended after the others, would
        # otherwise replace the first and pass the shape check
        name = "head.cls.out.b"
        arrays = load_checkpoint(trained["ckpt"])
        path, extra = tmp_path / "twice.ckpt", tmp_path / "extra.ckpt"
        save_checkpoint(arrays, path)
        save_checkpoint({name: arrays[name] + 1.0}, extra)
        header = struct.calcsize("<4sII")
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, header - 4, len(arrays) + 1)
        path.write_bytes(bytes(blob) + extra.read_bytes()[header:])
        out = tmp_path / "x.json"
        rc = cli.main(["predict", "--checkpoint", str(path),
                       "--features", str(trained["data"] / "features"),
                       "--out", str(out), "--config", str(trained["config"])])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("error[checkpoint]") and repr(name) in err
        assert not out.exists()


@pytest.fixture(scope="module")
def trained(tiny_dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("trainrun")
    cfg_path = out / "config.ini"
    save_config(tiny_train_config(), cfg_path)
    ds = load_dataset(tiny_dataset)
    manifest = train(tiny_train_config(), ds, out)
    return {"ckpt": manifest.best_checkpoint, "config": cfg_path,
            "data": tiny_dataset}


class TestPredictEvalCli:
    def test_predict_twice_byte_identical(self, trained, tmp_path):
        for name in ("p1.json", "p2.json"):
            rc = cli.main(["predict", "--checkpoint", trained["ckpt"],
                           "--features", str(trained["data"] / "features"),
                           "--out", str(tmp_path / name),
                           "--config", str(trained["config"])])
            assert rc == 0
        assert (tmp_path / "p1.json").read_bytes() == (tmp_path / "p2.json").read_bytes()

    def test_predict_empty_features_dir(self, trained, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        out = tmp_path / "empty.json"
        rc = cli.main(["predict", "--checkpoint", trained["ckpt"],
                       "--features", str(empty), "--out", str(out),
                       "--config", str(trained["config"])])
        assert rc == 0
        assert dio.load_predictions(out) == {}

    def test_predict_config_mismatch_exit_code(self, trained, tmp_path, capsys):
        bad_cfg = tmp_path / "bad.ini"
        cfg = tiny_train_config()
        cfg.model.backbone.d_model = 32
        save_config(cfg, bad_cfg)
        rc = cli.main(["predict", "--checkpoint", trained["ckpt"],
                       "--features", str(trained["data"] / "features"),
                       "--out", str(tmp_path / "x.json"),
                       "--config", str(bad_cfg)])
        assert rc == 4
        assert "shape mismatch" in capsys.readouterr().err

    def test_predict_retired_residual_false_exit_code(self, trained, tmp_path,
                                                       capsys):
        cfg_path = config_with_retired_key(tiny_train_config(),
                                           tmp_path / "old.ini", "false")
        out = tmp_path / "x.json"
        rc = cli.main(["predict", "--checkpoint", trained["ckpt"],
                       "--features", str(trained["data"] / "features"),
                       "--out", str(out), "--config", str(cfg_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error[config]") and "does not train" in err
        assert not out.exists()

    def test_eval_perfect_predictions_all_hundred(self, tiny_dataset, tmp_path, capsys):
        anns = dio.load_annotations(tiny_dataset / "annotations.json")
        preds = {
            a.video_id: [
                {"label": e.label, "score": 1.0,
                 "start_sec": e.start_sec, "end_sec": e.end_sec}
                for e in a.events
            ]
            for a in anns
        }
        pred_path = tmp_path / "perfect.json"
        dio.write_predictions(preds, pred_path)
        rc = cli.main(["eval", "--predictions", str(pred_path),
                       "--annotations", str(tiny_dataset / "annotations.json"),
                       "--out", str(tmp_path / "report.json")])
        assert rc == 0
        row = capsys.readouterr().out.splitlines()[-1].split()
        assert row[1:] == ["100.0"] * 6
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["average_map"] == 1.0

    def test_eval_empty_predictions_all_zero(self, tiny_dataset, tmp_path, capsys):
        pred_path = tmp_path / "none.json"
        dio.write_predictions({}, pred_path)
        rc = cli.main(["eval", "--predictions", str(pred_path),
                       "--annotations", str(tiny_dataset / "annotations.json")])
        assert rc == 0
        row = capsys.readouterr().out.splitlines()[-1].split()
        assert row[1:] == ["0.0"] * 6

    def test_eval_unknown_video_rejected(self, tiny_dataset, tmp_path, capsys):
        pred_path = tmp_path / "ghost.json"
        dio.write_predictions(
            {"ghost": [{"label": 0, "score": 0.5,
                        "start_sec": 0.0, "end_sec": 1.0}]}, pred_path)
        rc = cli.main(["eval", "--predictions", str(pred_path),
                       "--annotations", str(tiny_dataset / "annotations.json")])
        assert rc == 2
        assert "ghost" in capsys.readouterr().err

    def test_eval_unknown_label_rejected(self, tiny_dataset, tmp_path, capsys):
        # three annotation classes: 0, 1 and 2
        vid = dio.load_annotations(tiny_dataset / "annotations.json")[0].video_id
        pred_path = tmp_path / "labels.json"
        dio.write_predictions({vid: [
            {"label": label, "score": 0.5, "start_sec": 0.0, "end_sec": 1.0}
            for label in (99, 2, 3, 7, 0, 12, 5, 4, 8)]}, pred_path)
        rc = cli.main(["eval", "--predictions", str(pred_path),
                       "--annotations", str(tiny_dataset / "annotations.json"),
                       "--out", str(tmp_path / "report.json")])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == ("error[validation]: predictions use labels that are "
                                "not annotation classes: 3, 4, 5, 7, 8\n")
        assert captured.out == "" and not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("key, value", [
        ("end_sec", math.inf), ("start_sec", -math.inf), ("start_sec", math.nan),
        ("end_sec", math.nan)])
    def test_eval_non_finite_prediction_rejected(self, tiny_dataset, tmp_path,
                                                 capsys, key, value):
        anns = dio.load_annotations(tiny_dataset / "annotations.json")
        det = {"label": 0, "score": 0.9, "start_sec": 0.0, "end_sec": 1.0}
        det[key] = value
        pred_path = tmp_path / "inf.json"
        pred_path.write_text(json.dumps(
            {"videos": [{"video_id": anns[0].video_id, "detections": [det]}]}))
        rc = cli.main(["eval", "--predictions", str(pred_path),
                       "--annotations", str(tiny_dataset / "annotations.json")])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("error[annotation-format]") and "finite" in err

    @pytest.mark.parametrize("duration, end", [
        (math.inf, 1.0), (math.inf, math.inf), (math.nan, 1.0)])
    def test_eval_non_finite_annotation_rejected(self, tmp_path, capsys,
                                                 duration, end):
        ann_path = tmp_path / "ann.json"
        ann_path.write_text(json.dumps({"class_names": ["a"], "videos": [
            {"video_id": "v", "duration_sec": duration,
             "events": [{"label": 0, "start_sec": 0.0, "end_sec": end}]}]}))
        pred_path = tmp_path / "none.json"
        dio.write_predictions({}, pred_path)
        rc = cli.main(["eval", "--predictions", str(pred_path),
                       "--annotations", str(ann_path)])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("error[annotation-format]") and "finite" in err

    def test_eval_repeated_annotation_video_rejected(self, tmp_path, capsys):
        video = {"video_id": "v", "duration_sec": 10.0,
                 "events": [{"label": 0, "start_sec": 0.0, "end_sec": 1.0}]}
        ann_path = tmp_path / "ann.json"
        ann_path.write_text(json.dumps({"class_names": ["a"], "videos": [
            video, dict(video, events=[{"label": 0, "start_sec": 5.0,
                                        "end_sec": 6.0}])]}))
        pred_path = tmp_path / "preds.json"
        dio.write_predictions({"v": [{"label": 0, "score": 0.9, "start_sec": 5.0,
                                      "end_sec": 6.0}]}, pred_path)
        rc = cli.main(["eval", "--predictions", str(pred_path),
                       "--annotations", str(ann_path)])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("error[annotation-format]")
        assert "duplicate video_id 'v'" in err

    def test_eval_duplicate_class_names_rejected(self, tmp_path, capsys):
        ann_path = tmp_path / "ann.json"
        ann_path.write_text(json.dumps({"class_names": ["dog", "cat", "dog"], "videos": [
            {"video_id": "v", "duration_sec": 10.0,
             "events": [{"label": 0, "start_sec": 0.0, "end_sec": 1.0},
                        {"label": 2, "start_sec": 5.0, "end_sec": 6.0}]}]}))
        pred_path = tmp_path / "preds.json"
        dio.write_predictions({"v": [{"label": 0, "score": 0.9, "start_sec": 0.0,
                                      "end_sec": 1.0}]}, pred_path)
        rc = cli.main(["eval", "--predictions", str(pred_path),
                       "--annotations", str(ann_path)])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("error[annotation-format]")
        assert "duplicate class names: 'dog'" in err

    @pytest.mark.parametrize("how, needle", [
        ("short_audio", "more than one stride apart"),
        ("orphan_audio", "ghost.audio.tslf")])
    def test_predict_unpaired_features_rejected(self, trained, tmp_path, capsys,
                                                how, needle):
        data = broken_copy(trained["data"], tmp_path / "data", how)
        out = tmp_path / "x.json"
        rc = cli.main(["predict", "--checkpoint", trained["ckpt"],
                       "--features", str(data / "features"),
                       "--out", str(out), "--config", str(trained["config"])])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error[validation]") and needle in err
        assert not out.exists()

    @pytest.mark.parametrize("stride", [math.inf, math.nan])
    def test_predict_non_finite_stride_file_exits_4(self, trained, tmp_path,
                                                    capsys, stride):
        data = tmp_path / "data"
        shutil.copytree(trained["data"], data)
        path = sorted((data / "features").glob("*.visual.tslf"))[0]
        blob = bytearray(path.read_bytes())
        # the f64 stride follows magic, version, modality, 3 reserved bytes, T, D
        struct.pack_into("<d", blob, struct.calcsize("<4sIB3sII"), stride)
        path.write_bytes(bytes(blob))
        out = tmp_path / "x.json"
        rc = cli.main(["predict", "--checkpoint", trained["ckpt"],
                       "--features", str(data / "features"),
                       "--out", str(out), "--config", str(trained["config"])])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("error[feature-file]") and err.count("\n") == 1
        assert f"{path}: stride_sec must be finite and positive" in err
        assert not out.exists()

    def test_predict_takes_no_seed(self, trained, tmp_path, capsys):
        # predict draws nothing at random, so a seed would change nothing
        out = tmp_path / "x.json"
        assert cli.main(["predict", "--checkpoint", trained["ckpt"],
                         "--features", str(trained["data"] / "features"),
                         "--out", str(out), "--seed", "1"]) == 2
        assert capsys.readouterr().err == (
            "error[usage]: unrecognized arguments: --seed 1\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["predict", "--checkpoint", "a"],
         "the following arguments are required: --features, --out"),
        (["gen-data", "--videos", "x"],
         "argument --videos: invalid int value: 'x'"),
        ([], "the following arguments are required: command"),
    ])
    def test_bad_command_line_is_one_usage_line(self, argv, message, capsys):
        # the parser's own rejections, a subcommand's too, keep the
        # one-line error contract
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error[usage]: {message}\n"
        assert captured.out == ""

    def test_help_prints_usage_and_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["predict", "--help"])
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: soundloc predict")
        assert captured.err == ""

    @pytest.mark.parametrize("key, value", [
        ("score", True), ("start_sec", False), ("end_sec", True),
        ("end_sec", 10 ** 400), ("start_sec", -(10 ** 400)), ("label", 2 ** 63),
        ("label", 10 ** 400)])
    def test_eval_bool_or_huge_prediction_rejected(self, tiny_dataset, tmp_path,
                                                   capsys, key, value):
        anns = dio.load_annotations(tiny_dataset / "annotations.json")
        det = {"label": 0, "score": 0.9, "start_sec": 0.0, "end_sec": 1.0, key: value}
        pred_path = tmp_path / "odd.json"
        pred_path.write_text(json.dumps(
            {"videos": [{"video_id": anns[0].video_id, "detections": [det]}]}))
        rc = cli.main(["eval", "--predictions", str(pred_path),
                       "--annotations", str(tiny_dataset / "annotations.json")])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("error[annotation-format]")
        assert "det 0:" in err and err.count("\n") == 1

    @pytest.mark.parametrize("where, key, value, needle", [
        ("video", "duration_sec", True, "duration_sec missing"),
        ("event", "start_sec", False, "start/end must be numbers"),
        ("event", "end_sec", True, "start/end must be numbers"),
        ("video", "duration_sec", 10 ** 400, "positive and finite"),
        ("event", "end_sec", 10 ** 400, "invalid times")])
    def test_eval_bool_or_huge_annotation_rejected(self, tmp_path, capsys,
                                                   where, key, value, needle):
        video = {"video_id": "v", "duration_sec": 10.0,
                 "events": [{"label": 0, "start_sec": 0.0, "end_sec": 1.0}]}
        (video if where == "video" else video["events"][0])[key] = value
        ann_path = tmp_path / "ann.json"
        ann_path.write_text(json.dumps({"class_names": ["a"], "videos": [video]}))
        pred_path = tmp_path / "none.json"
        dio.write_predictions({}, pred_path)
        rc = cli.main(["eval", "--predictions", str(pred_path),
                       "--annotations", str(ann_path)])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("error[annotation-format]") and needle in err

    def test_eval_bool_prediction_no_longer_scores(self, tmp_path, capsys):
        ann_path = tmp_path / "ann.json"
        ann_path.write_text(json.dumps({"class_names": ["a"], "videos": [
            {"video_id": "v", "duration_sec": 10.0,
             "events": [{"label": 0, "start_sec": 0.0, "end_sec": 1.0}]}]}))
        pred_path = tmp_path / "bools.json"
        pred_path.write_text(json.dumps({"videos": [{"video_id": "v", "detections": [
            {"label": 0, "score": True, "start_sec": False, "end_sec": True}]}]}))
        rc = cli.main(["eval", "--predictions", str(pred_path),
                       "--annotations", str(ann_path)])
        assert rc == 4
        assert "score must be in [0, 1]" in capsys.readouterr().err

    def test_eval_duplicate_class_names_rejected(self, tmp_path, capsys):
        ann_path = tmp_path / "ann.json"
        ann_path.write_text(json.dumps({"class_names": ["dog", "cat", "dog"], "videos": [
            {"video_id": "v", "duration_sec": 10.0,
             "events": [{"label": 0, "start_sec": 0.0, "end_sec": 1.0},
                        {"label": 2, "start_sec": 5.0, "end_sec": 6.0}]}]}))
        pred_path = tmp_path / "preds.json"
        dio.write_predictions({"v": [{"label": 0, "score": 0.9, "start_sec": 0.0,
                                      "end_sec": 1.0}]}, pred_path)
        rc = cli.main(["eval", "--predictions", str(pred_path),
                       "--annotations", str(ann_path)])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("error[annotation-format]")
        assert "duplicate class names: 'dog'" in err

    @pytest.mark.parametrize("how, needle", [
        ("short_audio", "more than one stride apart"),
        ("orphan_audio", "ghost.audio.tslf")])
    def test_train_unpaired_features_rejected(self, trained, tmp_path, capsys,
                                              how, needle):
        data = broken_copy(trained["data"], tmp_path / "data", how)
        out = tmp_path / "run"
        rc = cli.main(["train", "--data", str(data), "--out", str(out),
                       "--config", str(trained["config"])])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error[validation]") and needle in err
        assert not out.exists()

    def test_predict_duplicate_video_rejected(self, trained, tmp_path, capsys):
        data = broken_copy(trained["data"], tmp_path / "data", "duplicate_visual")
        out = tmp_path / "x.json"
        rc = cli.main(["predict", "--checkpoint", trained["ckpt"],
                       "--features", str(data / "features"),
                       "--out", str(out), "--config", str(trained["config"])])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error[validation]")
        assert "vid00000.copy.visual.tslf and vid00000.visual.tslf" in err
        assert not out.exists()

    def test_train_duplicate_video_rejected(self, trained, tmp_path, capsys):
        data = broken_copy(trained["data"], tmp_path / "data", "duplicate_visual")
        out = tmp_path / "run"
        rc = cli.main(["train", "--data", str(data), "--out", str(out),
                       "--config", str(trained["config"])])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error[validation]")
        assert "vid00000.copy.visual.tslf and vid00000.visual.tslf" in err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("sigma", 0.0), ("sigma", -1.0), ("sigma", float("nan")),
        ("pre_nms_topk", -5), ("pre_nms_topk", 0), ("max_out", 0),
        ("method", "linear"), ("iou_thresh", 1.5), ("iou_thresh", -0.1),
        ("iou_thresh", 0.0), ("iou_thresh", float("nan")),
        ("score_thresh", 1.5), ("score_thresh", -0.1), ("min_score", -0.001),
        ("min_score", float("nan")),
    ])
    def test_predict_bad_decode_config_exit_code(self, trained, tmp_path, capsys,
                                                  key, value):
        cfg = tiny_train_config()
        setattr(cfg.decode, key, value)
        bad_cfg = tmp_path / "bad.ini"
        save_config(cfg, bad_cfg)
        out = tmp_path / "x.json"
        rc = cli.main(["predict", "--checkpoint", trained["ckpt"],
                       "--features", str(trained["data"] / "features"),
                       "--out", str(out), "--config", str(bad_cfg)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error[config]") and key in err
        assert not out.exists()


class TestOutputErrors:
    """An output that cannot be written exits 4 with one error[io] line."""

    def check(self, argv, tmp_path, capsys, names=None):
        assert cli.main(argv) == 4
        captured = capsys.readouterr()
        err = captured.err
        assert err.startswith("error[io]: ") and err.count("\n") == 1
        assert not list(tmp_path.rglob("*.tmp"))
        if names is not None:   # the user's path, not a temporary file's
            assert err.rstrip().endswith(f"'{names}'") and ".tmp" not in err
            assert captured.out == ""   # failed before any work

    def test_gen_data_out_is_a_file(self, tmp_path, capsys):
        out = tmp_path / "file"
        out.write_text("keep")
        self.check(["gen-data", "--out", str(out), "--videos", "2"], tmp_path, capsys)
        assert tree_bytes(tmp_path) == {"file": b"keep"}

    def test_train_out_is_a_file(self, trained, tmp_path, capsys):
        out = tmp_path / "file"
        out.write_text("keep")
        self.check(["train", "--data", str(trained["data"]), "--out", str(out),
                    "--config", str(trained["config"])], tmp_path, capsys)
        assert tree_bytes(tmp_path) == {"file": b"keep"}

    @pytest.mark.parametrize("where", ["dir", "missing/x.json"])
    def test_predict_out_cannot_be_written(self, trained, tmp_path, capsys,
                                           monkeypatch, where):
        calls = []
        original = cli.predict_intervals

        def counted(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(cli, "predict_intervals", counted)
        (tmp_path / "dir").mkdir()
        out = tmp_path / where
        self.check(["predict", "--checkpoint", trained["ckpt"],
                    "--features", str(trained["data"] / "features"),
                    "--out", str(out), "--config", str(trained["config"])],
                   tmp_path, capsys, names=out)
        assert calls == []
        assert [p.name for p in tmp_path.iterdir()] == ["dir"]
        assert not any((tmp_path / "dir").iterdir())

    @pytest.mark.parametrize("where", ["dir", "missing/x.json"])
    def test_eval_out_cannot_be_written(self, tiny_dataset, tmp_path, capsys,
                                        monkeypatch, where):
        calls = []
        monkeypatch.setattr(cli, "mean_ap", lambda *a, **k: calls.append(1))
        preds = tmp_path / "preds.json"
        dio.write_predictions({}, preds)
        (tmp_path / "dir").mkdir()
        out = tmp_path / where
        self.check(["eval", "--predictions", str(preds),
                    "--annotations", str(tiny_dataset / "annotations.json"),
                    "--out", str(out)], tmp_path, capsys, names=out)
        assert calls == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "preds.json"]
        assert not any((tmp_path / "dir").iterdir())

    @pytest.mark.parametrize("where", ["dir", "missing/x.json"])
    def test_atomic_write_names_the_target(self, tmp_path, where):
        (tmp_path / "dir").mkdir()
        target = tmp_path / where
        with pytest.raises(OSError) as info:
            with dio.atomic_write(target) as fh:
                fh.write(b"x")
        assert info.value.filename == str(target)
        assert ".tmp" not in str(info.value)
        assert not list(tmp_path.rglob("*.tmp"))


class TestPinnedOutputBytes:
    """gen-data, predict with seed-0 desk weights, then eval, on a tiny
    seeded dataset, and gen-data then train: the SHA-256 of each output
    file is pinned, so a change that moves any of their bytes fails here."""

    DIGESTS = {
        "data/annotations.json":
            "a73c23cbee7a729ba73f76c4914012f7ecfa81cb0f568eea207175e5f8ed4c11",
        "predictions.json":
            "661377c5aaf9ce7676512e769bb01ba784aac8ef79db8615e8277c7732f4010a",
        "report.json":
            "556ed84b05c8f67786a75cf420f9bc04b830cf21a7d9a2b18cff754814e1565d",
    }

    def test_gen_data_predict_eval_digests(self, tmp_path):
        data = tmp_path / "data"
        assert cli.main(["gen-data", "--out", str(data), "--videos", "4",
                         "--duration", "64", "--seed", "11"]) == 0
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(init_model_arrays(desk_scale_config().model, 0), ckpt)
        assert cli.main(["predict", "--checkpoint", str(ckpt),
                         "--features", str(data / "features"),
                         "--out", str(tmp_path / "predictions.json")]) == 0
        assert cli.main(["eval", "--predictions", str(tmp_path / "predictions.json"),
                         "--annotations", str(data / "annotations.json"),
                         "--out", str(tmp_path / "report.json")]) == 0
        assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                for name in self.DIGESTS} == self.DIGESTS

    # the last epoch checkpoint of a 2-epoch desk-preset run with weight
    # decay on, as training wrote it when it kept one array per parameter
    TRAIN_DIGEST = "edb5b52138eacb6e031e202dbdc484797d16aa729ec3dbb77a7544a0c2b12ee6"

    def test_train_digest_with_clipping_on_some_steps(self, tmp_path):
        data, run = tmp_path / "data", tmp_path / "run"
        assert cli.main(["gen-data", "--out", str(data), "--videos", "6",
                         "--duration", "64", "--seed", "1",
                         "--split-counts", "6", "0", "0"]) == 0
        cfg = desk_scale_config()
        cfg.epochs, cfg.warmup_epochs, cfg.grad_clip = 2, 1, 3.0
        assert cfg.weight_decay > 0
        save_config(cfg, tmp_path / "c.ini")
        assert cli.main(["train", "--data", str(data), "--out", str(run),
                         "--config", str(tmp_path / "c.ini")]) == 0
        # pre-clip norms 3.29, 3.24, 2.94 in epoch 0 and 2.27, 2.51, 2.21
        # in epoch 1: clipping fires on the first two steps only
        epochs = json.loads((run / "manifest.json").read_text())["epochs"]
        assert [e["clipped_steps"] for e in epochs] == [2, 0]
        assert epochs[0]["grad_norm_max"] > cfg.grad_clip > epochs[1]["grad_norm_max"]
        ckpt = run / "checkpoints" / "epoch_001.ckpt"
        assert hashlib.sha256(ckpt.read_bytes()).hexdigest() == self.TRAIN_DIGEST


class TestSettingSurface:
    """Every setting a user can give, pinned: adding or dropping one is a
    deliberate edit here."""

    def test_command_line_options(self):
        parser = cli.build_parser()
        (commands,) = [a.choices for a in parser._actions if a.choices]
        got = {name: [o for a in sub._actions for o in a.option_strings
                      if o not in ("-h", "--help")]
               for name, sub in commands.items()}
        assert got == {
            "gen-data": ["--out", "--videos", "--classes", "--dim-visual",
                         "--dim-audio", "--duration", "--stride", "--snr",
                         "--events", "--event-length", "--seed",
                         "--split-counts", "--force"],
            "train": ["--data", "--out", "--config", "--seed"],
            "predict": ["--checkpoint", "--features", "--out", "--config"],
            "eval": ["--predictions", "--annotations", "--out"],
        }

    def test_config_file_keys(self):
        got = {name: list(config_mod._values(obj))
               for name, obj in config_mod._sections(TrainConfig()).items()}
        assert got == {
            "train": ["learning_rate", "batch_size", "epochs", "warmup_epochs",
                      "weight_decay", "grad_clip", "seed", "lambda_reg"],
            "model": ["num_classes", "range_base", "prior_prob"],
            "backbone": ["input_dim", "d_model", "num_blocks", "window",
                         "num_heads", "mlp_ratio", "stride_schedule",
                         "layerscale_init"],
            "decode": ["score_thresh", "pre_nms_topk", "method", "sigma",
                       "iou_thresh", "min_score", "max_out"],
        }

    def test_readme_config_example_is_the_desk_preset(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        (example,) = re.findall(r"```ini\n(.*?)```", readme, re.S)
        path = tmp_path / "readme.ini"
        path.write_text(example)
        assert load_config(path) == desk_scale_config()
