"""Tests for the command-line interface, config files and training loop."""

import gc
import json
import math
import weakref
from pathlib import Path

import numpy as np
import pytest

from soundloc import autodiff as ad
from soundloc import cli
from soundloc import model as model_mod
from soundloc import data as dio
from soundloc.backbone import BackboneConfig
from soundloc.config import TrainConfig, desk_scale_config, load_config, save_config
from soundloc.datasets import load_dataset, write_dataset
from soundloc.errors import CheckpointError, ConfigError, NumericError
from soundloc.model import (
    ModelConfig,
    check_checkpoint_shapes,
    init_model_arrays,
    load_checkpoint,
    predict_intervals,
    save_checkpoint,
)
from soundloc.train import lr_at, train, train_step


def tiny_spec(**kw):
    base = dict(num_videos=8, duration_sec=32.0, num_classes=3, dim_visual=8,
                dim_audio=4, stride_sec=1.0, events_per_video=(1, 2),
                event_length_sec=(4.0, 10.0), signal_to_noise=5.0, seed=3)
    base.update(kw)
    return dio.SyntheticSpec(**base)


def tiny_train_config(**kw):
    backbone = BackboneConfig(input_dim=12, d_model=16, num_blocks=3,
                              window=5, num_heads=2, stride_schedule=(1, 2, 2),
                              msa_residual=True)
    cfg = TrainConfig(learning_rate=1e-3, batch_size=2, epochs=2,
                      warmup_epochs=1,
                      model=ModelConfig(backbone=backbone, num_classes=3))
    for k, v in kw.items():
        setattr(cfg, k, v)
    return cfg


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("tinyds")
    write_dataset(root, tiny_spec(), split_counts=(4, 2, 2))
    return root


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

    def test_refuses_nonempty_without_force(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert cli.main(["gen-data", "--out", str(out), "--videos", "2"]) == 0
        assert cli.main(["gen-data", "--out", str(out), "--videos", "2"]) == 2
        assert "error[validation]" in capsys.readouterr().err
        assert cli.main(["gen-data", "--out", str(out), "--videos", "2",
                         "--force"]) == 0


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

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[optimizer]\nlr = 0.1\n")
        with pytest.raises(ConfigError, match="optimizer"):
            load_config(path)

    def test_warmup_exceeding_epochs_rejected(self):
        cfg = tiny_train_config(epochs=1, warmup_epochs=5)
        with pytest.raises(ConfigError, match="warmup"):
            cfg.validate()

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/config.ini")


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


class TestTraining:
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
            manifest = train(cfg, ds, tmp_path / f"seed{seed}", val_split="none")
            totals = [e["mean_total"] for e in manifest.epochs]
            if all(b < a for a, b in zip(totals, totals[1:])):
                good += 1
        assert good >= 9, f"only {good}/10 seeds decreased monotonically"

    def test_nan_loss_aborts_with_batch_id(self, tiny_dataset, tmp_path, monkeypatch):
        from soundloc import train as train_mod

        def poisoned(arrays, cfg, batch, dataset, assignments, lambda_reg):
            grads = {k: np.zeros_like(v) for k, v in arrays.items()}
            return grads, {"total": float("nan"), "l_cls": 0.0,
                           "l_reg": 0.0, "t_plus": 0}

        monkeypatch.setattr(train_mod, "train_step", poisoned)
        ds = load_dataset(tiny_dataset)
        with pytest.raises(NumericError, match="epoch 0 batch 0"):
            train_mod.train(tiny_train_config(), ds, tmp_path / "nanrun")


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
                ds.videos("train")[:2], ds, {}, cfg.lambda_reg)
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

    def test_truncated_checkpoint_rejected(self, tmp_path):
        cfg = tiny_train_config()
        path = tmp_path / "m.ckpt"
        save_checkpoint(init_model_arrays(cfg.model, 0), path)
        path.write_bytes(path.read_bytes()[:50])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


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

    def test_device_must_be_cpu(self, trained, tmp_path, capsys):
        rc = cli.main(["predict", "--checkpoint", trained["ckpt"],
                       "--features", str(trained["data"] / "features"),
                       "--out", str(tmp_path / "x.json"),
                       "--config", str(trained["config"]),
                       "--device", "cuda"])
        assert rc == 2
        assert "error[validation]" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("sigma", 0.0), ("sigma", -1.0), ("sigma", float("nan")),
        ("pre_nms_topk", -5), ("pre_nms_topk", 0), ("max_out", 0),
        ("method", "linear"), ("iou_thresh", 1.5), ("iou_thresh", -0.1),
        ("score_thresh", 1.5), ("score_thresh", -0.1), ("min_score", -0.001),
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
