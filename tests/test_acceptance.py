"""Acceptance suite: the exit criteria for this artifact, one test each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion. Tolerances are pinned here and nowhere else.
"""

import time

import numpy as np
import pytest

from soundloc import autodiff as ad
from soundloc import cli
from soundloc import data as dio
from soundloc import params as pr
from soundloc.backbone import BackboneConfig, build_pyramid, init_backbone_params
from soundloc.config import desk_scale_config, save_config
from soundloc.datasets import load_dataset, write_dataset
from soundloc.errors import FeatureFileError, AnnotationFormatError
from soundloc.evaluate import average_over_thresholds, average_precision, oracle_ap
from soundloc.heads import generate_points, init_head_params, run_heads
from soundloc.losses import assign_targets, diou_loss, focal_loss, total_loss
from soundloc.model import init_model_arrays
from soundloc.train import evaluate_on, train
from tests.test_eval import random_instance


def report(n, name, detail=""):
    print(f"\n[criterion {n}] {name}: PASS {detail}")


# ---------------------------------------------------------------------------
# criterion 1: gradient suite


def composed_model_pieces(seed=0):
    cfg = BackboneConfig(input_dim=6, d_model=8, num_blocks=2, window=5,
                         num_heads=2, stride_schedule=(1, 2))
    rng = np.random.default_rng(seed)
    arrays = init_backbone_params(cfg, rng)
    arrays.update(init_head_params(8, 3, rng))
    # check at generic parameter values: the structured init (zero biases,
    # uniform tiny branch scales) parks whole layers of ReLU inputs at the
    # kink, where pointwise derivatives and difference quotients disagree
    jitter = np.random.default_rng(seed + 100)
    for name, arr in arrays.items():
        arrays[name] = (arr + jitter.normal(0, 0.05, size=arr.shape)
                        ).astype(np.float32)
    ann = dio.AnnotationSet("v", 12.0, [dio.Event(1, 2.0, 7.0)],
                            ["a", "b", "c"])
    x0 = np.random.default_rng(1).normal(size=(12, 6))
    return cfg, arrays, ann, x0


def composed_loss(x, arrays, cfg, ann):
    p = pr.bind(x.tape, arrays)
    pyr = build_pyramid(x, p, cfg)
    pts = generate_points(pyr)
    head_out = run_heads(pyr, p)
    a = assign_targets(pts, ann, 1.0, 3)
    total, _ = total_loss(head_out, a)
    return total


def test_criterion_1_gradient_suite():
    t0 = time.perf_counter()
    worst_ops = 0.0

    rng = np.random.default_rng(0)
    other = rng.normal(size=(4, 8)) + 3.0
    gamma, beta = rng.normal(size=8) + 1.0, rng.normal(size=8)
    mask = rng.random((4, 8)) > 0.25
    mask[:, 0] = True
    mm_rhs = rng.normal(size=(8, 5))
    mm_lhs = rng.normal(size=(5, 4))
    conv_k = rng.normal(size=(3, 8, 4))
    sq = lambda v: ad.sum_all(ad.square(v))
    cases = {
        "add": lambda v: sq(ad.add(v, v.tape.constant(other))),
        "sub": lambda v: sq(ad.sub(v.tape.constant(other), v)),
        "mul": lambda v: sq(ad.mul(v, v.tape.constant(other))),
        "div": lambda v: sq(ad.div(v, v.tape.constant(other))),
        "minimum": lambda v: sq(ad.minimum(v, v.tape.constant(other))),
        "maximum": lambda v: sq(ad.maximum(v.tape.constant(other), v)),
        "neg": lambda v: sq(ad.neg(v)),
        "relu": lambda v: sq(ad.relu(ad.add(v, v.tape.constant(0.05)))),
        "gelu": lambda v: sq(ad.gelu(v)),
        "sigmoid": lambda v: sq(ad.sigmoid(v)),
        "softplus": lambda v: sq(ad.softplus(v)),
        "exp": lambda v: sq(ad.exp(v)),
        "log": lambda v: sq(ad.log(ad.add(ad.mul(v, v), v.tape.constant(0.5)))),
        "square": lambda v: sq(ad.square(v)),
        "pow": lambda v: sq(ad.pow_const(ad.add(ad.square(v),
                                                v.tape.constant(0.5)), 2.5)),
        "matmul_lhs": lambda v: sq(ad.matmul(v, v.tape.constant(mm_rhs))),
        "matmul_rhs": lambda v: sq(ad.matmul(v.tape.constant(mm_lhs), v)),
        "conv1d_s1": lambda v: sq(ad.conv1d(v, v.tape.constant(conv_k), stride=1)),
        "conv1d_s2": lambda v: sq(ad.conv1d(v, v.tape.constant(conv_k), stride=2)),
        "layer_norm": lambda v: sq(ad.layer_norm(
            v, v.tape.constant(gamma), v.tape.constant(beta))),
        "softmax": lambda v: sq(ad.softmax_lastdim(v)),
        "softmax_masked": lambda v: sq(ad.softmax_lastdim(v, mask=mask)),
        "transpose": lambda v: sq(ad.transpose(v)),
        "reshape": lambda v: sq(ad.reshape(v, (8, 4))),
        "slice_concat": lambda v: sq(ad.concat_cols(
            [ad.slice_cols(v, 0, 3), ad.slice_cols(v, 3, 8)])),
        "sum": lambda v: ad.square(ad.sum_all(v)),
        "mean": lambda v: ad.square(ad.mean_all(v)),
        "focal": lambda v: focal_loss(v, (np.random.default_rng(9)
                                          .random((4, 8)) < 0.3))[1],
        "diou": lambda v: ad.sum_all(diou_loss(
            ad.softplus(v), np.abs(other[:, :2]) + 0.1)),
    }
    for name, fn in cases.items():
        for seed in range(2):
            x = np.random.default_rng(10 + seed).normal(size=(4, 8))
            err = ad.grad_check(fn, x)
            worst_ops = max(worst_ops, err)
            assert err <= 1e-4, f"{name} (seed {seed}): {err}"

    # composed 2-block backbone + heads + full objective at T=12, width 8,
    # C=3. The objective is non-differentiable on a measure-zero set (ReLU
    # kinks, interval ties); a probe step that happens to straddle a kink
    # reports a spurious O(h) error that vanishes at another step, while a
    # genuine gradient bug fails at every step. Probe at 1e-6 and retry
    # offenders at neighboring steps.
    def model_grad_err(f, x):
        err = ad.grad_check(f, x, h=1e-6)
        if err > 1e-4:
            err = min(err, ad.grad_check(f, x, h=1e-7),
                      ad.grad_check(f, x, h=1e-5))
        return err

    cfg, arrays, ann, x0 = composed_model_pieces()
    worst_model = model_grad_err(lambda v: composed_loss(v, arrays, cfg, ann), x0)
    assert worst_model <= 1e-4

    for pname in sorted(arrays):
        others = dict(arrays)
        base = others.pop(pname)

        def f(v, _pname=pname, _others=others):
            p = pr.bind(v.tape, _others)
            p[_pname] = v  # the checked parameter is the differentiated leaf
            pyr = build_pyramid(v.tape.constant(x0), p, cfg)
            pts = generate_points(pyr)
            head_out = run_heads(pyr, p)
            a = assign_targets(pts, ann, 1.0, 3)
            total, _ = total_loss(head_out, a)
            return total

        err = model_grad_err(f, base)
        worst_model = max(worst_model, err)
        assert err <= 1e-4, f"parameter {pname}: {err}"

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"
    report(1, "gradient suite",
           f"(ops worst {worst_ops:.2e}, model worst {worst_model:.2e}, "
           f"{elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 2: closed-form loss oracles


def test_criterion_2_loss_oracles():
    t = ad.Tape(dtype=np.float64)
    _, pos = focal_loss(t.leaf(np.zeros((1, 1))), np.ones((1, 1)))
    assert abs(float(pos.values) - 0.043322) <= 1e-6
    _, neg = focal_loss(t.leaf(np.zeros((1, 1))), np.zeros((1, 1)))
    assert abs(float(neg.values) - 0.129965) <= 1e-6

    def diou_val(pred, target):
        tape = ad.Tape(dtype=np.float64)
        return float(diou_loss(tape.leaf(np.asarray(pred, dtype=float)),
                               np.asarray(target, dtype=float)).values)

    # intervals [1,3] vs [2,4] expressed as boundary distances around t=2
    assert abs(diou_val([1.0, 1.0], [0.0, 2.0]) - 7.0 / 9.0) <= 1e-9
    assert diou_val([1.25, 0.75], [1.25, 0.75]) == 0.0

    rng = np.random.default_rng(42)
    pred = np.array([0.8, 1.7])
    tgt = np.array([1.1, 0.6])
    base = diou_val(pred, tgt)
    worst = 0.0
    for _ in range(100):
        k = float(rng.uniform(1e-3, 1e3))
        worst = max(worst, abs(diou_val(pred * k, tgt * k) - base))
    assert worst <= 1e-9
    report(2, "closed-form loss oracles", f"(scale drift {worst:.2e})")


# ---------------------------------------------------------------------------
# criterion 3: mAP oracle equivalence and reported averaging


def test_criterion_3_map_oracle_and_averaging():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        preds, gts = random_instance(rng)
        for tau in (0.1, 0.2, 0.3, 0.4, 0.5):
            a = average_precision(preds, gts, tau)
            b = oracle_ap(preds, gts, tau)
            assert a == b, f"seed {seed} tau {tau}: {a!r} != {b!r}"

    weak = average_over_thresholds([0.162, 0.135, 0.108, 0.084, 0.058])
    assert f"{100.0 * weak:.1f}" == "10.9"
    fused = average_over_thresholds([0.188, 0.176, 0.159, 0.139, 0.113])
    assert f"{100.0 * fused:.1f}" == "15.5"
    report(3, "mAP oracle equivalence (100 instances exact) and averaging")


# ---------------------------------------------------------------------------
# criterion 4: pyramid shape law and locality


def test_criterion_4_shape_law_and_locality():
    cfg = BackboneConfig(input_dim=4, d_model=8, num_heads=1)  # default 3+6
    arrays = init_backbone_params(cfg, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    for t in range(8, 513):
        tape = ad.Tape(dtype=np.float32)
        p = pr.bind(tape, arrays)
        x = tape.constant(rng.normal(size=(t, 4)).astype(np.float32))
        pyr = build_pyramid(x, p, cfg)
        lengths = pyr.lengths
        assert pyr.strides == [1, 2, 4, 8, 16, 32, 64]
        assert lengths[0] == t
        for prev, cur in zip(lengths, lengths[1:]):
            assert cur == -(-prev // 2), f"T={t}: {lengths}"

    # locality at window 3, one full-resolution block
    loc_cfg = BackboneConfig(input_dim=4, d_model=8, num_heads=2,
                             num_blocks=1, stride_schedule=(1,), window=3)
    loc_arrays = init_backbone_params(loc_cfg, np.random.default_rng(2))
    loc_arrays["block0.scale_attn"][:] = 1.0
    loc_arrays["block0.scale_mlp"][:] = 1.0
    x0 = np.random.default_rng(3).normal(size=(40, 4))

    def run(xv):
        tape = ad.Tape(dtype=np.float64)
        p = pr.bind(tape, loc_arrays)
        return build_pyramid(tape.constant(xv), p, loc_cfg).levels[0].features.values

    base = run(x0)
    hit = 20
    bumped = x0.copy()
    bumped[hit] += 1.0
    moved = np.abs(run(bumped) - base).max(axis=1)
    reach = 3 // 2 + 2  # attention half-window plus two kernel-3 conv halos
    assert (moved[:hit - reach] <= 1e-9).all()
    assert (moved[hit + reach + 1:] <= 1e-9).all()
    report(4, "pyramid shape law (T in [8, 512]) and locality at w=3")


# ---------------------------------------------------------------------------
# criterion 5: end-to-end learning on synthetic data


@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("desk")
    spec = dio.SyntheticSpec(num_videos=96, duration_sec=64.0, num_classes=5,
                             dim_visual=32, dim_audio=8, stride_sec=1.0,
                             events_per_video=(1, 3),
                             event_length_sec=(6.0, 16.0),
                             signal_to_noise=5.0, seed=7)
    write_dataset(root / "data", spec, split_counts=(64, 16, 16))
    dataset = load_dataset(root / "data")

    cfg = desk_scale_config()
    cfg.epochs = 12
    t0 = time.perf_counter()
    manifest = train(cfg, dataset, root / "run")
    train_time = time.perf_counter() - t0
    return {"root": root, "dataset": dataset, "cfg": cfg,
            "manifest": manifest, "train_time": train_time}


def test_criterion_5_end_to_end_learning(desk_run):
    cfg = desk_run["cfg"]
    dataset = desk_run["dataset"]
    assert len(dataset.splits["train"]) == 64
    test_ids = dataset.videos("test")
    assert len(test_ids) == 16

    assert desk_run["train_time"] <= 600.0, \
        f"training took {desk_run['train_time']:.0f}s"

    untrained = init_model_arrays(cfg.model, cfg.seed)
    base_report, _ = evaluate_on(untrained, cfg.model, dataset, test_ids,
                                 cfg.decode)
    assert base_report.average_map <= 0.15, base_report.map_per_threshold

    from soundloc.model import load_checkpoint, predict_intervals
    trained = load_checkpoint(desk_run["manifest"].best_checkpoint)
    report_t, _ = evaluate_on(trained, cfg.model, dataset, test_ids, cfg.decode)
    assert report_t.average_map >= 0.50, report_t.map_per_threshold
    assert report_t.average_map >= 3.0 * max(base_report.average_map, 1e-9)

    # inference stays interactive: 8 videos decode in well under 30 s
    t0 = time.perf_counter()
    for vid in test_ids[:8]:
        predict_intervals(trained, cfg.model, dataset.fused[vid], cfg.decode)
    predict_time = time.perf_counter() - t0
    assert predict_time < 30.0, f"prediction took {predict_time:.1f}s"

    report(5, "end-to-end learning",
           f"(test mAP {report_t.average_map:.3f} vs untrained "
           f"{base_report.average_map:.3f}, train {desk_run['train_time']:.0f}s, "
           f"8-video predict {predict_time:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 6: full-pipeline determinism


def test_criterion_6_pipeline_determinism(tmp_path):
    gen_flags = ["--videos", "10", "--classes", "3", "--dim-visual", "8",
                 "--dim-audio", "4", "--duration", "32", "--seed", "11",
                 "--split-counts", "6", "2", "2"]
    for name in ("a", "b"):
        assert cli.main(["gen-data", "--out", str(tmp_path / name)]
                        + gen_flags) == 0
    files_a = sorted((tmp_path / "a").rglob("*"))
    files_b = sorted((tmp_path / "b").rglob("*"))
    assert [f.name for f in files_a if f.is_file()] == \
           [f.name for f in files_b if f.is_file()]
    for fa, fb in zip(files_a, files_b):
        if fa.is_file():
            assert fa.read_bytes() == fb.read_bytes(), fa.name

    from tests.test_cli import tiny_train_config
    cfg = tiny_train_config(epochs=2)
    cfg.model.backbone.input_dim = 12
    cfg_path = tmp_path / "config.ini"
    save_config(cfg, cfg_path)

    outputs = []
    for run in ("r1", "r2"):
        ds = load_dataset(tmp_path / "a")
        manifest = train(cfg, ds, tmp_path / run)
        pred_path = tmp_path / f"{run}.preds.json"
        rc = cli.main(["predict", "--checkpoint", manifest.best_checkpoint,
                       "--features", str(tmp_path / "a" / "features"),
                       "--out", str(pred_path), "--config", str(cfg_path)])
        assert rc == 0
        rep_path = tmp_path / f"{run}.report.json"
        rc = cli.main(["eval", "--predictions", str(pred_path),
                       "--annotations", str(tmp_path / "a" / "annotations.json"),
                       "--out", str(rep_path)])
        assert rc == 0
        outputs.append((pred_path.read_bytes(), rep_path.read_bytes()))

    assert outputs[0][0] == outputs[1][0], "prediction JSON differs between runs"
    assert outputs[0][1] == outputs[1][1], "eval report differs between runs"
    report(6, "pipeline determinism (byte-identical predictions and report)")


# ---------------------------------------------------------------------------
# criterion 7: format robustness under fuzzing


def test_criterion_7_format_robustness(tmp_path):
    seq = dio.FeatureSequence(
        "vid00000", "visual", 0.96,
        np.random.default_rng(0).normal(size=(13, 4)).astype(np.float32))
    tslf_path = tmp_path / "f.tslf"
    dio.save_features(seq, tslf_path)
    tslf_blob = tslf_path.read_bytes()

    ann_path = tmp_path / "a.json"
    dio.save_annotations(
        [dio.AnnotationSet("vid00000", 10.0,
                           [dio.Event(0, 1.0, 4.0), dio.Event(1, 2.0, 9.0)],
                           ["x", "y"])], ann_path)
    ann_blob = ann_path.read_bytes()

    rng = np.random.default_rng(99)

    def corrupt(blob, case):
        blob = bytearray(blob)
        if case % 2 == 0:
            return bytes(blob[:int(rng.integers(0, len(blob)))])
        for _ in range(int(rng.integers(1, 4))):
            pos = int(rng.integers(0, len(blob)))
            blob[pos] ^= 1 << int(rng.integers(0, 8))
        return bytes(blob)

    rejected = accepted = 0
    for case in range(1000):
        tslf_path.write_bytes(corrupt(tslf_blob, case))
        try:
            loaded = dio.load_features(tslf_path)
        except FeatureFileError:
            rejected += 1
        else:
            accepted += 1
            assert np.isfinite(loaded.data).all()
            assert loaded.data.shape[0] >= 1 and loaded.data.shape[1] >= 1
            assert loaded.stride_sec > 0

    for case in range(1000):
        ann_path.write_bytes(corrupt(ann_blob, case))
        try:
            anns = dio.load_annotations(ann_path)
        except AnnotationFormatError:
            rejected += 1
        else:
            accepted += 1
            for a in anns:
                a.validate()

    assert rejected > 0
    report(7, "format robustness",
           f"({rejected} rejected with typed errors, {accepted} parsed valid)")
