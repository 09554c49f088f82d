"""Tests for interval recovery and soft suppression.

The column decoders are checked for exact equality against the
one-candidate-at-a-time oracles below, which build an Interval per candidate
and re-sort the survivors after every pick.
"""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from soundloc import autodiff as ad
from soundloc import decode
from soundloc import params as pr
from soundloc.config import desk_scale_config
from soundloc.data import (
    FeatureSequence,
    SyntheticSpec,
    fuse_features,
    generate_synthetic,
)
from soundloc.datasets import Dataset, load_dataset, write_dataset
from soundloc.decode import (
    Candidates,
    DecodeConfig,
    Interval,
    recover_intervals,
    select_top_k,
    soft_nms,
)
from soundloc.errors import ConfigError, ValidationError
from soundloc.evaluate import tiou
from soundloc.backbone import build_pyramid
from soundloc.heads import HeadOutput, generate_points, run_heads
from soundloc.model import (
    forward_video,
    init_model_arrays,
    load_checkpoint,
    predict_intervals,
)
from soundloc.train import evaluate_on, train
from tests import level_oracles
from tests.level_oracles import LevelPoints


def sort_key(iv):
    return (-iv.score, iv.start_sec, iv.label_id, iv.end_sec)


def oracle_recover_intervals(head_out, points, stride_sec, duration_sec,
                             score_thresh=DecodeConfig.score_thresh,
                             pre_nms_topk=DecodeConfig.pre_nms_topk):
    """recover_intervals with one Interval per candidate, sorted, then cut."""
    out = []
    probs = 1.0 / (1.0 + np.exp(-np.asarray(head_out.cls_logits.values,
                                            dtype=np.float64)))
    d = np.asarray(head_out.distances.values, dtype=np.float64)
    starts = np.clip((points.timestamps - d[:, 0] * points.strides) * stride_sec,
                     0.0, duration_sec)
    ends = np.clip((points.timestamps + d[:, 1] * points.strides) * stride_sec,
                   0.0, duration_sec)
    keep_pt, keep_cls = np.nonzero(probs >= score_thresh)
    for i, c in zip(keep_pt, keep_cls):
        if starts[i] >= ends[i]:
            continue
        out.append(Interval("v", int(c), float(probs[i, c]),
                            float(starts[i]), float(ends[i])))
    out.sort(key=sort_key)
    return out[:pre_nms_topk]


def oracle_soft_nms(preds, sigma=DecodeConfig.sigma, method=DecodeConfig.method,
                    iou_thresh=DecodeConfig.iou_thresh,
                    min_score=DecodeConfig.min_score, max_out=DecodeConfig.max_out):
    """soft_nms one group and one candidate at a time, scored with tiou."""
    groups = {}
    for p in preds:
        groups.setdefault((p.video_id, p.label_id), []).append(p)
    survivors = []
    for key in sorted(groups):
        remaining = sorted(groups[key], key=sort_key)
        kept = 0
        while remaining and kept < max_out:
            best = remaining.pop(0)
            survivors.append(best)
            kept += 1
            rescored = []
            for other in remaining:
                iou = tiou(best, other)
                if method == "gaussian":
                    new_score = other.score * math.exp(-(iou * iou) / sigma)
                else:
                    new_score = 0.0 if iou >= iou_thresh else other.score
                if new_score >= min_score:
                    rescored.append(other._replace(score=new_score))
            rescored.sort(key=sort_key)
            remaining = rescored
    survivors.sort(key=lambda p: (p.video_id,) + sort_key(p))
    return survivors


def iv(score, start, end, label=0):
    return Interval("v", label, score, start, end)


def columns(preds):
    """One video's Intervals as Candidates, in list order."""
    return Candidates(np.array([p.label_id for p in preds], dtype=np.int64),
                      np.array([p.score for p in preds], dtype=np.float64),
                      np.array([p.start_sec for p in preds], dtype=np.float64),
                      np.array([p.end_sec for p in preds], dtype=np.float64))


def intervals_of(cands):
    """Candidates rows as Intervals of video "v", in row order."""
    return [Interval("v", c, s, a, b) for c, s, a, b in zip(
        cands.label.tolist(), cands.score.tolist(), cands.start.tolist(),
        cands.end.tolist())]


def nms(preds, **kwargs):
    """soft_nms on one video's Intervals, its survivors as Intervals."""
    return intervals_of(soft_nms(columns(preds), DecodeConfig(**kwargs)))


def recover(head_out, points, stride_sec, duration_sec, **kwargs):
    return intervals_of(recover_intervals(head_out, points, stride_sec,
                                          duration_sec, DecodeConfig(**kwargs)))


def head_output_from_arrays(logits, dist):
    tape = ad.Tape(dtype=np.float64)
    return HeadOutput(tape.constant(np.asarray(logits, dtype=float)),
                      tape.constant(np.asarray(dist, dtype=float)))


def level_output(levels):
    """Per-level points and heads from (stride, logits, dist) per level."""
    tape = ad.Tape(dtype=np.float64)
    points, logits, dists = [], [], []
    for stride, lg, dist in levels:
        t = len(lg)
        points.append(LevelPoints((np.arange(t) + 0.5) * stride, stride, 0.0, math.inf))
        logits.append(tape.constant(np.asarray(lg, dtype=float)))
        dists.append(tape.constant(np.asarray(dist, dtype=float).reshape(t, 2)))
    return points, level_oracles.LevelHeads(logits, None, dists)


def multi_level_output(levels):
    """PointSet and HeadOutput from (stride, logits, dist) per level."""
    return level_oracles.flatten(*level_output(levels))


def count_intervals(monkeypatch):
    """Counts the Intervals that soundloc.decode constructs."""
    built = []

    def counting(*args, **kwargs):
        built.append(1)
        return Interval(*args, **kwargs)

    monkeypatch.setattr(decode, "Interval", counting)
    return built


def count_lexsorts(monkeypatch):
    """Records the length of each np.lexsort call's keys until the test ends."""
    calls = []
    lexsort = np.lexsort

    def counting(keys, *args, **kwargs):
        calls.append(len(keys[0]))
        return lexsort(keys, *args, **kwargs)

    monkeypatch.setattr(np, "lexsort", counting)
    return calls


def count_rounds(monkeypatch):
    """Counts soft_nms's rounds, one np.maximum.reduceat call each, plus the
    set-up's call over the clusters' best scores when there are at least
    max_out clusters."""
    calls = []
    maximum = np.maximum

    class Counting:
        def __call__(self, *args, **kwargs):
            return maximum(*args, **kwargs)

        def accumulate(self, *args, **kwargs):
            return maximum.accumulate(*args, **kwargs)

        def reduceat(self, *args, **kwargs):
            calls.append(1)
            return maximum.reduceat(*args, **kwargs)

    monkeypatch.setattr(np, "maximum", Counting())
    return calls


def largest_cluster(cands):
    """Rows in the largest cluster: a class's rows by start, chained by
    overlap with an earlier row of the chain."""
    largest = 0
    for c in set(cands.label.tolist()):
        mine = cands.label == c
        order = np.argsort(cands.start[mine], kind="stable")
        size, reach = 0, -math.inf
        for a, b in zip(cands.start[mine][order].tolist(),
                        cands.end[mine][order].tolist()):
            if a < reach:
                size, reach = size + 1, max(reach, b)
            else:
                size, reach = 1, b
            largest = max(largest, size)
    return largest


def overlapping_pairs(cands):
    """Same-class pairs of rows that overlap: each decays at most once."""
    pairs = 0
    for c in set(cands.label.tolist()):
        mine = cands.label == c
        a, b = cands.start[mine], cands.end[mine]
        hit = (np.minimum(b[:, None], b) > np.maximum(a[:, None], a)).sum()
        pairs += (hit - a.size) // 2
    return pairs


def model_candidates(duration_sec, seed, events_per_video):
    """One synthetic video's candidates under untrained desk-preset weights,
    which put every point above the score threshold."""
    cfg = desk_scale_config()
    arrays = init_model_arrays(cfg.model, seed=0)
    (visual, audio), = generate_synthetic(SyntheticSpec(
        num_videos=1, duration_sec=duration_sec,
        events_per_video=events_per_video, seed=seed))[0]
    seq = fuse_features(visual, audio)
    tape = ad.Tape(dtype=np.float32, record=False)
    (points,), head_out = forward_video(pr.bind(tape, arrays), cfg.model,
                                        [seq.data], tape)
    return recover_intervals(head_out, points, seq.stride_sec, seq.duration_sec,
                             DecodeConfig())


@pytest.fixture(scope="module")
def trained_candidates(tmp_path_factory):
    """Candidates of the desk preset trained for 3 epochs on a seeded
    synthetic set: its 8 validation videos at T=64, then one T=2048 video
    with the same class signatures. A trained model scores a few dense
    clusters high, unlike untrained weights."""
    root = tmp_path_factory.mktemp("trained")
    write_dataset(root / "data", SyntheticSpec(num_videos=24, seed=7),
                  split_counts=(16, 8, 0))
    dataset = load_dataset(root / "data")
    cfg = desk_scale_config()
    cfg.epochs, cfg.warmup_epochs = 3, 1
    train(cfg, dataset, root / "run")
    arrays = load_checkpoint(root / "run" / "checkpoints" / "epoch_002.ckpt")
    (long,), _ = generate_synthetic(SyntheticSpec(
        num_videos=1, duration_sec=2048.0, events_per_video=(32, 64), seed=7))
    seqs = [dataset.fused[vid] for vid in dataset.videos("val")]
    out = []
    for seq in seqs + [fuse_features(*long)]:
        tape = ad.Tape(dtype=np.float32, record=False)
        (points,), head_out = forward_video(pr.bind(tape, arrays), cfg.model,
                                            [seq.data], tape)
        out.append(recover_intervals(head_out, points, seq.stride_sec,
                                     seq.duration_sec, DecodeConfig()))
    return out


def logit(p):
    return math.log(p / (1.0 - p))


class TestInterval:
    def test_rejects_empty_interval(self):
        with pytest.raises(ValidationError):
            iv(0.5, 2.0, 2.0)

    def test_rejects_bad_score(self):
        with pytest.raises(ValidationError):
            iv(1.5, 0.0, 1.0)

    @pytest.mark.parametrize("score", [math.nan, math.inf, -math.inf, -0.1, 1.1])
    def test_bad_score_message(self, score):
        with pytest.raises(ValidationError,
                           match=r"score must be finite in \[0, 1\], got"):
            iv(score, 0.0, 1.0)

    @pytest.mark.parametrize("start, end", [
        (math.nan, 1.0), (0.0, math.nan), (1.0, 1.0), (2.0, 1.0)])
    def test_bad_boundaries_message(self, start, end):
        with pytest.raises(ValidationError,
                           match=r"interval must have finite start < end, got"):
            iv(0.5, start, end)

    def test_slotted_and_frozen(self):
        x = iv(0.5, 0.0, 1.0)
        assert not hasattr(x, "__dict__")
        with pytest.raises(AttributeError):
            x.score = 0.7

    def test_replace_is_checked(self):
        x = iv(0.5, 0.0, 1.0)
        assert x._replace(score=0.7) == iv(0.7, 0.0, 1.0)
        with pytest.raises(ValidationError, match="score must be"):
            x._replace(score=1.5)
        with pytest.raises(ValidationError, match="finite start < end"):
            x._replace(end_sec=0.0)

    @pytest.mark.parametrize("start, end", [
        (0.0, math.inf), (-math.inf, 1.0), (-math.inf, math.inf)])
    def test_rejects_infinite_boundaries(self, start, end):
        with pytest.raises(ValidationError, match="finite start < end"):
            iv(0.9, start, end)

    def test_recover_with_infinite_duration_raises(self):
        points, head_out = multi_level_output([(1, [[2.0]], [1.0, math.inf])])
        with pytest.raises(ValidationError, match="finite start < end"):
            recover_intervals(head_out, points, 1.0, math.inf, DecodeConfig())


class TestRecoverIntervals:
    def single_point(self, t, stride, d_s, d_e, prob):
        points = level_oracles.flatten(
            [LevelPoints(np.array([float(t)]), stride, 0.0, math.inf)])
        out = head_output_from_arrays([[logit(prob)]], [[d_s, d_e]])
        return points, out

    def test_boundary_arithmetic(self):
        # t=4 grid units, d_s=1, d_e=2, stride 2, one second per unit
        points, out = self.single_point(4, 2, 1.0, 2.0, 0.9)
        got = recover(out, points, stride_sec=1.0, duration_sec=100.0)
        assert len(got) == 1
        assert (got[0].start_sec, got[0].end_sec) == (2.0, 8.0)
        np.testing.assert_allclose(got[0].score, 0.9, rtol=1e-9)

    def test_all_below_threshold(self):
        points, out = self.single_point(4, 1, 1.0, 1.0, 0.0005)
        assert len(recover(out, points, 1.0, 100.0)) == 0

    def test_start_clamps_at_zero(self):
        points, out = self.single_point(1, 1, 5.0, 1.0, 0.9)
        got = recover(out, points, 1.0, 100.0)
        assert got[0].start_sec == 0.0

    def test_zero_length_after_clamp_dropped(self):
        # both ends clamp to the duration bound
        points, out = self.single_point(9, 1, -0.0, 5.0, 0.9)
        assert len(recover(out, points, 1.0, duration_sec=8.0)) == 0

    def test_topk_keeps_best(self):
        points = level_oracles.flatten(
            [LevelPoints((np.arange(10) + 0.5), 1, 0.0, math.inf)])
        probs = np.linspace(0.1, 0.9, 10)[:, None]
        out = head_output_from_arrays(np.vectorize(logit)(probs),
                                      np.full((10, 2), 0.5))
        got = recover(out, points, 1.0, 100.0, pre_nms_topk=3)
        assert len(got) == 3
        assert got[0].score >= got[1].score >= got[2].score

    @pytest.mark.parametrize("topk", [0, -1, -5])
    def test_topk_below_one_rejected(self, topk):
        # DecodeConfig's rule, as soft_nms rejects max_out < 1: no cut
        # below 1 keeps an empty result, nor counts from the end
        points = level_oracles.flatten(
            [LevelPoints((np.arange(10) + 0.5), 1, 0.0, math.inf)])
        out = head_output_from_arrays(np.full((10, 1), logit(0.9)),
                                      np.full((10, 2), 0.5))
        assert len(recover(out, points, 1.0, 100.0)) == 10
        with pytest.raises(ConfigError, match="pre_nms_topk and max_out must be >= 1"):
            recover(out, points, 1.0, 100.0, pre_nms_topk=topk)


class TestSoftNms:
    def test_single_prediction_unchanged(self):
        p = [iv(0.7, 1.0, 3.0)]
        assert nms(p) == p

    def test_identical_pair_gaussian_decay(self):
        got = nms([iv(0.9, 1.0, 3.0), iv(0.8, 1.0, 3.0)], sigma=0.5)
        assert len(got) == 2
        np.testing.assert_allclose(got[1].score, 0.8 * math.exp(-2.0), rtol=1e-9)
        np.testing.assert_allclose(got[1].score, 0.10827, atol=5e-6)

    def test_disjoint_unchanged_both_methods(self):
        preds = [iv(0.9, 0.0, 1.0), iv(0.8, 5.0, 6.0)]
        for method in ("gaussian", "hard"):
            got = nms(preds, method=method)
            assert sorted(p.score for p in got) == [0.8, 0.9]

    def test_hard_thresh_one_removes_only_exact_duplicates(self):
        preds = [iv(0.9, 1.0, 3.0), iv(0.8, 1.0, 3.0), iv(0.7, 1.0, 2.9)]
        got = nms(preds, method="hard", iou_thresh=1.0)
        scores = sorted(p.score for p in got)
        assert scores == [0.7, 0.9]

    def test_hard_thresh_near_zero_keeps_disjoint_only(self):
        preds = [iv(0.9, 0.0, 2.0), iv(0.8, 1.0, 3.0), iv(0.7, 5.0, 6.0)]
        got = nms(preds, method="hard", iou_thresh=1e-9)
        scores = sorted(p.score for p in got)
        assert scores == [0.7, 0.9]

    def test_scores_never_increase_and_subset(self):
        rng = np.random.default_rng(0)
        preds = []
        for _ in range(40):
            s = float(rng.uniform(0, 8))
            preds.append(iv(float(rng.uniform(0.05, 1.0)), s,
                            s + float(rng.uniform(0.5, 3.0)),
                            label=int(rng.integers(0, 2))))
        got = nms(preds)
        by_key = {}
        for p in preds:
            by_key.setdefault((p.label_id, p.start_sec, p.end_sec), []).append(p.score)
        for q in got:
            originals = by_key[(q.label_id, q.start_sec, q.end_sec)]
            assert any(q.score <= orig + 1e-12 for orig in originals)
        assert len(got) <= len(preds)

    def test_order_permutation_invariance(self):
        rng = np.random.default_rng(3)
        preds = []
        for _ in range(25):
            s = float(rng.uniform(0, 8))
            preds.append(iv(float(rng.uniform(0.05, 1.0)), s,
                            s + float(rng.uniform(0.5, 3.0)),
                            label=int(rng.integers(0, 2))))
        base = nms(preds)
        perm = [preds[i] for i in rng.permutation(len(preds))]
        assert nms(perm) == base

    def test_per_class_no_cross_suppression(self):
        preds = [iv(0.9, 1.0, 3.0, label=0), iv(0.8, 1.0, 3.0, label=1)]
        got = nms(preds)
        assert sorted(p.score for p in got) == [0.8, 0.9]

    def test_unknown_method(self):
        with pytest.raises(ConfigError, match="method must be 'gaussian' or 'hard'"):
            nms([iv(0.5, 0.0, 1.0)], method="linear")

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan])
    def test_nonpositive_sigma_rejected(self, sigma):
        with pytest.raises(ConfigError):
            nms([iv(0.9, 0.0, 1.0), iv(0.8, 0.0, 1.0)], sigma=sigma)

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan])
    def test_nonpositive_sigma_rejected_in_hard_mode_too(self, sigma):
        # the config file's rule, which soft_nms checks: sigma is unused in
        # hard mode, but a bad one is still a ConfigError there
        with pytest.raises(ConfigError, match="sigma must be > 0"):
            nms([iv(0.9, 0.0, 1.0)], method="hard", sigma=sigma)
        with pytest.raises(ConfigError, match="sigma must be > 0"):
            DecodeConfig(method="hard", sigma=sigma).validate()

    @pytest.mark.parametrize("method", ["gaussian", "hard"])
    @pytest.mark.parametrize("key, value", [
        ("iou_thresh", 0.0), ("iou_thresh", -0.5), ("iou_thresh", 1.5),
        ("iou_thresh", math.nan), ("min_score", math.nan),
        # a setting that is not a number is a ConfigError, not a TypeError
        ("iou_thresh", "0.5"), ("iou_thresh", None), ("sigma", "x"),
        ("min_score", None), ("min_score", True), ("max_out", "3"),
        ("max_out", 2.5), ("max_out", None)])
    def test_thresh_outside_zero_one_rejected(self, monkeypatch, method, key,
                                              value):
        # a tIoU threshold is an overlap, in (0, 1]: at 0 disjoint rows
        # would count as overlapping. soft_nms checks DecodeConfig's rule,
        # in both modes, and fails before any work
        def forbidden(*args):
            raise AssertionError("no reach for bad settings")

        monkeypatch.setattr(decode, "_reach", forbidden)
        kwargs = {"method": method, key: value}
        with pytest.raises(ConfigError, match=key):
            nms([iv(0.9, 0.0, 1.0), iv(0.8, 5.0, 6.0)], **kwargs)
        with pytest.raises(ConfigError, match=key):
            DecodeConfig(**kwargs).validate()

    @pytest.mark.parametrize("key, value", [
        ("score_thresh", "0.1"), ("score_thresh", None), ("pre_nms_topk", "3"),
        ("pre_nms_topk", 2.5)])
    def test_recover_settings_not_numbers_rejected(self, key, value):
        points, out = multi_level_output([(1, [[2.0]], [1.0, 1.0])])
        with pytest.raises(ConfigError, match=key):
            recover(out, points, 1.0, 10.0, **{key: value})
        with pytest.raises(ConfigError, match=key):
            DecodeConfig(**{key: value}).validate()

    def test_max_out_cap(self):
        preds = [iv(0.5, float(i), float(i) + 0.5) for i in range(30)]
        got = nms(preds, max_out=10)
        assert len(got) == 10

    def test_input_columns_unchanged(self):
        cands = columns([iv(0.9, 1.0, 3.0), iv(0.8, 1.5, 3.0), iv(0.7, 2.0, 4.0)])
        before = bits(cands)
        soft_nms(cands, DecodeConfig())
        assert bits(cands) == before

    @pytest.mark.parametrize("max_out", [0, -3])
    def test_max_out_below_one_rejected(self, max_out):
        with pytest.raises(ConfigError, match="pre_nms_topk and max_out must be >= 1"):
            nms([iv(0.5, 0.0, 1.0)], max_out=max_out)

    def test_no_candidates(self):
        assert nms([]) == []


class TestTopK:
    def test_every_row_in_order_as_an_interval_of_the_video(self):
        # soft_nms has already cut its output to max_out rows
        preds = [iv(0.5 + 0.01 * i, float(i), i + 0.5) for i in range(10)]
        got = select_top_k(columns(preds), "a")
        assert [p.score for p in got] == [p.score for p in preds]
        assert {p.video_id for p in got} == {"a"}
        assert select_top_k(columns([]), "a") == []


# Few distinct values, so that scores, starts and ends tie often.
TIE_SCORES = [1.0, 0.9, 0.5, 0.3, 0.1, 0.001, 0.0005, 0.0]

intervals = st.builds(
    lambda label, score, start, length: iv(score, start, start + length, label),
    st.integers(0, 2),
    st.one_of(st.sampled_from(TIE_SCORES), st.floats(0.0, 1.0)),
    st.one_of(st.integers(0, 8).map(lambda k: k / 2), st.floats(0.0, 10.0)),
    st.one_of(st.integers(1, 6).map(lambda k: k / 2), st.floats(0.01, 5.0)),
)

nms_settings = st.fixed_dictionaries({
    "method": st.sampled_from(["gaussian", "hard"]),
    "sigma": st.one_of(st.sampled_from([0.5, 0.1, 2.0]), st.floats(0.01, 10.0)),
    "iou_thresh": st.sampled_from([1e-9, 0.3, 0.5, 1.0]),
    "min_score": st.sampled_from([0.0, 1e-3, 0.3, 1.0]),
    "max_out": st.sampled_from([1, 2, 3, 7, 200]),
})


# head outputs of the one-pass trunks against per-level trunk calls
HEAD_ATOL = 1e-5


def bits(preds):
    if isinstance(preds, Candidates):
        preds = intervals_of(preds)
    return [(p.video_id, p.label_id, p.score.hex(), p.start_sec.hex(),
             p.end_sec.hex()) for p in preds]


def oracle_top(preds, **kwargs):
    """The rows predict keeps: the oracle's first max_out survivors."""
    return oracle_soft_nms(preds, **kwargs)[:kwargs.get("max_out", DecodeConfig.max_out)]


@st.composite
def dense_clusters(draw):
    """One or two classes of up to 300 rows in a few dense clusters.

    Starts and ends are whole numbers, so that rows touch end to start and
    tIoU 0 decides; scores tie often; long rows lie over short ones, so that
    one row overlaps two disjoint rows that pick in the same round.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    tie_share = draw(st.sampled_from([0.0, 0.5, 1.0]))
    preds = []
    for label in range(draw(st.integers(1, 2))):
        clusters = draw(st.integers(1, 4))
        size = draw(st.integers(1, 300 // clusters))
        for k in range(clusters):
            start = 30 * k + rng.integers(0, draw(st.integers(1, 24)), size)
            length = rng.choice([1, 1, 2, 3, 5, 9], size)
            score = np.where(rng.random(size) < tie_share,
                             rng.choice(TIE_SCORES, size), rng.random(size))
            preds += [iv(float(p), float(a), float(a + n), label)
                      for p, a, n in zip(score, start, length)]
    return preds


# a failing example is reported unshrunk: each shrink step reruns the
# oracle, which rescores every remaining row after each pick
NO_SHRINK = tuple(p for p in Phase if p is not Phase.shrink)


class TestSoftNmsMatchesOracle:
    @settings(max_examples=300, deadline=None, phases=NO_SHRINK)
    @given(st.lists(intervals, max_size=40), nms_settings, st.randoms())
    def test_exact_and_permutation_invariant(self, preds, kwargs, rnd):
        got = soft_nms(columns(preds), DecodeConfig(**kwargs))
        assert bits(got) == bits(oracle_top(preds, **kwargs))
        perm = list(preds)
        rnd.shuffle(perm)
        assert bits(soft_nms(columns(perm), DecodeConfig(**kwargs))) == bits(got)

    @settings(max_examples=20, deadline=None, phases=NO_SHRINK)
    @given(st.integers(min_value=0, max_value=10 ** 9))
    def test_exact_on_dense_groups(self, seed):
        # a few hundred rows over several classes, every row overlapping
        # many others, as the decoder sees them
        rng = np.random.default_rng(seed)
        preds = []
        for _ in range(300):
            s = float(rng.uniform(0, 20))
            preds.append(iv(float(rng.uniform(0, 1)), s,
                            s + float(rng.uniform(0.1, 6.0)),
                            label=int(rng.integers(0, 3))))
        for method in ("gaussian", "hard"):
            for max_out in (200, 20):
                got = soft_nms(columns(preds),
                               DecodeConfig(method=method, max_out=max_out))
                assert bits(got) == bits(oracle_top(preds, method=method,
                                                    max_out=max_out))

    @settings(max_examples=60, deadline=None, phases=NO_SHRINK)
    @given(dense_clusters(), nms_settings)
    def test_exact_on_dense_clusters_of_whole_seconds(self, preds, kwargs):
        # several picks per cluster and round, on the shapes where the rule
        # for them is tightest; hard suppression at the least threshold
        # without a score floor runs on every example
        for kw in (kwargs, {"method": "hard", "iou_thresh": 1e-9,
                            "min_score": 0.0, "max_out": kwargs["max_out"]}):
            got = soft_nms(columns(preds), DecodeConfig(**kw))
            assert bits(got) == bits(oracle_top(preds, **kw)), kw

    @pytest.mark.parametrize("seed", range(6))
    def test_exact_on_sparse_clusters_with_ties(self, seed):
        # short rows on a whole-number grid over a long span: many small
        # clusters per class, tied scores, starts and ends, and cuts at
        # max_out that fall inside a tie
        rng = np.random.default_rng(seed)
        preds = [iv(float(rng.choice([0.9, 0.6, 0.3, 0.0005])),
                    float(s), float(s + rng.integers(1, 4)),
                    label=int(rng.integers(0, 3)))
                 for s in rng.integers(0, 120, 250)]
        for kwargs in ({}, {"method": "hard"},
                       {"method": "hard", "iou_thresh": 1e-9, "min_score": 0.0},
                       {"method": "hard", "iou_thresh": 1.0},
                       {"min_score": 0.5}, {"sigma": 0.1, "min_score": 0.0}):
            for max_out in (1, 5, 40, 200):
                got = soft_nms(columns(preds), DecodeConfig(max_out=max_out, **kwargs))
                want = oracle_top(preds, max_out=max_out, **kwargs)
                assert bits(got) == bits(want), (kwargs, max_out)

    def test_exact_on_long_rows_over_short_ones(self):
        # 300 long rows of one class that all overlap each other, with
        # better short rows inside them, and a class of short rows: the
        # short rows of a round's picks each decay only some long rows, and
        # every long row that two of them overlap takes both factors
        rng = np.random.default_rng(5)
        preds = [iv(float(p), float(a), float(a + n)) for p, a, n in zip(
            rng.uniform(0.3, 0.9, 300), rng.uniform(0.0, 5.0, 300),
            rng.uniform(90.0, 100.0, 300))]
        preds += [iv(float(p), float(a), float(a + 1.0)) for p, a in zip(
            rng.uniform(0.9, 0.99, 100), rng.uniform(5.0, 90.0, 100))]
        preds += [iv(float(p), float(a), float(a + 1.0), label=1) for p, a in zip(
            rng.uniform(0.3, 0.95, 100), rng.uniform(0.0, 100.0, 100))]
        for kwargs in ({}, {"method": "hard"},
                       {"method": "hard", "iou_thresh": 1e-9, "min_score": 0.0}):
            got = soft_nms(columns(preds), DecodeConfig(**kwargs))
            assert bits(got) == bits(oracle_top(preds, **kwargs)), kwargs

    def test_exact_on_a_long_video(self):
        # the shape predict runs on a long video: untrained desk-preset
        # weights put every point above the threshold, so the top 2000
        # candidates reach the loop and overlap heavily; over 500 survivors
        # in 5 classes, of which predict keeps the best 200
        cands = model_candidates(512.0, 0, (8, 16))
        assert len(cands) == DecodeConfig.pre_nms_topk
        preds = intervals_of(cands)
        for method in ("gaussian", "hard"):
            for max_out in (200, 7):
                got = soft_nms(cands, DecodeConfig(method=method, max_out=max_out))
                want = oracle_soft_nms(preds, method=method, max_out=max_out)
                assert len(want) > (500 if max_out == 200 else max_out)
                assert bits(got) == bits(want[:max_out])

    @pytest.mark.parametrize("kwargs", [{}, {"method": "hard"}])
    def test_exact_on_a_trained_model(self, trained_candidates, kwargs):
        # the rows a trained model decodes: every video's candidates pass
        # the threshold, and the best ones crowd round its events, where a
        # row is hit by several picks of a round most often
        for cands in trained_candidates:
            got = soft_nms(cands, DecodeConfig(**kwargs))
            assert bits(got) == bits(oracle_top(intervals_of(cands), **kwargs))
        assert len(trained_candidates[-1]) == DecodeConfig.pre_nms_topk


LOGITS = [logit(p) for p in (0.9, 0.5, 0.2, 0.001, 0.0005)] + [30.0, -30.0]
DISTANCES = [0.0, 0.5, 1.0, 2.0, 3.0]


@st.composite
def pyramid_outputs(draw):
    num_classes = draw(st.integers(1, 3))
    levels = []
    for stride in draw(st.lists(st.sampled_from([1, 2, 4]), min_size=1, max_size=3)):
        t = draw(st.integers(1, 8))
        row = st.lists(st.one_of(st.sampled_from(LOGITS), st.floats(-8.0, 8.0)),
                       min_size=num_classes, max_size=num_classes)
        logits = draw(st.lists(row, min_size=t, max_size=t))
        dist = draw(st.lists(st.one_of(st.sampled_from(DISTANCES), st.floats(0.0, 4.0)),
                             min_size=2 * t, max_size=2 * t))
        # in about a third of the levels, a NaN distance gives a non-finite
        # boundary, which must raise exactly when its candidate is kept
        nan_at = draw(st.integers(-4 * t, 2 * t - 1))
        if nan_at >= 0:
            dist[nan_at] = math.nan
        levels.append((stride, logits, dist))
    return levels


def outcome(fn, *args):
    try:
        return bits(fn(*args))
    except ValidationError as exc:
        return f"ValidationError: {exc}"


class TestRecoverMatchesOracle:
    @settings(max_examples=300, deadline=None)
    @given(pyramid_outputs(), st.sampled_from([0.5, 1.0, 0.32]),
           st.sampled_from([5.0, 12.0, 100.0]),
           st.sampled_from([0.001, 0.3]), st.integers(1, 40))
    def test_exact(self, levels, stride_sec, duration, thresh, topk):
        points, head_out = multi_level_output(levels)
        args = (head_out, points, stride_sec, duration)
        want = outcome(oracle_recover_intervals, *args, thresh, topk)
        assert outcome(recover_intervals, *args, DecodeConfig(
            score_thresh=thresh, pre_nms_topk=topk)) == want
        per_level, heads = level_output(levels)
        assert outcome(level_oracles.recover_intervals, heads, per_level,
                       stride_sec, duration, thresh, topk) == want

    @pytest.mark.parametrize("t", [64, 2048])
    def test_model_output_matches_per_level_oracle(self, t):
        # untrained desk-preset weights: every point passes the threshold
        cfg = desk_scale_config().model
        arrays = init_model_arrays(cfg, seed=0)
        x = np.random.default_rng(t).standard_normal(
            (t, cfg.backbone.input_dim)).astype(np.float32)
        tape = ad.Tape(dtype=np.float32, record=False)
        bound = pr.bind(tape, arrays)
        pyramid = build_pyramid(tape.constant(x), bound, cfg.backbone)
        heads = run_heads(pyramid, bound)
        oracle = level_oracles.run_heads(pyramid, bound)
        # one trunk pass over the joined levels against one per level: the
        # output GEMMs are 5 and 2 columns wide, and over 2048 rows this
        # BLAS rounds some rows differently (up to 1.9e-6)
        ends = np.cumsum(pyramid.lengths)[:-1]
        per_level = {}
        for name in ("cls_logits", "distances"):
            flat = getattr(heads, name).values
            want = np.concatenate([lvl.values for lvl in getattr(oracle, name)])
            assert np.abs(flat - want).max() <= HEAD_ATOL, name
            per_level[name] = [tape.constant(v) for v in np.split(flat, ends)]
        # the same rows decode to the same bits flat and per level
        got = recover_intervals(heads, generate_points(pyramid, cfg.range_base),
                                0.5, t / 2.0, DecodeConfig())
        want = level_oracles.recover_intervals(
            level_oracles.LevelHeads(per_level["cls_logits"], None,
                                     per_level["distances"]),
            level_oracles.generate_points(pyramid, cfg.range_base), 0.5, t / 2.0)
        assert len(got) > 500
        assert bits(got) == bits(want)

    def test_topk_cut_inside_a_tie_across_levels(self):
        # twelve candidates over two levels share one score; the cut at 5
        # falls among them and the start, label and end tie-breaks decide
        p = logit(0.5)
        points, head_out = multi_level_output([
            (1, [[p, p]] * 4, [1.0, 1.0] * 4),
            (2, [[p, p]] * 2, [0.5, 0.5] * 2),
        ])
        for topk in (1, 5, 11, 12, 13):
            got = recover(head_out, points, 1.0, 100.0, pre_nms_topk=topk)
            assert bits(got) == bits(oracle_recover_intervals(
                head_out, points, 1.0, 100.0, pre_nms_topk=topk))
            assert len(got) == min(topk, 12)

    def test_nan_boundary_raises(self):
        points, head_out = multi_level_output([(1, [[2.0]], [math.nan, 1.0])])
        with pytest.raises(ValidationError, match="start < end"):
            recover_intervals(head_out, points, 1.0, 10.0, DecodeConfig())

    def test_nan_boundary_below_threshold_ignored(self):
        points, head_out = multi_level_output([
            (1, [[-30.0], [2.0]], [math.nan, 1.0, 1.0, 1.0])])
        assert len(recover(head_out, points, 1.0, 10.0)) == 1


class TestWorkCount:
    def test_recover_builds_no_interval(self, monkeypatch):
        rng = np.random.default_rng(0)
        t, c = 2000, 5
        points, head_out = multi_level_output([
            (1, rng.uniform(0.0, 4.0, (t, c)), rng.uniform(0.2, 3.0, (t, 2)))])
        every = oracle_recover_intervals(head_out, points, 1.0, float(t),
                                         pre_nms_topk=10 ** 6)
        assert len(every) == 10 ** 4
        built = count_intervals(monkeypatch)
        got = recover_intervals(head_out, points, 1.0, float(t), DecodeConfig())
        assert len(built) == 0
        assert bits(got) == bits(every[:DecodeConfig.pre_nms_topk])

    def test_soft_nms_builds_no_interval(self, monkeypatch):
        rng = np.random.default_rng(1)
        preds = []
        for _ in range(400):
            s = float(rng.uniform(0, 30))
            preds.append(iv(float(rng.uniform(0, 1)), s, s + float(rng.uniform(0.1, 5.0)),
                            label=int(rng.integers(0, 4))))
        built = count_intervals(monkeypatch)
        got = soft_nms(columns(preds), DecodeConfig())
        assert 0 < len(got) < len(preds)
        assert len(built) == 0

    @pytest.mark.parametrize("max_out", [10, 200])
    def test_soft_nms_sorts_once_per_call(self, monkeypatch, max_out):
        # two sorts reach every row or every pick: the (label, start, end)
        # row order and the output order, however many rounds run. A round
        # sorts its picks' pairs at most once, and a pair decays at most
        # once, so those sorts together cover at most the overlapping pairs
        rng = np.random.default_rng(4)
        n = 2000
        start = rng.uniform(0.0, 500.0, n)
        cands = Candidates(rng.integers(0, 5, n), rng.uniform(0.01, 1.0, n),
                           start, start + rng.uniform(0.5, 8.0, n))
        assert np.unique(cands.score).size == n
        sorts = count_lexsorts(monkeypatch)
        rounds = count_rounds(monkeypatch)
        got = soft_nms(cands, DecodeConfig(max_out=max_out))
        assert len(got) == max_out
        assert sorts[0] == n
        assert max_out <= sorts[-1] < n
        per_round = sorts[1:-1]
        assert len(per_round) <= len(rounds)
        assert sum(per_round) <= overlapping_pairs(cands)

    def test_ties_at_the_best_score_over_several_rounds(self, monkeypatch):
        # class 0 has rows tied at 0.9 for three rounds, where the first
        # start and the first end belong to different rows; class 1 ties on
        # score and start in its first round
        preds = [iv(0.9, 9.0, 10.0), iv(0.9, 3.0, 4.0), iv(0.9, 6.0, 7.0),
                 iv(0.9, 0.2, 0.8), iv(0.9, 0.0, 1.0), iv(0.9, 6.0, 7.0),
                 iv(0.7, 2.0, 5.0, label=1), iv(0.7, 2.0, 4.0, label=1),
                 iv(0.2, 2.5, 3.0, label=1), iv(0.4, 0.0, 2.0, label=2)]
        sorts = count_lexsorts(monkeypatch)
        got = nms(preds)
        want = oracle_soft_nms(preds)
        assert got == want
        assert bits(got) == bits(want)
        # rows run in (start, end) order, so a tie needs no sort of its own:
        # between the row and output sorts, each round sorts only its pairs
        assert sorts[0] == sorts[-1] == len(preds)
        assert sum(sorts[1:-1]) <= overlapping_pairs(columns(preds))

    @pytest.mark.parametrize("scores", [(0.9, 0.8), (0.8, 0.9)])
    def test_a_row_two_picks_overlap_takes_their_factors_in_pick_order(
            self, monkeypatch, scores):
        # the long row overlaps both short rows, which overlap nothing else:
        # both pick in the first round, and the long row takes their factors
        # in their pick order, which the last bit of its score shows
        short = [iv(scores[0], 0.0, 1.0), iv(scores[1], 2.0, 3.0)]
        long = iv(0.45, 0.5, 2.25)
        f = [math.exp(-(tiou(p, long) ** 2) / DecodeConfig.sigma) for p in short]
        assert (0.45 * f[0]) * f[1] != (0.45 * f[1]) * f[0]
        rounds = count_rounds(monkeypatch)
        sorts = count_lexsorts(monkeypatch)
        got = nms(short + [long])
        assert len(rounds) == 2
        # rows, the first round's pairs, the last round's none, output
        assert sorts == [3, 2, 0, 3]
        assert bits(got) == bits(oracle_soft_nms(short + [long]))

    def test_rounds_bounded_by_the_largest_cluster(self, monkeypatch):
        # the predict_long shape: 2000 candidates of a T=2048 video, whose
        # overlapping same-class rows form hundreds of small clusters
        cands = model_candidates(2048.0, 1, (32, 64))
        largest = largest_cluster(cands)
        assert largest < 50
        rounds = count_rounds(monkeypatch)
        got = soft_nms(cands, DecodeConfig())
        assert 0 < len(rounds) <= largest
        assert bits(got) == bits(oracle_top(intervals_of(cands)))

    @pytest.mark.parametrize("kwargs", [{}, {"method": "hard"}])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("duration, events", [(64.0, (1, 3)),
                                                  (2048.0, (32, 64))])
    def test_one_range_table_per_call(self, monkeypatch, seed, duration, events,
                                      kwargs):
        # rows keep their place for the whole call: a retired row stays in
        # the table at -inf, so reach, clusters and table are built once
        cands = model_candidates(duration, seed, events)
        calls = Counter()
        for name in ("_reach", "_clusters", "_range_table"):
            def counting(*args, name=name, build=getattr(decode, name)):
                calls[name] += 1
                return build(*args)

            monkeypatch.setattr(decode, name, counting)
        soft_nms(cands, DecodeConfig(**kwargs))
        assert calls == {"_reach": 1, "_clusters": 1, "_range_table": 1}

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_dense_video_takes_several_picks_per_round(self, monkeypatch, seed):
        # T=64: one pick per cluster and round took 64-76 rounds here; each
        # round now takes a cluster's picks up to its x*
        cands = model_candidates(64.0, seed, (1, 3))
        rounds = count_rounds(monkeypatch)
        got = soft_nms(cands, DecodeConfig())
        assert 0 < len(rounds) <= 25
        assert bits(got) == bits(oracle_top(intervals_of(cands)))

    def test_dense_video_stops_before_its_classes_run_out(self, monkeypatch):
        # T=64: each class is one cluster of about 120 rows, which the class
        # loop runs until its last class runs out of rows above min_score;
        # the 200 best picks are all made well before that
        cands = model_candidates(64.0, 1, (1, 3))
        preds = intervals_of(cands)
        every = oracle_soft_nms(preds)
        picks = max(Counter(p.label_id for p in every).values())
        rounds = count_rounds(monkeypatch)
        got = soft_nms(cands, DecodeConfig())
        assert len(rounds) < 0.8 * picks
        assert len(every) > len(got) == DecodeConfig.max_out
        assert bits(got) == bits(every[:DecodeConfig.max_out])

    def test_predict_builds_one_per_result(self, monkeypatch):
        # untrained desk-preset weights put most points above the score
        # threshold, so hundreds of candidates reach soft_nms
        cfg = desk_scale_config()
        arrays = init_model_arrays(cfg.model, seed=0)
        rng = np.random.default_rng(2)
        seq = FeatureSequence("v", "fused", 1.0, rng.standard_normal(
            (64, cfg.model.backbone.input_dim)).astype(np.float32))
        kept = []

        def recording_nms(*args, **kwargs):
            kept.append(soft_nms(*args, **kwargs))
            return kept[-1]

        monkeypatch.setattr("soundloc.model.soft_nms", recording_nms)
        built = count_intervals(monkeypatch)
        got = predict_intervals(arrays, cfg.model, seq, cfg.decode)
        assert len(kept[0]) == len(got) == cfg.decode.max_out
        assert len(built) == len(got)


# one value per DecodeConfig field that its rule rejects: NaN, out of range,
# a string, a bool, or not a whole number
BAD_DECODE_SETTINGS = [
    ("score_thresh", math.nan), ("score_thresh", 2.0), ("score_thresh", "0.1"),
    ("score_thresh", True), ("pre_nms_topk", 0), ("pre_nms_topk", -1),
    ("pre_nms_topk", 2.5), ("pre_nms_topk", True), ("method", "linear"),
    ("method", None), ("sigma", math.nan), ("sigma", 0.0), ("sigma", "0.5"),
    ("sigma", True), ("iou_thresh", math.nan), ("iou_thresh", 1.5),
    ("iou_thresh", "0.5"), ("iou_thresh", False), ("min_score", math.nan),
    ("min_score", -0.1), ("min_score", "0"), ("min_score", True),
    ("max_out", 0), ("max_out", -3), ("max_out", 2.5), ("max_out", "3"),
    ("max_out", True)]


class UnreadHeads:
    """Stands in for head outputs or points that must not be read."""

    def __getattr__(self, name):
        raise AssertionError(f"{name} read before the settings were checked")


@pytest.fixture(scope="module")
def one_video():
    """Untrained desk-preset weights and a one-video dataset to decode."""
    cfg = desk_scale_config()
    (pair,), (ann,) = generate_synthetic(SyntheticSpec(
        num_videos=1, duration_sec=32.0, seed=0))
    seq = fuse_features(*pair)
    dataset = Dataset(fused={seq.video_id: seq},
                      annotations={seq.video_id: ann},
                      class_names=ann.class_names)
    return init_model_arrays(cfg.model, seed=0), cfg.model, dataset


class TestOneDecodeRule:
    """Every decode stage takes DecodeConfig whole and checks its rule
    before any work: a setting the rule rejects is a ConfigError naming it,
    never an empty result."""

    @pytest.mark.parametrize("key, value", BAD_DECODE_SETTINGS)
    def test_recover_rejects_before_reading_head_outputs(self, key, value):
        with pytest.raises(ConfigError, match=key):
            recover_intervals(UnreadHeads(), UnreadHeads(), 1.0, 10.0,
                              DecodeConfig(**{key: value}))

    @pytest.mark.parametrize("key, value", BAD_DECODE_SETTINGS)
    def test_soft_nms_rejects_before_any_work(self, monkeypatch, key, value):
        def forbidden(*args):
            raise AssertionError("no reach for bad settings")

        monkeypatch.setattr(decode, "_reach", forbidden)
        with pytest.raises(ConfigError, match=key):
            nms([iv(0.9, 0.0, 1.0), iv(0.8, 5.0, 6.0)], **{key: value})

    @pytest.mark.parametrize("key, value", BAD_DECODE_SETTINGS)
    def test_predict_and_evaluate_reject(self, one_video, key, value):
        arrays, cfg, dataset = one_video
        dc = DecodeConfig(**{key: value})
        (vid,) = dataset.videos()
        with pytest.raises(ConfigError, match=key):
            predict_intervals(arrays, cfg, dataset.fused[vid], dc)
        with pytest.raises(ConfigError, match=key):
            evaluate_on(arrays, cfg, dataset, [vid], dc)

    @pytest.mark.parametrize("key, value", BAD_DECODE_SETTINGS)
    def test_predict_rejects_before_the_forward_pass(self, monkeypatch, one_video,
                                                     key, value):
        def forbidden(*args):
            raise AssertionError("no forward pass for bad settings")

        monkeypatch.setattr("soundloc.model.forward_video", forbidden)
        arrays, cfg, dataset = one_video
        (vid,) = dataset.videos()
        with pytest.raises(ConfigError, match=key):
            predict_intervals(arrays, cfg, dataset.fused[vid],
                              DecodeConfig(**{key: value}))

    def test_evaluate_on_rejects_unknown_video_before_the_forward_pass(
            self, monkeypatch, one_video):
        def forbidden(*args):
            raise AssertionError("no forward pass for an unknown video")

        monkeypatch.setattr("soundloc.model.forward_video", forbidden)
        arrays, cfg, dataset = one_video
        (vid,) = dataset.videos()
        with pytest.raises(ValidationError, match="unknown video 'nope'"):
            evaluate_on(arrays, cfg, dataset, [vid, "nope"], DecodeConfig())

    @pytest.mark.parametrize("key, value", BAD_DECODE_SETTINGS)
    def test_evaluate_on_no_videos_rejects(self, one_video, key, value):
        arrays, cfg, dataset = one_video
        with pytest.raises(ConfigError, match=key):
            evaluate_on(arrays, cfg, dataset, [], DecodeConfig(**{key: value}))
