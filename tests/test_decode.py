"""Tests for interval recovery and soft suppression.

The array-based decoders are checked for exact equality against the
one-candidate-at-a-time oracles below, which build an Interval per candidate
and re-sort the survivors after every pick.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soundloc import autodiff as ad
from soundloc import decode
from soundloc.decode import (
    Interval,
    _sort_key,
    recover_intervals,
    select_top_k,
    soft_nms,
)
from soundloc.errors import ConfigError, ValidationError
from soundloc.evaluate import tiou
from soundloc.heads import HeadOutput, LevelPoints, PointSet


def oracle_recover_intervals(head_out, points, stride_sec, video_id,
                             duration_sec=None, score_thresh=decode.SCORE_THRESH,
                             pre_nms_topk=decode.PRE_NMS_TOPK):
    """recover_intervals with one Interval per candidate, sorted, then cut."""
    if duration_sec is None:
        lvl0 = points.levels[0]
        duration_sec = (lvl0.timestamps[-1] + 0.5 * lvl0.stride_units) * stride_sec
    out = []
    for lvl, logits, dist, valid in zip(points.levels, head_out.cls_logits,
                                        head_out.distances, head_out.valid_masks):
        probs = 1.0 / (1.0 + np.exp(-np.asarray(logits.values, dtype=np.float64)))
        d = np.asarray(dist.values, dtype=np.float64)
        starts = np.clip((lvl.timestamps - d[:, 0] * lvl.stride_units) * stride_sec,
                         0.0, duration_sec)
        ends = np.clip((lvl.timestamps + d[:, 1] * lvl.stride_units) * stride_sec,
                       0.0, duration_sec)
        keep_pt, keep_cls = np.nonzero(probs >= score_thresh)
        for i, c in zip(keep_pt, keep_cls):
            if not valid[i] or starts[i] >= ends[i]:
                continue
            out.append(Interval(video_id, int(c), float(probs[i, c]),
                                float(starts[i]), float(ends[i])))
    out.sort(key=_sort_key)
    return out[:pre_nms_topk]


def oracle_soft_nms(preds, sigma=decode.NMS_SIGMA, method="gaussian",
                    iou_thresh=decode.NMS_IOU_THRESH,
                    min_score=decode.NMS_MIN_SCORE, max_out=decode.NMS_MAX_OUT):
    """soft_nms one group and one candidate at a time, scored with tiou."""
    groups = {}
    for p in preds:
        groups.setdefault((p.video_id, p.label_id), []).append(p)
    survivors = []
    for key in sorted(groups):
        remaining = sorted(groups[key], key=_sort_key)
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
                    rescored.append(replace(other, score=new_score))
            rescored.sort(key=_sort_key)
            remaining = rescored
    survivors.sort(key=lambda p: (p.video_id,) + _sort_key(p))
    return survivors


def iv(score, start, end, label=0, video="v"):
    return Interval(video, label, score, start, end)


def head_output_from_arrays(logits, dist, valid=None):
    tape = ad.Tape(dtype=np.float64)
    lt = tape.constant(np.asarray(logits, dtype=float))
    # distances are given directly; reg_raw is unused by decoding
    dt = tape.constant(np.asarray(dist, dtype=float))
    if valid is None:
        valid = np.ones(lt.shape[0], dtype=bool)
    return HeadOutput([lt], [lt], [dt], [valid])


def multi_level_output(levels):
    """PointSet and HeadOutput from (stride, logits, dist, valid) per level."""
    tape = ad.Tape(dtype=np.float64)
    points, logits, dists, valids = [], [], [], []
    for stride, lg, dist, valid in levels:
        t = len(lg)
        points.append(LevelPoints((np.arange(t) + 0.5) * stride, stride, 0.0, math.inf))
        logits.append(tape.constant(np.asarray(lg, dtype=float)))
        dists.append(tape.constant(np.asarray(dist, dtype=float).reshape(t, 2)))
        valids.append(np.asarray(valid, dtype=bool))
    return PointSet(points), HeadOutput(logits, logits, dists, valids)


def count_intervals(monkeypatch):
    """Counts the Intervals that soundloc.decode constructs."""
    built = []

    def counting(*args, **kwargs):
        built.append(1)
        return Interval(*args, **kwargs)

    monkeypatch.setattr(decode, "Interval", counting)
    return built


def logit(p):
    return math.log(p / (1.0 - p))


class TestInterval:
    def test_rejects_empty_interval(self):
        with pytest.raises(ValidationError):
            iv(0.5, 2.0, 2.0)

    def test_rejects_bad_score(self):
        with pytest.raises(ValidationError):
            iv(1.5, 0.0, 1.0)

    @pytest.mark.parametrize("start, end", [
        (0.0, math.inf), (-math.inf, 1.0), (-math.inf, math.inf)])
    def test_rejects_infinite_boundaries(self, start, end):
        with pytest.raises(ValidationError, match="finite start < end"):
            iv(0.9, start, end)

    def test_recover_with_infinite_duration_raises(self):
        points, head_out = multi_level_output([(1, [[2.0]], [1.0, math.inf], [True])])
        with pytest.raises(ValidationError, match="finite start < end"):
            recover_intervals(head_out, points, 1.0, "v", math.inf)


class TestRecoverIntervals:
    def single_point(self, t, stride, d_s, d_e, prob):
        points = PointSet([LevelPoints(np.array([float(t)]), stride, 0.0, math.inf)])
        out = head_output_from_arrays([[logit(prob)]], [[d_s, d_e]])
        return points, out

    def test_boundary_arithmetic(self):
        # t=4 grid units, d_s=1, d_e=2, stride 2, one second per unit
        points, out = self.single_point(4, 2, 1.0, 2.0, 0.9)
        got = recover_intervals(out, points, stride_sec=1.0, video_id="v",
                                duration_sec=100.0)
        assert len(got) == 1
        assert (got[0].start_sec, got[0].end_sec) == (2.0, 8.0)
        np.testing.assert_allclose(got[0].score, 0.9, rtol=1e-9)

    def test_all_below_threshold(self):
        points, out = self.single_point(4, 1, 1.0, 1.0, 0.0005)
        assert recover_intervals(out, points, 1.0, "v", 100.0) == []

    def test_start_clamps_at_zero(self):
        points, out = self.single_point(1, 1, 5.0, 1.0, 0.9)
        got = recover_intervals(out, points, 1.0, "v", 100.0)
        assert got[0].start_sec == 0.0

    def test_zero_length_after_clamp_dropped(self):
        # both ends clamp to the duration bound
        points, out = self.single_point(9, 1, -0.0, 5.0, 0.9)
        got = recover_intervals(out, points, 1.0, "v", duration_sec=8.0)
        assert got == []

    def test_invalid_positions_skipped(self):
        points = PointSet([LevelPoints(np.array([0.5, 1.5]), 1, 0.0, math.inf)])
        out = head_output_from_arrays(
            [[logit(0.9)], [logit(0.9)]], [[0.5, 0.5], [0.5, 0.5]],
            valid=np.array([True, False]))
        got = recover_intervals(out, points, 1.0, "v", 100.0)
        assert len(got) == 1

    def test_topk_keeps_best(self):
        points = PointSet([LevelPoints((np.arange(10) + 0.5), 1, 0.0, math.inf)])
        probs = np.linspace(0.1, 0.9, 10)[:, None]
        out = head_output_from_arrays(np.vectorize(logit)(probs),
                                      np.full((10, 2), 0.5))
        got = recover_intervals(out, points, 1.0, "v", 100.0, pre_nms_topk=3)
        assert len(got) == 3
        assert got[0].score >= got[1].score >= got[2].score


class TestSoftNms:
    def test_single_prediction_unchanged(self):
        p = [iv(0.7, 1.0, 3.0)]
        assert soft_nms(p) == p

    def test_identical_pair_gaussian_decay(self):
        got = soft_nms([iv(0.9, 1.0, 3.0), iv(0.8, 1.0, 3.0)], sigma=0.5)
        assert len(got) == 2
        np.testing.assert_allclose(got[1].score, 0.8 * math.exp(-2.0), rtol=1e-9)
        np.testing.assert_allclose(got[1].score, 0.10827, atol=5e-6)

    def test_disjoint_unchanged_both_methods(self):
        preds = [iv(0.9, 0.0, 1.0), iv(0.8, 5.0, 6.0)]
        for method in ("gaussian", "hard"):
            got = soft_nms(preds, method=method)
            assert sorted(p.score for p in got) == [0.8, 0.9]

    def test_hard_thresh_one_removes_only_exact_duplicates(self):
        preds = [iv(0.9, 1.0, 3.0), iv(0.8, 1.0, 3.0), iv(0.7, 1.0, 2.9)]
        got = soft_nms(preds, method="hard", iou_thresh=1.0)
        scores = sorted(p.score for p in got)
        assert scores == [0.7, 0.9]

    def test_hard_thresh_near_zero_keeps_disjoint_only(self):
        preds = [iv(0.9, 0.0, 2.0), iv(0.8, 1.0, 3.0), iv(0.7, 5.0, 6.0)]
        got = soft_nms(preds, method="hard", iou_thresh=1e-9)
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
        got = soft_nms(preds)
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
        base = soft_nms(preds)
        perm = [preds[i] for i in rng.permutation(len(preds))]
        assert soft_nms(perm) == base

    def test_per_class_no_cross_suppression(self):
        preds = [iv(0.9, 1.0, 3.0, label=0), iv(0.8, 1.0, 3.0, label=1)]
        got = soft_nms(preds)
        assert sorted(p.score for p in got) == [0.8, 0.9]

    def test_unknown_method(self):
        with pytest.raises(ConfigError):
            soft_nms([iv(0.5, 0.0, 1.0)], method="linear")

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan])
    def test_nonpositive_sigma_rejected(self, sigma):
        with pytest.raises(ConfigError):
            soft_nms([iv(0.9, 0.0, 1.0), iv(0.8, 0.0, 1.0)], sigma=sigma)

    def test_max_out_cap(self):
        preds = [iv(0.5, float(i), float(i) + 0.5) for i in range(30)]
        got = soft_nms(preds, max_out=10)
        assert len(got) == 10


class TestTopK:
    def test_per_video_cap(self):
        preds = [iv(0.5 + 0.01 * i, float(i), i + 0.5, video="a") for i in range(10)]
        preds += [iv(0.9, 0.0, 1.0, video="b")]
        got = select_top_k(preds, k=3)
        assert sum(1 for p in got if p.video_id == "a") == 3
        assert sum(1 for p in got if p.video_id == "b") == 1


# Few distinct values, so that scores, starts and ends tie often.
TIE_SCORES = [1.0, 0.9, 0.5, 0.3, 0.1, 0.001, 0.0005, 0.0]

intervals = st.builds(
    lambda video, label, score, start, length: Interval(video, label, score,
                                                        start, start + length),
    st.sampled_from("abc"), st.integers(0, 2),
    st.one_of(st.sampled_from(TIE_SCORES), st.floats(0.0, 1.0)),
    st.one_of(st.integers(0, 8).map(lambda k: k / 2), st.floats(0.0, 10.0)),
    st.one_of(st.integers(1, 6).map(lambda k: k / 2), st.floats(0.01, 5.0)),
)

nms_settings = st.fixed_dictionaries({
    "method": st.sampled_from(["gaussian", "hard"]),
    "sigma": st.one_of(st.sampled_from([0.5, 0.1, 2.0]), st.floats(0.01, 10.0)),
    "iou_thresh": st.sampled_from([1e-9, 0.3, 0.5, 1.0]),
    "min_score": st.sampled_from([0.0, 1e-3, 0.3, 1.0]),
    "max_out": st.sampled_from([1, 2, 3, 200]),
})


def bits(preds):
    return [(p.video_id, p.label_id, p.score.hex(), p.start_sec.hex(),
             p.end_sec.hex()) for p in preds]


class TestSoftNmsMatchesOracle:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(intervals, max_size=40), nms_settings, st.randoms())
    def test_exact_and_permutation_invariant(self, preds, kwargs, rnd):
        got = soft_nms(preds, **kwargs)
        assert bits(got) == bits(oracle_soft_nms(preds, **kwargs))
        perm = list(preds)
        rnd.shuffle(perm)
        assert soft_nms(perm, **kwargs) == got

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 9))
    def test_exact_on_dense_groups(self, seed):
        # a few hundred rows over several videos and classes, every row
        # overlapping many others, as the decoder sees them
        rng = np.random.default_rng(seed)
        preds = []
        for _ in range(300):
            s = float(rng.uniform(0, 20))
            preds.append(Interval(str(rng.integers(0, 3)), int(rng.integers(0, 3)),
                                  float(rng.uniform(0, 1)), s,
                                  s + float(rng.uniform(0.1, 6.0))))
        for method in ("gaussian", "hard"):
            got = soft_nms(preds, method=method)
            assert bits(got) == bits(oracle_soft_nms(preds, method=method))


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
        valid = draw(st.lists(st.booleans(), min_size=t, max_size=t))
        levels.append((stride, logits, dist, valid))
    return multi_level_output(levels)


def outcome(fn, *args):
    try:
        return bits(fn(*args))
    except ValidationError as exc:
        return f"ValidationError: {exc}"


class TestRecoverMatchesOracle:
    @settings(max_examples=300, deadline=None)
    @given(pyramid_outputs(), st.sampled_from([0.5, 1.0, 0.32]),
           st.sampled_from([None, 5.0, 12.0, 100.0]),
           st.sampled_from([0.001, 0.3]), st.integers(1, 40))
    def test_exact(self, output, stride_sec, duration, thresh, topk):
        points, head_out = output
        args = (head_out, points, stride_sec, "v", duration, thresh, topk)
        want = outcome(oracle_recover_intervals, *args)
        assert outcome(recover_intervals, *args) == want

    def test_topk_cut_inside_a_tie_across_levels(self):
        # twelve candidates over two levels share one score; the cut at 5
        # falls among them and the start, label and end tie-breaks decide
        p = logit(0.5)
        points, head_out = multi_level_output([
            (1, [[p, p]] * 4, [1.0, 1.0] * 4, [True] * 4),
            (2, [[p, p]] * 2, [0.5, 0.5] * 2, [True] * 2),
        ])
        for topk in (1, 5, 11, 12, 13):
            got = recover_intervals(head_out, points, 1.0, "v", 100.0, pre_nms_topk=topk)
            assert got == oracle_recover_intervals(head_out, points, 1.0, "v", 100.0,
                                                   pre_nms_topk=topk)
            assert len(got) == min(topk, 12)

    def test_nan_boundary_raises(self):
        points, head_out = multi_level_output([(1, [[2.0]], [math.nan, 1.0], [True])])
        with pytest.raises(ValidationError, match="start < end"):
            recover_intervals(head_out, points, 1.0, "v", 10.0)

    def test_nan_boundary_below_threshold_ignored(self):
        points, head_out = multi_level_output([
            (1, [[-30.0], [2.0]], [math.nan, 1.0, 1.0, 1.0], [True, True])])
        assert len(recover_intervals(head_out, points, 1.0, "v", 10.0)) == 1


class TestWorkCount:
    def test_recover_builds_at_most_topk(self, monkeypatch):
        rng = np.random.default_rng(0)
        t, c = 2000, 5
        points, head_out = multi_level_output([
            (1, rng.uniform(0.0, 4.0, (t, c)), rng.uniform(0.2, 3.0, (t, 2)),
             np.ones(t, dtype=bool))])
        every = oracle_recover_intervals(head_out, points, 1.0, "v", float(t),
                                         pre_nms_topk=10 ** 6)
        assert len(every) == 10 ** 4
        built = count_intervals(monkeypatch)
        got = recover_intervals(head_out, points, 1.0, "v", float(t))
        assert got == every[:decode.PRE_NMS_TOPK]
        assert len(built) <= decode.PRE_NMS_TOPK

    def test_soft_nms_builds_one_per_result(self, monkeypatch):
        rng = np.random.default_rng(1)
        preds = []
        for _ in range(400):
            s = float(rng.uniform(0, 30))
            preds.append(iv(float(rng.uniform(0, 1)), s, s + float(rng.uniform(0.1, 5.0)),
                            label=int(rng.integers(0, 4))))
        built = count_intervals(monkeypatch)
        got = soft_nms(preds)
        assert 0 < len(got) < len(preds)
        assert len(built) == len(got)
