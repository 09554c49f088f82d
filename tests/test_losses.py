"""Tests for target assignment and the focal/DIoU objective."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soundloc import autodiff as ad
from soundloc.data import AnnotationSet, Event
from soundloc.errors import ShapeError, ValidationError
from soundloc.heads import HeadOutput
from soundloc.losses import (
    FOCAL_ALPHA,
    FOCAL_GAMMA,
    Assignment,
    _gather_rows,
    assign_targets,
    diou_loss,
    focal_loss,
    loss_sums,
    total_loss,
)
from tests import level_oracles
from tests.level_oracles import LevelPoints

flat = level_oracles.flatten

LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# the loss terms composed from elementwise tape ops: oracles for the fused ones

def focal_loss_oracle(logits, targets, alpha=FOCAL_ALPHA, gamma=FOCAL_GAMMA):
    tape = logits.tape
    y = tape.constant(np.asarray(targets, dtype=float))
    one = tape.constant(1.0)
    p = ad.sigmoid(logits)
    ce_pos = ad.softplus(ad.neg(logits))
    ce_neg = ad.softplus(logits)
    pos_term = ad.mul(ad.mul(tape.constant(alpha),
                             ad.pow_const(ad.sub(one, p), gamma)), ce_pos)
    neg_term = ad.mul(ad.mul(tape.constant(1.0 - alpha),
                             ad.pow_const(p, gamma)), ce_neg)
    elem = ad.add(ad.mul(y, pos_term), ad.mul(ad.sub(one, y), neg_term))
    return elem, ad.sum_all(elem)


def diou_loss_oracle(pred, target):
    tape = pred.tape
    tgt = np.asarray(target, dtype=float)
    squeeze = False
    if pred.values.ndim == 1:
        pred = ad.reshape(pred, (1, 2))
        squeeze = True
        tgt = tgt.reshape(1, 2)
    t = tape.constant(tgt)
    ds, de = ad.slice_cols(pred, 0, 1), ad.slice_cols(pred, 1, 2)
    ds_t, de_t = ad.slice_cols(t, 0, 1), ad.slice_cols(t, 1, 2)
    inter = ad.relu(ad.add(ad.minimum(de, de_t), ad.minimum(ds, ds_t)))
    len_p = ad.add(ds, de)
    len_g = ad.add(ds_t, de_t)
    union = ad.sub(ad.add(len_p, len_g), inter)
    iou = ad.div(inter, union)
    half = tape.constant(0.5)
    center_gap = ad.mul(ad.sub(ad.sub(de, ds), ad.sub(de_t, ds_t)), half)
    enclose = ad.add(ad.maximum(de, de_t), ad.maximum(ds, ds_t))
    penalty = ad.square(ad.div(center_gap, enclose))
    loss = ad.add(ad.sub(tape.constant(1.0), iou), penalty)
    if squeeze:
        return ad.reshape(loss, ())
    return loss


def value_and_grad(loss_fn, dtype, x0, weights):
    """Loss values and d(sum(loss * weights))/dx for a fresh leaf x."""
    t = ad.Tape(dtype=dtype)
    x = t.leaf(x0)
    out = loss_fn(x)
    ad.backward(t, ad.sum_all(ad.mul(out, t.constant(weights))))
    return out.values, x.grad


def rel_err(got, want):
    """Largest difference relative to the largest magnitude of ``want``."""
    scale = max(float(np.abs(want).max()), np.finfo(np.float64).tiny)
    return float(np.abs(got.astype(np.float64) - want).max()) / scale


# float32 gap between the fused losses and the composed oracles; on numpy
# 2.4 (x86-64) they agree bit for bit
FUSED_F32_TOL = 1e-6


def single_level_points(t=12, stride=1, rmax=math.inf):
    ts = (np.arange(t, dtype=np.float64) + 0.5) * stride
    return flat([LevelPoints(ts, stride, 0.0, rmax)])


def ann(events, duration=20.0, c=3):
    return AnnotationSet("v", duration, [Event(*e) for e in events],
                         [f"class{j}" for j in range(c)])


class TestAssignment:
    def test_center_point_of_event(self):
        # event [2, 6] on a stride-1 level: the grid point at 4 (well, 4.5
        # given half-step timestamps; use 3.5 and 4.5 around the center 4)
        pts = flat([LevelPoints(np.array([4.0]), 1, 0.0, math.inf)])
        a = assign_targets(pts, ann([(1, 2.0, 6.0)]), 1.0, 3)
        assert a.positive[0]
        np.testing.assert_array_equal(a.cls_targets[0], [0, 1, 0])
        np.testing.assert_allclose(a.reg_targets[0], [2.0, 2.0])
        assert a.t_plus == 1

    def test_point_outside_events_is_background(self):
        pts = flat([LevelPoints(np.array([10.0]), 1, 0.0, math.inf)])
        a = assign_targets(pts, ann([(0, 2.0, 6.0)]), 1.0, 3)
        assert not a.positive[0]
        assert a.t_plus == 0
        assert (a.cls_targets == 0).all()

    def test_center_sampling_window_excludes_far_inside_points(self):
        # point inside the event but farther than 1.5 strides from center
        pts = flat([LevelPoints(np.array([2.5]), 1, 0.0, math.inf)])
        a = assign_targets(pts, ann([(0, 0.0, 16.0)]), 1.0, 3)
        assert not a.positive[0]

    def test_shorter_event_wins_nested(self):
        pts = flat([LevelPoints(np.array([5.0]), 1, 0.0, math.inf)])
        events = [(0, 1.0, 9.0), (2, 4.0, 6.0)]  # both qualify at t=5
        a = assign_targets(pts, ann(events), 1.0, 3)
        assert a.positive[0]
        np.testing.assert_array_equal(a.cls_targets[0], [0, 0, 1])
        # brute-force recheck of the rule on the enumerated candidates
        cands = []
        for ei, (label, s, e) in enumerate(events):
            center = (s + e) / 2
            if max(s, center - 1.5) <= 5.0 <= min(e, center + 1.5):
                cands.append((e - s, s, label, ei))
        assert min(cands)[3] == 1

    def test_tie_break_earlier_start_then_label(self):
        pts = flat([LevelPoints(np.array([5.0]), 1, 0.0, math.inf)])
        a = assign_targets(pts, ann([(2, 4.0, 6.0), (1, 4.0, 6.0)]), 1.0, 3)
        np.testing.assert_array_equal(a.cls_targets[0], [0, 1, 0])
        # equal lengths: the earlier start wins over the lower label
        pts = flat([LevelPoints(np.array([5.5]), 1, 0.0, math.inf)])
        a = assign_targets(pts, ann([(1, 4.0, 8.0), (2, 3.0, 7.0)]), 1.0, 3)
        np.testing.assert_array_equal(a.cls_targets[0], [0, 0, 1])

    def test_regression_range_routes_levels(self):
        # same event, two levels: only the level whose range holds the
        # event's max boundary distance takes the point
        ts0 = np.array([8.0])
        ts1 = np.array([8.0])
        pts = flat([
            LevelPoints(ts0, 1, 0.0, 4.0),
            LevelPoints(ts1, 2, 4.0, math.inf),
        ])
        a = assign_targets(pts, ann([(0, 2.0, 9.0)]), 1.0, 3)
        # max(8-2, 9-8) = 6: outside [0,4), inside [4,inf)
        assert not a.positive[0]
        assert a.positive[1]
        np.testing.assert_allclose(a.reg_targets[1], [3.0, 0.5])

    def test_empty_annotations_all_background(self):
        pts = single_level_points()
        a = assign_targets(pts, ann([]), 1.0, 3)
        assert a.t_plus == 0

    def test_tie_on_every_key_keeps_the_first_event(self):
        # equal keys mean equal events: the targets are the same either way
        pts = flat([LevelPoints(np.array([5.0]), 1, 0.0, math.inf)])
        a = assign_targets(pts, ann([(1, 4.0, 6.0), (1, 4.0, 6.0)]), 1.0, 3)
        assert a.t_plus == 1
        np.testing.assert_array_equal(a.cls_targets[0], [0, 1, 0])

    def test_t_plus_counts_positive_rows(self):
        pts = flat([LevelPoints((np.arange(20) + 0.5), 1, 0.0, math.inf)])
        a = assign_targets(pts, ann([(0, 2.0, 9.0), (2, 12.0, 14.0)]), 1.0, 3)
        assert a.t_plus == int(a.positive.sum()) > 0
        assert (a.cls_targets.sum(axis=1) == a.positive).all()


def random_levels(rng):
    """A random pyramid lattice: 1 to 5 levels, ranges as generate_points makes."""
    n = int(rng.integers(1, 6))
    strides = np.cumprod(np.concatenate(([1], rng.choice([1, 2], n - 1))))
    base = float(rng.choice([4.0, 2.0, 1.0]))
    length = int(rng.integers(1, 33))
    levels, prev = [], 0
    for k, stride in enumerate(strides.tolist()):
        t = max(1, -(-length // stride))
        hi = math.inf if k == n - 1 else base * stride
        levels.append(LevelPoints((np.arange(t) + 0.5) * stride, stride,
                                  base * prev, hi))
        prev = stride
    return levels, length


def random_events(rng, length, levels):
    """Events with tied keys, boundaries on the lattice and on range edges."""
    events = []
    for _ in range(int(rng.integers(0, 7))):
        kind = int(rng.integers(0, 4))
        if kind == 0 and events:   # an earlier event's length, maybe shifted
            label, s, e = events[int(rng.integers(0, len(events)))]
            shift = float(rng.choice([0.0, 0.0, -0.5, 0.5]))
            events.append((int(rng.integers(0, 3)) if rng.random() < 0.5 else label,
                           max(s + shift, 0.0), max(s + shift, 0.0) + (e - s)))
            continue
        if kind == 1:   # boundaries on half-steps, where points sit
            s = float(rng.integers(0, 2 * length)) / 2
            e = s + float(rng.integers(1, 2 * length)) / 2
        elif kind == 2 and len(levels) > 1:   # farthest boundary on a range edge
            edge = levels[int(rng.integers(1, len(levels)))].range_min
            lvl = levels[int(rng.integers(0, len(levels)))]
            ts = lvl.timestamps[lvl.timestamps >= edge]
            t = float(rng.choice(ts)) if ts.size else edge
            s, e = t - edge, t + edge * float(rng.uniform(0.5, 1.0))
        else:
            s = float(rng.uniform(0, length))
            e = s + float(rng.uniform(0.25, length))
        events.append((int(rng.integers(0, 3)), s, e))
    return events


class TestAssignmentMatchesOracle:
    @pytest.mark.parametrize("seed", range(60))
    def test_exact(self, seed):
        rng = np.random.default_rng(seed)
        levels, length = random_levels(rng)
        events = random_events(rng, length, levels)
        stride_sec = float(rng.choice([1.0, 0.5, 0.32]))
        scaled = [(c, s * stride_sec, e * stride_sec) for c, s, e in events]
        annotation = ann(scaled, duration=4.0 * length)
        got = assign_targets(flat(levels), annotation, stride_sec, 3)
        want = level_oracles.assign_targets(levels, annotation, stride_sec, 3)
        for name in ("cls_targets", "positive", "reg_targets"):
            g, w = getattr(got, name), np.concatenate(getattr(want, name))
            assert g.dtype == w.dtype and np.array_equal(g, w), name
        assert got.t_plus == want.t_plus

    @pytest.mark.parametrize("seed", range(20))
    def test_loss_sums_match_the_per_level_sums(self, seed):
        # one focal record and one DIoU record over all rows: the gradient
        # of every level's outputs is exact, the sums move only by the order
        # of their float64 additions
        rng = np.random.default_rng(seed)
        levels, length = random_levels(rng)
        annotation = ann(random_events(rng, length, levels), duration=4.0 * length)
        want_a = level_oracles.assign_targets(levels, annotation, 1.0, 3)
        got_a = assign_targets(flat(levels), annotation, 1.0, 3)
        logits = [rng.normal(size=(lvl.timestamps.size, 3)) for lvl in levels]
        raw = [rng.normal(size=(lvl.timestamps.size, 2)) for lvl in levels]

        def run(flat_layout):
            tape = ad.Tape(dtype=np.float64)
            lg = [tape.leaf(x) for x in logits]
            rw = [tape.leaf(x) for x in raw]
            heads = level_oracles.LevelHeads(lg, rw, [ad.softplus(r) for r in rw])
            if flat_layout:
                _, out = flat(levels, heads)
                sums = loss_sums(out, got_a)
            else:
                sums = level_oracles.loss_sums(heads, want_a)
            ad.backward(tape, ad.add(sums[0], ad.mul(tape.constant(0.7), sums[1])))
            return ([float(x.values) for x in sums[:2]], sums[2],
                    [x.grad for x in lg + rw])

        got, got_pos, got_grads = run(True)
        want, want_pos, want_grads = run(False)
        assert got_pos == want_pos
        np.testing.assert_allclose(got, want, rtol=1e-12)
        for x, g, w in zip(logits + raw, got_grads, want_grads):
            # a level without positives gets no DIoU gradient per level, and
            # zeros from the flat gather
            zero = np.zeros_like(x)
            assert np.array_equal(zero if g is None else g, zero if w is None else w)

    def test_cases_reach_ties_edges_and_empty_videos(self):
        # the random cases above do cover what they claim to
        ties = edges = empty = 0
        for seed in range(60):
            rng = np.random.default_rng(seed)
            levels, length = random_levels(rng)
            events = random_events(rng, length, levels)
            keys = [(e - s, s) for _, s, e in events]
            ties += len(set(keys)) < len(keys)
            empty += not events
            pts = flat(levels)
            for _, s, e in events:
                far = np.maximum(pts.timestamps - s, e - pts.timestamps)
                edges += bool(np.isin(far, pts.range_min[pts.range_min > 0]).any())
        assert min(ties, edges, empty) >= 3, (ties, edges, empty)


class TestFocal:
    def test_closed_form_positive(self):
        t = ad.Tape(dtype=np.float64)
        elem, total = focal_loss(t.leaf(np.zeros((1, 1))), np.ones((1, 1)))
        np.testing.assert_allclose(float(total.values), 0.25 * 0.25 * LN2,
                                   atol=1e-6)
        np.testing.assert_allclose(float(total.values), 0.043322, atol=1e-6)

    def test_closed_form_negative(self):
        t = ad.Tape(dtype=np.float64)
        _, total = focal_loss(t.leaf(np.zeros((1, 1))), np.zeros((1, 1)))
        np.testing.assert_allclose(float(total.values), 0.75 * 0.25 * LN2,
                                   atol=1e-6)
        np.testing.assert_allclose(float(total.values), 0.129965, atol=1e-6)

    def test_perfect_positive_vanishes(self):
        t = ad.Tape(dtype=np.float64)
        _, total = focal_loss(t.leaf(np.full((1, 1), 30.0)), np.ones((1, 1)))
        assert float(total.values) < 1e-12

    def test_large_logits_stay_finite(self):
        t = ad.Tape(dtype=np.float64)
        logits = t.leaf(np.array([[500.0, -500.0]]))
        elem, total = focal_loss(logits, np.array([[0.0, 1.0]]))
        assert np.isfinite(elem.values).all()
        ad.backward(t, total)
        assert np.isfinite(logits.grad).all()

    def test_grad_check_20_configs(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            targets = (rng.random((3, 4)) < 0.3).astype(float)
            err = ad.grad_check(
                lambda v: focal_loss(v, targets)[1],
                rng.normal(size=(3, 4)) * 2)
            assert err <= 1e-4, seed


class TestDiou:
    def loss_of(self, pred, target):
        t = ad.Tape(dtype=np.float64)
        return float(diou_loss(t.leaf(np.asarray(pred, dtype=float)),
                               np.asarray(target, dtype=float)).values)

    def test_identical_intervals_zero(self):
        assert self.loss_of([1.5, 2.5], [1.5, 2.5]) == 0.0

    def test_hand_case_overlapping(self):
        # intervals [1,3] and [2,4] around t=2: IoU 1/3, centers 2 vs 3,
        # enclosing span 3
        got = self.loss_of([1.0, 1.0], [0.0, 2.0])
        np.testing.assert_allclose(got, 7.0 / 9.0, atol=1e-9)

    def test_hand_case_disjoint(self):
        # intervals [0,1] and [2,3] around t=1: loss exceeds 1
        got = self.loss_of([1.0, 0.0], [-1.0, 2.0])
        np.testing.assert_allclose(got, 1.0 + 4.0 / 9.0, atol=1e-9)

    def test_degenerate_prediction_defined(self):
        got = self.loss_of([0.0, 0.0], [1.0, 1.0])
        assert np.isfinite(got)
        # zero-length prediction at the target center: IoU 0, no center gap
        np.testing.assert_allclose(got, 1.0, atol=1e-12)

    def test_degenerate_target_rejected(self):
        t = ad.Tape(dtype=np.float64)
        with pytest.raises(ValidationError):
            diou_loss(t.leaf(np.array([1.0, 1.0])), np.array([0.5, -0.5]))

    def test_negative_prediction_rejected(self):
        t = ad.Tape(dtype=np.float64)
        with pytest.raises(ValidationError):
            diou_loss(t.leaf(np.array([-0.1, 1.0])), np.array([1.0, 1.0]))

    def test_bounded_below_two(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            pred = rng.random(2) * 5
            tgt = rng.random(2) * 5 + 0.05
            val = self.loss_of(pred, tgt)
            assert 0.0 <= val < 2.0

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=1e-3, max_value=1e3))
    def test_scale_invariance(self, k):
        pred = np.array([0.7, 1.9])
        tgt = np.array([1.2, 0.4])
        base = self.loss_of(pred, tgt)
        scaled = self.loss_of(pred * k, tgt * k)
        np.testing.assert_allclose(scaled, base, atol=1e-9, rtol=1e-9)

    def test_grad_check_20_configs(self):
        checked = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            pred = rng.random((4, 2)) * 3 + 0.05
            tgt = rng.random((4, 2)) * 3 + 0.05
            # skip ties (measure-zero non-differentiable points)
            if np.isclose(pred, tgt).any():
                continue
            err = ad.grad_check(lambda v: ad.sum_all(diou_loss(v, tgt)), pred)
            assert err <= 1e-4, seed
            checked += 1
            if checked >= 20:
                break
        assert checked >= 20


class TestTotalLoss:
    def fake_output(self, tape, t=8, c=3, seed=0):
        rng = np.random.default_rng(seed)
        logits = tape.leaf(rng.normal(size=(t, c)))
        raw = tape.leaf(rng.normal(size=(t, 2)))
        return HeadOutput(logits, ad.softplus(raw)), raw

    def fake_assignment(self, t=8, c=3, positives=()):
        cls_t = np.zeros((t, c), dtype=np.float32)
        pos = np.zeros(t, dtype=bool)
        reg_t = np.zeros((t, 2), dtype=np.float32)
        for i, label, ds, de in positives:
            pos[i] = True
            cls_t[i, label] = 1.0
            reg_t[i] = (ds, de)
        return Assignment(cls_t, pos, reg_t)

    def test_background_only_guard(self):
        tape = ad.Tape(dtype=np.float64)
        out, _ = self.fake_output(tape)
        total, bd = total_loss(out, self.fake_assignment())
        assert bd["t_plus"] == 0
        assert bd["l_reg"] == 0.0
        np.testing.assert_allclose(float(total.values), bd["l_cls"])

    def test_lambda_zero_matches_focal_only(self):
        tape = ad.Tape(dtype=np.float64)
        out, _ = self.fake_output(tape, seed=2)
        a = self.fake_assignment(positives=[(3, 1, 1.0, 2.0)])
        total, bd = total_loss(out, a, lambda_reg=0.0)
        _, focal_sum = focal_loss(out.cls_logits, a.cls_targets)
        np.testing.assert_allclose(float(total.values),
                                   float(focal_sum.values) / 1.0, rtol=1e-12)

    def test_single_perfect_positive_vanishes(self):
        tape = ad.Tape(dtype=np.float64)
        t, c = 4, 2
        logits = np.full((t, c), -40.0)
        logits[1, 0] = 40.0
        raw = np.full((t, 2), -20.0)       # softplus ~ 0
        raw[1] = [10.0, 10.0]              # softplus(10) ~ 10
        lt = tape.leaf(logits)
        rt = tape.leaf(raw)
        out = HeadOutput(lt, ad.softplus(rt))
        ds = float(out.distances.values[1, 0])
        a = self.fake_assignment(t=t, c=c, positives=[(1, 0, ds, ds)])
        total, _ = total_loss(out, a)
        assert float(total.values) < 1e-4

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        perm = rng.permutation(8)

        tape = ad.Tape(dtype=np.float64)
        out, raw = self.fake_output(tape, seed=5)
        a = self.fake_assignment(positives=[(2, 0, 0.5, 1.0), (6, 2, 1.0, 0.25)])
        base, _ = total_loss(out, a)

        tape2 = ad.Tape(dtype=np.float64)
        raw2 = tape2.leaf(raw.values[perm])
        out2 = HeadOutput(tape2.leaf(out.cls_logits.values[perm]),
                          ad.softplus(raw2))
        a2 = Assignment(a.cls_targets[perm], a.positive[perm], a.reg_targets[perm])
        permuted, _ = total_loss(out2, a2)
        np.testing.assert_allclose(float(base.values), float(permuted.values),
                                   rtol=1e-12)

    def test_gradients_reach_inputs(self):
        tape = ad.Tape(dtype=np.float64)
        out, raw = self.fake_output(tape, seed=7)
        a = self.fake_assignment(positives=[(4, 1, 1.0, 1.0)])
        total, _ = total_loss(out, a)
        ad.backward(tape, total)
        assert out.cls_logits.grad is not None
        assert raw.grad is not None
        assert np.isfinite(raw.grad).all()


def focal_cases():
    rng = np.random.default_rng(21)
    for case in range(12):
        shape = (int(rng.integers(1, 9)), int(rng.integers(1, 5)))
        logits = rng.normal(size=shape) * 4.0
        logits.flat[0] = (30.0, -30.0, 60.0, 0.0)[case % 4]
        targets = (rng.random(shape) < 0.4).astype(float)
        alpha, gamma = ((FOCAL_ALPHA, FOCAL_GAMMA), (0.5, 1.5), (0.1, 3.0))[case % 3]
        yield logits, targets, alpha, gamma, rng.normal(size=shape)


def diou_cases():
    rng = np.random.default_rng(22)
    for case in range(12):
        n, width = int(rng.integers(1, 9)), 2 + case % 2
        pred = rng.random((n, width)) * 3.0
        tgt = rng.random((n, 2)) * 3.0 + 0.05
        if case % 3 < 2:   # a tie in one boundary, where min and max route
            pred[0, case % 3] = tgt[0, case % 3]
        pred[-1, 0] = 0.0
        yield pred, tgt, rng.normal(size=(n, 1))
    yield np.array([0.7, 1.9]), np.array([1.2, 0.4]), np.array(1.3)


class TestFusedMatchesComposed:
    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12),
                                           (np.float32, FUSED_F32_TOL)])
    def test_focal(self, dtype, tol):
        for logits, targets, alpha, gamma, w in focal_cases():
            got, got_g = value_and_grad(
                lambda v: focal_loss(v, targets, alpha, gamma)[0], dtype, logits, w)
            want, want_g = value_and_grad(
                lambda v: focal_loss_oracle(v, targets, alpha, gamma)[0],
                dtype, logits, w)
            assert got.dtype == got_g.dtype == dtype
            assert rel_err(got, want) <= tol
            assert rel_err(got_g, want_g) <= tol

    def test_focal_sum_is_the_sum_of_elements(self):
        logits, targets, alpha, gamma, _ = next(focal_cases())
        t = ad.Tape(dtype=np.float64)
        elem, total = focal_loss(t.leaf(logits), targets, alpha, gamma)
        assert float(total.values) == elem.values.sum()

    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12),
                                           (np.float32, FUSED_F32_TOL)])
    def test_diou(self, dtype, tol):
        for pred, tgt, w in diou_cases():
            got, got_g = value_and_grad(lambda v: diou_loss(v, tgt), dtype, pred, w)
            want, want_g = value_and_grad(lambda v: diou_loss_oracle(v, tgt),
                                          dtype, pred, w)
            assert got.shape == want.shape and got.dtype == dtype
            assert rel_err(got, want) <= tol
            assert rel_err(got_g, want_g) <= tol
            if pred.ndim == 2:
                assert (got_g[:, 2:] == 0).all()   # extra columns get nothing

    def test_diou_grad_check_wide_and_single(self):
        rng = np.random.default_rng(23)
        pred = rng.random((5, 3)) * 3 + 0.05
        tgt = rng.random((5, 2)) * 3 + 0.05
        assert ad.grad_check(lambda v: ad.sum_all(diou_loss(v, tgt)), pred) <= 1e-4
        assert ad.grad_check(lambda v: diou_loss(v, tgt[0]), pred[0, :2]) <= 1e-4

    def test_one_record_each(self):
        t = ad.Tape(dtype=np.float64)
        logits = t.leaf(np.zeros((6, 3)))
        focal_loss(logits, np.zeros((6, 3)))
        diou_loss(t.leaf(np.ones((6, 2))), np.ones((6, 2)))
        diou_loss(t.leaf(np.ones(2)), np.ones(2))
        # focal: the elements and their sum; each DIoU call: one
        assert len(t._nodes) == 4

    def test_shapes_checked(self):
        t = ad.Tape(dtype=np.float64)
        with pytest.raises(ShapeError, match="focal targets"):
            focal_loss(t.leaf(np.zeros((2, 3))), np.zeros((2, 1)))
        with pytest.raises(ShapeError, match=r"\(N, >=2\)"):
            diou_loss(t.leaf(np.ones((3, 1))), np.ones((3, 2)))
        with pytest.raises(ShapeError, match=r"\(N, >=2\)"):
            diou_loss(t.leaf(np.ones(3)), np.ones(2))
        with pytest.raises(ShapeError, match="targets have shape"):
            diou_loss(t.leaf(np.ones((3, 2))), np.ones((2, 2)))


class TestGatherRows:
    def test_backward_matches_np_add_at(self):
        rng = np.random.default_rng(24)
        for dtype in (np.float32, np.float64):
            x0 = rng.normal(size=(9, 2))
            idx = np.nonzero(rng.random(9) < 0.5)[0]
            w = rng.normal(size=(idx.size, 2))
            t = ad.Tape(dtype=dtype)
            x = t.leaf(x0)
            rows = _gather_rows(x, idx)
            assert rows.values.tobytes() == x.values[idx].tobytes()
            ad.backward(t, ad.sum_all(ad.mul(rows, t.constant(w))))
            want = np.zeros((9, 2), dtype=dtype)
            np.add.at(want, idx, w.astype(dtype))
            assert x.grad.tobytes() == want.tobytes()
