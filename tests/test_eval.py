"""Tests for tIoU, average precision and mAP reporting.

average_precision and mean_ap run on columns; they must equal, to the bit,
both oracle_ap and per_object_ap below, the one-prediction-at-a-time greedy
matcher they replaced.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soundloc import decode
from soundloc import evaluate
from soundloc.decode import Interval
from soundloc.errors import ConfigError, EmptyInputError
from soundloc.evaluate import (
    DEFAULT_THRESHOLDS,
    EvalReport,
    average_over_thresholds,
    average_precision,
    mean_ap,
    oracle_ap,
    tiou,
)


def iv(start, end, score=1.0, label=0, video="v"):
    return Interval(video, label, score, start, end)


def per_object_ap(preds: list[Interval], gts: list[Interval], tau: float) -> float:
    """Greedy matching one Interval at a time, with an all-point envelope."""
    if not gts or not preds:
        return 0.0

    gt_by_video: dict[str, list[tuple[int, Interval]]] = {}
    for gi, gt in enumerate(gts):
        gt_by_video.setdefault(gt.video_id, []).append((gi, gt))

    matched = np.zeros(len(gts), dtype=bool)
    ranked = sorted(preds, key=lambda p: (-p.score, p.start_sec))
    tp = np.zeros(len(ranked), dtype=bool)
    for pi, pred in enumerate(ranked):
        best = None
        for gi, gt in gt_by_video.get(pred.video_id, ()):
            if matched[gi]:
                continue
            ov = tiou(pred, gt)
            if ov < tau:
                continue
            key = (-ov, gt.start_sec, gi)
            if best is None or key < best[0]:
                best = (key, gi)
        if best is not None:
            matched[best[1]] = True
            tp[pi] = True

    tp_cum = np.cumsum(tp)
    precision = tp_cum / np.arange(1, len(ranked) + 1)
    recall = tp_cum / float(len(gts))
    envelope = np.maximum.accumulate(precision[::-1])[::-1]

    terms = []
    prev_recall = 0.0
    for i in range(len(ranked)):
        if tp[i]:
            terms.append((recall[i] - prev_recall) * envelope[i])
            prev_recall = recall[i]
    return math.fsum(terms)


def random_instance(rng, n_pred_max=50, n_gt_max=20, n_classes=3, n_videos=3):
    gts, preds = [], []
    for _ in range(int(rng.integers(1, n_gt_max + 1))):
        s = float(rng.uniform(0, 50))
        gts.append(iv(s, s + float(rng.uniform(0.5, 10)),
                      label=int(rng.integers(0, n_classes)),
                      video=f"v{rng.integers(0, n_videos)}"))
    for _ in range(int(rng.integers(0, n_pred_max + 1))):
        if gts and rng.random() < 0.5:
            base = gts[int(rng.integers(0, len(gts)))]
            s = max(0.0, base.start_sec + float(rng.normal(0, 2)))
            e = max(s + 0.25, base.end_sec + float(rng.normal(0, 2)))
            label, video = base.label_id, base.video_id
        else:
            s = float(rng.uniform(0, 50))
            e = s + float(rng.uniform(0.5, 10))
            label = int(rng.integers(0, n_classes))
            video = f"v{rng.integers(0, n_videos)}"
        preds.append(iv(s, e, score=float(rng.random()),
                        label=label, video=video))
    return preds, gts


class TestTiou:
    def test_identical(self):
        assert tiou(iv(1.0, 4.0), iv(1.0, 4.0)) == 1.0

    def test_hand_case(self):
        assert tiou(iv(0.0, 10.0), iv(5.0, 15.0)) == pytest.approx(1.0 / 3.0)

    def test_disjoint(self):
        assert tiou(iv(0.0, 1.0), iv(2.0, 3.0)) == 0.0


class TestAveragePrecision:
    def test_single_match(self):
        assert average_precision([iv(1.0, 3.0, 0.9)], [iv(1.0, 3.0)], 0.5) == 1.0

    def test_high_scored_fp_halves_ap(self):
        preds = [iv(20.0, 22.0, 0.9), iv(1.0, 3.0, 0.5)]
        gts = [iv(1.0, 3.0)]
        assert average_precision(preds, gts, 0.5) == 0.5

    def test_no_predictions(self):
        assert average_precision([], [iv(0.0, 1.0)], 0.5) == 0.0
        assert average_precision([iv(0.0, 1.0, 0.9)], [], 0.5) == 0.0
        assert average_precision([], [], 0.5) == 0.0

    def test_score_rescaling_invariance(self):
        rng = np.random.default_rng(0)
        preds, gts = random_instance(rng)
        base = average_precision(preds, gts, 0.3)
        scaled = [Interval(p.video_id, p.label_id, p.score * 0.5,
                           p.start_sec, p.end_sec) for p in preds]
        assert average_precision(scaled, gts, 0.3) == base

    def test_low_scored_disjoint_fp_never_raises_ap(self):
        rng = np.random.default_rng(1)
        for seed in range(20):
            preds, gts = random_instance(np.random.default_rng(seed))
            base = average_precision(preds, gts, 0.4)
            fp = iv(900.0, 901.0, score=1e-9, label=gts[0].label_id,
                    video=gts[0].video_id)
            with_fp = average_precision(preds + [fp], gts, 0.4)
            assert with_fp <= base + 1e-15

    def test_matches_restricted_to_same_video(self):
        preds = [iv(1.0, 3.0, 0.9, video="a")]
        gts = [iv(1.0, 3.0, video="b")]
        assert average_precision(preds, gts, 0.5) == 0.0

    @pytest.mark.parametrize("tau", [math.nan, 0.0, -0.5, 1.5])
    @pytest.mark.parametrize("ap", [average_precision, oracle_ap])
    def test_nan_threshold_rejected_like_mean_ap(self, ap, tau):
        # on one matching pair a NaN threshold would otherwise score 0.0 in
        # the column AP and 1.0 in the oracle; a threshold outside (0, 1]
        # fails the same rule
        preds, gts = [iv(1.0, 3.0, 0.9)], [iv(1.0, 3.0)]
        with pytest.raises(ConfigError) as want:
            mean_ap(preds, gts, thresholds=(tau,))
        for p, g in ((preds, gts), ([], [])):
            with pytest.raises(ConfigError) as got:
                ap(p, g, tau)
            assert str(got.value) == str(want.value)

    def test_each_gt_matched_once(self):
        preds = [iv(1.0, 3.0, 0.9), iv(1.0, 3.0, 0.8)]
        gts = [iv(1.0, 3.0)]
        # second (duplicate) prediction is a FP: AP stays 1.0 since the TP
        # ranks first
        assert average_precision(preds, gts, 0.5) == 1.0


class TestOracleEquivalence:
    def test_100_random_instances_exact(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            preds, gts = random_instance(rng)
            for tau in (0.1, 0.3, 0.5, 0.7):
                a = average_precision(preds, gts, tau)
                b = oracle_ap(preds, gts, tau)
                assert a == b == per_object_ap(preds, gts, tau), (
                    f"seed={seed} tau={tau}: {a} != {b}")

    def test_oracle_trivial_cases(self):
        assert oracle_ap([], [iv(0.0, 1.0)], 0.5) == 0.0
        assert oracle_ap([iv(0.0, 1.0, 0.9)], [iv(0.0, 1.0)], 0.5) == 1.0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 9))
    def test_property_equivalence(self, seed):
        rng = np.random.default_rng(seed)
        preds, gts = random_instance(rng, n_pred_max=20, n_gt_max=8)
        assert average_precision(preds, gts, 0.5) == oracle_ap(preds, gts, 0.5)


TAUS = (1e-12, 0.5, 1.0)


@st.composite
def eval_instances(draw):
    """Class-labelled predictions and GTs on a coarse grid, so that scores,
    starts and tIoUs tie; GTs per (video, class) up to 64, some classes and
    videos without GT."""
    n_videos = draw(st.integers(1, 4))
    n_classes = draw(st.integers(1, 3))
    coords = st.integers(0, 8)
    lengths = st.integers(1, 4)

    def interval(score, label, video):
        s = draw(coords)
        return Interval(f"v{video}", label, score, float(s), float(s + draw(lengths)))

    gts = []
    for _ in range(draw(st.integers(1, 4))):
        # a run of GTs in one (video, class) cell; one cell can reach 64
        label = draw(st.integers(0, n_classes - 1))
        video = draw(st.integers(0, n_videos - 1))
        for _ in range(draw(st.sampled_from([1, 2, 3, 8, 64]))):
            gts.append(interval(1.0, label, video))
    preds = []
    for _ in range(draw(st.integers(0, 80))):
        score = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]))
        # label n_classes has no GT; video n_videos has no GT
        preds.append(interval(score, draw(st.integers(0, n_classes)),
                              draw(st.integers(0, n_videos))))
    return draw(st.permutations(preds)), gts


class TestColumnKernel:
    @settings(max_examples=150, deadline=None)
    @given(eval_instances())
    def test_average_precision_equals_both_oracles(self, instance):
        preds, gts = instance
        for label in {g.label_id for g in gts} | {p.label_id for p in preds}:
            p = [x for x in preds if x.label_id == label]
            g = [x for x in gts if x.label_id == label]
            for tau in TAUS:
                got = average_precision(p, g, tau)
                assert got == oracle_ap(p, g, tau) == per_object_ap(p, g, tau)

    @settings(max_examples=100, deadline=None)
    @given(eval_instances())
    def test_mean_ap_equals_per_class_oracles(self, instance):
        preds, gts = instance
        report = mean_ap(preds, gts, thresholds=TAUS, class_names=["a", "b"])
        labels = sorted({g.label_id for g in gts})
        names = [("a", "b")[c] if c < 2 else str(c) for c in labels]
        assert list(report.per_class_ap) == names
        for c, name in zip(labels, names):
            p = [x for x in preds if x.label_id == c]
            g = [x for x in gts if x.label_id == c]
            assert report.per_class_ap[name] == [oracle_ap(p, g, t) for t in TAUS]
            assert report.per_class_ap[name] == [per_object_ap(p, g, t) for t in TAUS]
        for t, value in enumerate(report.map_per_threshold):
            aps = [report.per_class_ap[n][t] for n in names]
            assert value == math.fsum(aps) / len(aps)

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_chunked_tables_equal_the_oracle(self, monkeypatch, chunk):
        # chunk edges inside one video's predictions and at a video's
        # end; TAUS[1:] starts at 0.5, so pairs below 0.5 are dropped
        monkeypatch.setattr(evaluate, "_PAIR_CHUNK", chunk)
        for seed in range(20):
            preds, gts = random_instance(np.random.default_rng(seed), n_gt_max=30)
            for taus in (TAUS, TAUS[1:]):
                report = mean_ap(preds, gts, thresholds=taus)
                for c in sorted({g.label_id for g in gts}):
                    p = [x for x in preds if x.label_id == c]
                    g = [x for x in gts if x.label_id == c]
                    assert report.per_class_ap[str(c)] == [oracle_ap(p, g, t) for t in taus]
                    for t in taus:
                        assert average_precision(p, g, t) == oracle_ap(p, g, t)

    def test_one_video_table_memory(self):
        # 100 GTs and 10^4 predictions of one class in one video: 10^6
        # same-video pairs, of which 2.3% reach tIoU 0.1; the table of
        # every pair peaked at 66 MB
        rng = np.random.default_rng(0)
        gts = [iv(s, s + float(rng.uniform(2, 20)))
               for s in rng.uniform(0, 900, 100).tolist()]
        preds = [iv(s, s + float(rng.uniform(1, 30)), score=float(rng.random()))
                 for s in rng.uniform(0, 950, 10_000).tolist()]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            mean_ap(preds, gts)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 10e6, f"{peak / 1e6:.1f} MB"

    def test_disjoint_gt_is_never_eligible(self):
        preds = [iv(0.0, 1.0, 0.9), iv(5.0, 6.0, 0.8)]
        gts = [iv(5.0, 6.0)]
        # a threshold is an overlap: at tau 0 a disjoint GT (tIoU 0) would
        # be claimed, so tau 0 is rejected, and at the least tau above it
        # the first prediction is a false positive
        for ap in (average_precision, oracle_ap):
            with pytest.raises(ConfigError, match="thresholds"):
                ap(preds, gts, 0.0)
        assert average_precision(preds, gts, 1e-12) == 0.5
        assert oracle_ap(preds, gts, 1e-12) == 0.5

    def test_skipped_prediction_never_matches_later(self):
        # p0 takes g0 (tIoU 1); p1 overlaps only g0 and is skipped; p2 takes g1
        preds = [iv(0.0, 2.0, 0.9), iv(0.5, 2.0, 0.8), iv(4.0, 6.0, 0.7)]
        gts = [iv(0.0, 2.0), iv(4.0, 6.0)]
        tau = 0.5
        assert (average_precision(preds, gts, tau) == oracle_ap(preds, gts, tau)
                == per_object_ap(preds, gts, tau))

    def test_dense_instance_builds_no_interval_and_calls_no_tiou(self, monkeypatch):
        rng = np.random.default_rng(0)
        gts, preds = [], []
        for v in range(50):
            for c in range(3):
                s = float(rng.uniform(0, 50))
                gts.append(Interval(f"v{v}", c, 1.0, s, s + 5.0))
        for _ in range(10_000):
            s = float(rng.uniform(0, 55))
            preds.append(Interval(f"v{rng.integers(0, 50)}", int(rng.integers(0, 3)),
                                  float(rng.random()), s, s + float(rng.uniform(1, 9))))
        expected = mean_ap(preds, gts).to_dict()

        def forbidden(*args, **kwargs):
            raise AssertionError("per-object work in the column kernel")

        monkeypatch.setattr(evaluate, "tiou", forbidden)
        monkeypatch.setattr(decode.Interval, "__new__", forbidden)
        assert mean_ap(preds, gts).to_dict() == expected
        assert average_precision(preds[:500], gts, 0.5) >= 0.0


class TestMeanAp:
    def test_perfect_predictions(self):
        gts = [iv(1.0, 3.0, label=0), iv(5.0, 8.0, label=1)]
        preds = [iv(1.0, 3.0, 0.9, label=0), iv(5.0, 8.0, 0.9, label=1)]
        report = mean_ap(preds, gts)
        assert report.map_per_threshold == [1.0] * 5
        assert report.average_map == 1.0

    def test_empty_gt_rejected(self):
        with pytest.raises(EmptyInputError):
            mean_ap([], [])

    @pytest.mark.parametrize("thresholds", [(), (0.5, math.nan), (math.nan,),
                                            (0.0,), (-0.5,), (1.5,), (None,),
                                            ("0.5",), "0.5", 0.5, None,
                                            (True,)])
    def test_bad_thresholds_rejected_before_any_work(self, monkeypatch, thresholds):
        def forbidden(*args):
            raise AssertionError("no pair table for bad thresholds")

        monkeypatch.setattr(evaluate, "_pair_table", forbidden)
        gts = [iv(1.0, 3.0, label=0)]
        for preds, truth in (([iv(1.0, 3.0, 0.9)], gts), ([], [])):
            with pytest.raises(ConfigError, match="thresholds"):
                mean_ap(preds, truth, thresholds=thresholds)

    def test_thresholds_read_once(self):
        # a generator is used up by one pass: the check must not be that pass
        rng = np.random.default_rng(5)
        preds, gts = random_instance(rng)
        assert mean_ap(preds, gts, thresholds=(t for t in DEFAULT_THRESHOLDS)) \
            == mean_ap(preds, gts)

    def test_classes_without_gt_excluded(self):
        gts = [iv(1.0, 3.0, label=0)]
        preds = [iv(1.0, 3.0, 0.9, label=0), iv(4.0, 5.0, 0.9, label=7)]
        report = mean_ap(preds, gts)
        # label 7 has no ground truth: it must not drag the mean down
        assert report.average_map == 1.0

    def test_identical_threshold_values_average_to_same(self):
        gts = [iv(1.0, 3.0, label=0)]
        preds = [iv(1.0, 3.0, 0.9, label=0)]
        report = mean_ap(preds, gts, thresholds=(0.2, 0.2, 0.2))
        assert report.average_map == report.map_per_threshold[0]

    def test_average_equals_hand_mean(self):
        rng = np.random.default_rng(5)
        preds, gts = random_instance(rng)
        report = mean_ap(preds, gts)
        hand = math.fsum(report.map_per_threshold) / 5.0
        assert abs(report.average_map - hand) <= 1e-12

    def test_two_classes_under_one_name_rejected_before_any_work(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("no pair table for clashing names")

        monkeypatch.setattr(evaluate, "_pair_table", forbidden)
        gts = [iv(1.0, 3.0, label=0), iv(4.0, 6.0, label=5)]
        # label 5 has no name, so it takes "5", which label 0 is called
        with pytest.raises(ConfigError, match=r"classes \[0, 5\] share the name '5'"):
            mean_ap(gts, gts, thresholds=(0.5,), class_names=["5"])

    def test_counts(self):
        gts = [iv(1.0, 3.0, label=0), iv(4.0, 6.0, label=1)]
        preds = [iv(1.0, 3.0, 0.9, label=0)]
        report = mean_ap(preds, gts)
        assert report.num_gt == 2
        assert report.num_predictions == 1


class TestReportedAveraging:
    """One-decimal presentation of published-style threshold rows."""

    def row_average(self, percents):
        maps = [v / 100.0 for v in percents]
        return average_over_thresholds(maps)

    def test_weak_modality_row(self):
        avg = self.row_average([16.2, 13.5, 10.8, 8.4, 5.8])
        assert f"{100.0 * avg:.1f}" == "10.9"

    def test_fused_baseline_row(self):
        avg = self.row_average([18.8, 17.6, 15.9, 13.9, 11.3])
        assert f"{100.0 * avg:.1f}" == "15.5"

    def test_table_layout(self):
        report = EvalReport(
            thresholds=DEFAULT_THRESHOLDS,
            map_per_threshold=[0.162, 0.135, 0.108, 0.084, 0.058],
            average_map=self.row_average([16.2, 13.5, 10.8, 8.4, 5.8]),
        )
        table = report.format_table()
        lines = table.splitlines()
        assert "@0.1" in lines[0] and "Avg" in lines[0]
        assert lines[1].split()[0] == "model"
        assert lines[1].split()[-1] == "10.9"
