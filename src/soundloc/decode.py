"""Turn one video's head outputs into scored interval predictions.

recover_intervals thresholds the per-point class probabilities, converts the
stride-normalized boundary distances back to seconds and keeps the top
candidates, in one pass over the head outputs' rows (one per pyramid point,
levels end to end); soft_nms decays overlapping ones per class and keeps the
best max_out; select_top_k turns those rows into Interval objects.
The stages pass Candidates, columns with one row per candidate in
(-score, start, label, end) order, so a permuted input yields an identical
output.

soft_nms returns the first max_out rows of per-class soft-NMS, the only rows
predict keeps, and does only the work they need:

* A pick decays only the rows it overlaps, so each class is cut into overlap
  clusters (its rows sorted by start, cut wherever a start is at or after
  every earlier end) that run side by side: every live cluster picks once
  per round, in the order its class would. The rounds number at most the
  largest cluster's rows, and at most max_out. Within a class the output
  order is the pick order, so the first max_out output rows hold at most
  max_out of any class, as the per-class cap requires. Hard suppression at
  a threshold <= 0 reaches every row of a class, which is then one cluster.
* No pick scores more than its row does now. Once max_out rows are picked,
  a row below the max_out-th best picked score cannot enter the output and
  is dropped; the rounds end when no row is left.

The rows are sorted once per call, by (label, start, end), so the first row
at a cluster's best score is the one the (start, end) tie rule picks, and
the picks once more into output order. Overlaps come from overlap_tiou, the
column tIoU that evaluate uses too, and the gaussian factor from math.exp,
not np.exp, whose vectorized kernels can differ from the C library's exp
by one ulp: the scores match a one-candidate-at-a-time implementation to
the bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, ValidationError
from .heads import HeadOutput, PointSet


def _check_suppression(method: str, sigma: float) -> None:
    """The rule for the suppression settings, in either mode; NaN fails it."""
    if method not in ("gaussian", "hard"):
        raise ConfigError(f"method must be 'gaussian' or 'hard', got {method!r}")
    if not sigma > 0:
        raise ConfigError(f"sigma must be > 0, got {sigma}")


@dataclass
class DecodeConfig:
    """Every decode setting; the fields' defaults are the functions' too."""

    score_thresh: float = 0.001
    pre_nms_topk: int = 2000
    method: str = "gaussian"
    sigma: float = 0.5
    iou_thresh: float = 0.5
    min_score: float = 0.001
    max_out: int = 200

    def validate(self) -> None:
        # written as `not (ok)` so that NaN fails every check
        _check_suppression(self.method, self.sigma)
        if not 0 <= self.iou_thresh <= 1:
            raise ConfigError(f"iou_thresh must be in [0, 1], got {self.iou_thresh}")
        if not 0 <= self.score_thresh <= 1:
            raise ConfigError(
                f"score_thresh must be in [0, 1], got {self.score_thresh}")
        if not self.min_score >= 0:
            raise ConfigError(f"min_score must be >= 0, got {self.min_score}")
        if min(self.pre_nms_topk, self.max_out) < 1:
            raise ConfigError(
                f"pre_nms_topk and max_out must be >= 1, got "
                f"{self.pre_nms_topk} and {self.max_out}")


class _IntervalFields(NamedTuple):
    video_id: str
    label_id: int
    score: float
    start_sec: float
    end_sec: float


class Interval(_IntervalFields):
    """A scored detection or a ground-truth event, checked when built.

    A named tuple, which is cheaper to build than a frozen dataclass.
    """

    __slots__ = ()

    def __new__(cls, video_id: str, label_id: int, score: float,
                start_sec: float, end_sec: float) -> Interval:
        if not (-math.inf < start_sec < end_sec < math.inf):
            raise ValidationError(
                f"interval must have finite start < end, got "
                f"[{start_sec}, {end_sec}]")
        if not 0.0 <= score <= 1.0:   # NaN and +-inf fail too
            raise ValidationError(f"score must be finite in [0, 1], got {score}")
        return tuple.__new__(cls, (video_id, label_id, score, start_sec, end_sec))

    @classmethod
    def _make(cls, iterable) -> Interval:
        """Checked like the constructor; ``_replace`` goes through it."""
        return cls(*iterable)


@dataclass(frozen=True, slots=True, eq=False)
class Candidates:
    """One video's candidate intervals as columns: int64 label, float64 rest."""

    label: np.ndarray
    score: np.ndarray
    start: np.ndarray
    end: np.ndarray

    def __len__(self) -> int:
        return self.score.size

    def take(self, rows) -> Candidates:
        return Candidates(self.label[rows], self.score[rows], self.start[rows],
                          self.end[rows])


def recover_intervals(head_out: HeadOutput, points: PointSet, stride_sec: float,
                      duration_sec: float,
                      score_thresh: float = DecodeConfig.score_thresh,
                      pre_nms_topk: int = DecodeConfig.pre_nms_topk) -> Candidates:
    """Candidate intervals from every (point, class) above threshold.

    Boundaries are t -/+ d * stride (grid units) scaled to seconds and
    clamped to [0, duration]; zero-length results after clamping are dropped,
    and only the pre_nms_topk best-scored candidates survive.
    """
    probs = 1.0 / (1.0 + np.exp(-np.asarray(head_out.cls_logits.values,
                                            dtype=np.float64)))
    d = np.asarray(head_out.distances.values, dtype=np.float64)
    ts, strides = points.timestamps, points.strides
    starts = np.clip((ts - d[:, 0] * strides) * stride_sec, 0.0, duration_sec)
    ends = np.clip((ts + d[:, 1] * strides) * stride_sec, 0.0, duration_sec)
    # one row per candidate, in (point, class) order; a NaN boundary passes
    # this mask and is rejected below, as Interval rejects it
    point_ok = ~(starts >= ends)
    pt, label = np.nonzero((probs >= score_thresh) & point_ok[:, None])
    score, start, end = probs[pt, label], starts[pt], ends[pt]

    # starts are clipped at 0, so this is Interval's rule
    bad = np.flatnonzero(~((start < end) & (end < np.inf)))
    if bad.size:
        i = bad[0]
        raise ValidationError(
            f"interval must have finite start < end, got "
            f"[{float(start[i])}, {float(end[i])}]")

    rows = np.arange(score.size)
    if 0 < pre_nms_topk < score.size:
        # a row scored below the k-th best cannot make the cut
        kth = np.partition(score, score.size - pre_nms_topk)[score.size - pre_nms_topk]
        rows = np.flatnonzero(score >= kth)
    order = rows[np.lexsort((end[rows], label[rows], start[rows], -score[rows]))]
    return Candidates(label, score, start, end).take(order[:pre_nms_topk])


def overlap_tiou(a_start, a_end, b_start, b_end) -> tuple[np.ndarray, np.ndarray]:
    """The rows where intervals a and b overlap, and their tIoU there.

    The arithmetic is that of evaluate.tiou, so each value equals it to the
    bit; every other row has tIoU 0.
    """
    inter = np.minimum(a_end, b_end) - np.maximum(a_start, b_start)
    hit = (~(inter <= 0)).nonzero()[0]
    i = inter[hit]
    return hit, i / ((a_end[hit] - a_start[hit]) + (b_end[hit] - b_start[hit]) - i)


def _run_starts(key: np.ndarray) -> np.ndarray:
    """True where a run of equal values in a sorted key begins."""
    first = np.empty(key.size, dtype=bool)
    first[:1] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    return first


def soft_nms(cands: Candidates, sigma: float = DecodeConfig.sigma,
             method: str = DecodeConfig.method,
             iou_thresh: float = DecodeConfig.iou_thresh,
             min_score: float = DecodeConfig.min_score,
             max_out: int = DecodeConfig.max_out) -> Candidates:
    """Score-decaying suppression per class; the best max_out results.

    Gaussian mode multiplies competitors by exp(-IoU^2 / sigma); hard mode
    zeroes them at IoU >= iou_thresh (so a threshold of 1 removes only exact
    duplicates). A class picks its best row, decays the rest against it and
    repeats, until it has max_out picks or everything left is below
    min_score (its first pick is made whatever its score). The picks carry
    their decayed scores; the first max_out of them in
    (-score, start, label, end) order are returned. The method and sigma
    follow DecodeConfig's rule: sigma > 0 in hard mode too.

    The rounds run per overlap cluster, not per class, and stop once no
    later pick could enter the result; see the module docstring.
    """
    _check_suppression(method, sigma)
    if not len(cands) or max_out < 1:
        return cands.take(slice(0))

    # rows in (label, start, end) order: in each class, and in each cluster,
    # the first row at a score is the one the (start, end) tie rule picks
    rows = np.lexsort((cands.end, cands.start, cands.label))
    label, s = cands.label[rows], cands.score[rows]
    # a row below min_score can only be its class's first pick, its best row
    keep = s >= min_score
    if not keep.all():
        lo = _run_starts(label).nonzero()[0]
        hi = np.append(lo[1:], label.size)
        for i in (~np.logical_or.reduceat(keep, lo)).nonzero()[0].tolist():
            keep[lo[i] + s[lo[i]:hi[i]].argmax()] = True
        rows, label = rows[keep], label[keep]
    s, a, b = cands.score[rows], cands.start[rows], cands.end[rows]

    # clusters: a class's rows cut wherever a start is at or after every
    # earlier end; hard suppression at a threshold <= 0 reaches every row
    cut = _run_starts(label)
    if method == "gaussian" or iou_thresh > 0:
        bounds = np.append(cut.nonzero()[0], label.size).tolist()
        for i, j in zip(bounds, bounds[1:]):
            np.greater_equal(a[i + 1:j], np.maximum.accumulate(b[i:j - 1]),
                             out=cut[i + 1:j])
    first = cut.nonzero()[0]
    count = np.diff(first, append=label.size)

    # One pick per live cluster and round; every live cluster has picked in
    # every round, so max_out rounds retire them all. The live rows are the
    # ones not yet picked, at or above min_score and, once max_out rows are
    # picked, at or above the max_out-th best picked score: no row scores
    # more later than it does now.
    floor = min_score
    pool = np.empty(0)   # the max_out best picked scores
    picked: list[np.ndarray] = []
    picked_score: list[np.ndarray] = []
    n_picked = 0
    for _ in range(max_out):
        top = np.maximum.reduceat(s, first)
        best = (s == top.repeat(count)).nonzero()[0]
        if best.size > first.size:   # ties at a top: the cluster's first row
            best = best[_run_starts(np.searchsorted(first, best, side="right"))]
        picked.append(rows[best])
        picked_score.append(s[best])
        n_picked += best.size
        if n_picked >= max_out:
            pool = np.concatenate((pool, picked_score[-1]) if pool.size
                                  else picked_score)
            pool.partition(pool.size - max_out)
            pool = pool[pool.size - max_out:]
            floor = max(min_score, pool[0])

        if method == "hard" and iou_thresh <= 0:   # IoU 0 meets it too
            s[:] = 0.0
        else:
            # tIoU with the cluster's pick; a row that does not overlap it
            # keeps its score, as it would with IoU 0 and exp(-0) = 1
            hit, x = overlap_tiou(a[best].repeat(count), b[best].repeat(count), a, b)
            if method == "hard":
                s[hit[x >= iou_thresh]] = 0.0
            else:
                # math.exp, not np.exp: the scores must match the scalar form
                # to the bit
                s[hit] *= np.fromiter(map(math.exp, (-(x * x) / sigma).tolist()),
                                      dtype=np.float64, count=hit.size)
        live = s >= floor
        live[best] = False
        count = np.add.reduceat(live, first, dtype=np.intp)
        rows, s, a, b = rows[live], s[live], a[live], b[live]
        if not rows.size:
            break
        count = count[count > 0]
        first = count.cumsum() - count

    top = cands.take(np.concatenate(picked))
    s = np.concatenate(picked_score)
    order = np.lexsort((top.end, top.label, top.start, -s))[:max_out]
    return Candidates(top.label, s, top.start, top.end).take(order)


def select_top_k(cands: Candidates, video_id: str) -> list[Interval]:
    """soft_nms's rows, already its best max_out in order, as Intervals."""
    return [Interval(video_id, c, s, a, b) for c, s, a, b in zip(
        cands.label.tolist(), cands.score.tolist(), cands.start.tolist(),
        cands.end.tolist())]
