"""Turn one video's head outputs into scored interval predictions.

recover_intervals thresholds the per-point class probabilities, converts the
stride-normalized boundary distances back to seconds and keeps the top
candidates, in one pass over the head outputs' rows (one per pyramid point,
levels end to end); soft_nms decays overlapping ones per class;
select_top_k builds Interval objects for the best rows only. The stages
pass Candidates, columns with one row per candidate in
(-score, start, label, end) order, so a permuted input yields an identical
output.

soft_nms sorts its rows by (label, -score, start, end) once per call, then
runs every class in one loop. Each round takes every live class's best score
with one reduceat over the class offsets, breaks ties at that score by
(start, end), decays the rest of the class against the pick and drops the
dead rows, which keeps each class contiguous. Overlaps come from
overlap_tiou (evaluate.tiou's arithmetic), and the gaussian factor from
math.exp, not np.exp, whose vectorized kernels can differ from the C
library's exp by one ulp: the scores match a one-candidate-at-a-time
implementation to the bit. Only the rows that overlap their pick pay for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ValidationError
from .heads import HeadOutput, PointSet

SCORE_THRESH = 0.001
PRE_NMS_TOPK = 2000
NMS_SIGMA = 0.5
NMS_IOU_THRESH = 0.5
NMS_MIN_SCORE = 0.001
NMS_MAX_OUT = 200


@dataclass(frozen=True, slots=True)
class Interval:
    """A scored detection or a ground-truth event."""

    video_id: str
    label_id: int
    score: float
    start_sec: float
    end_sec: float

    def __post_init__(self):
        if not (-math.inf < self.start_sec < self.end_sec < math.inf):
            raise ValidationError(
                f"interval must have finite start < end, got "
                f"[{self.start_sec}, {self.end_sec}]")
        if not 0.0 <= self.score <= 1.0:   # NaN and +-inf fail too
            raise ValidationError(f"score must be finite in [0, 1], got {self.score}")


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


def overlap_tiou(a_start, a_end, b_start, b_end) -> tuple[np.ndarray, np.ndarray]:
    """The rows where intervals a and b overlap, and their tIoU there.

    The arithmetic is evaluate.tiou's, so each value equals it to the bit;
    every other row has tIoU 0.
    """
    inter = np.minimum(a_end, b_end) - np.maximum(a_start, b_start)
    hit = (~(inter <= 0)).nonzero()[0]
    i = inter[hit]
    return hit, i / ((a_end[hit] - a_start[hit]) + (b_end[hit] - b_start[hit]) - i)


def recover_intervals(head_out: HeadOutput, points: PointSet, stride_sec: float,
                      duration_sec: float, score_thresh: float = SCORE_THRESH,
                      pre_nms_topk: int = PRE_NMS_TOPK) -> Candidates:
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


def soft_nms(cands: Candidates, sigma: float = NMS_SIGMA,
             method: str = "gaussian", iou_thresh: float = NMS_IOU_THRESH,
             min_score: float = NMS_MIN_SCORE,
             max_out: int = NMS_MAX_OUT) -> Candidates:
    """Score-decaying suppression, independently per class.

    Gaussian mode multiplies competitors by exp(-IoU^2 / sigma); hard mode
    zeroes them at IoU >= iou_thresh (so a threshold of 1 removes only exact
    duplicates). Iteration stops at max_out survivors per class or when
    everything left is below min_score. The survivors carry their decayed
    scores, ordered by (-score, start, label, end).

    The rows are sorted once per call, not once per round: a round costs a
    few linear passes over the live rows, plus a sort of the rows tied at a
    class's best score in the rounds that have such ties.
    """
    if method not in ("gaussian", "hard"):
        raise ConfigError(f"unknown suppression method {method!r}")
    if method == "gaussian" and not sigma > 0:
        raise ConfigError(f"gaussian suppression needs sigma > 0, got {sigma}")
    if not len(cands) or max_out < 1:
        return cands.take(slice(0))

    # the live rows: not yet picked, in a class below max_out, and at or above
    # min_score once their class has made its first pick; dropping rows keeps
    # each class contiguous
    rows = np.lexsort((cands.end, cands.start, -cands.score, cands.label))
    labels, g = np.unique(cands.label[rows], return_inverse=True)
    s, a, b = cands.score[rows], cands.start[rows], cands.end[rows]
    kept = np.zeros(labels.size, dtype=np.int64)
    picked: list[np.ndarray] = []
    picked_score: list[np.ndarray] = []
    while rows.size:
        count = np.bincount(g, minlength=labels.size)
        live_cls = count.nonzero()[0]
        count = count[live_cls]
        top = np.maximum.reduceat(s, count.cumsum() - count)
        # every live class's best row by (-score, start, end), in class order;
        # rows that tie on all three are equal, so which one comes first is moot
        best = (s == top.repeat(count)).nonzero()[0]
        if best.size > live_cls.size:
            tied = best[np.lexsort((b[best], a[best], g[best]))]
            first = np.ones(tied.size, dtype=bool)
            first[1:] = g[tied[1:]] != g[tied[:-1]]
            best = tied[first]
        picked.append(rows[best])
        picked_score.append(s[best])
        kept[live_cls] += 1

        # overlap with the class's pick, for the rows that overlap it: the
        # rest have IoU 0
        hit, iou = overlap_tiou(a[best].repeat(count), b[best].repeat(count), a, b)
        if method == "gaussian":
            # math.exp, not np.exp: the scores must match the scalar form to
            # the bit; a row without overlap keeps its score, as exp(-0) = 1
            s[hit] *= np.fromiter(map(math.exp, (-(iou * iou) / sigma).tolist()),
                                  dtype=np.float64, count=hit.size)
        elif iou_thresh <= 0:   # IoU 0 meets it too
            s[:] = 0.0
        else:
            s[hit[iou >= iou_thresh]] = 0.0
        live = (s >= min_score) & (kept[live_cls] < max_out).repeat(count)
        live[best] = False
        rows, s, g, a, b = rows[live], s[live], g[live], a[live], b[live]

    top = cands.take(np.concatenate(picked))
    s = np.concatenate(picked_score)
    order = np.lexsort((top.end, top.label, top.start, -s))
    return Candidates(top.label, s, top.start, top.end).take(order)


def select_top_k(cands: Candidates, video_id: str,
                 k: int = NMS_MAX_OUT) -> list[Interval]:
    """The first k rows, best first as soft_nms orders them, as Intervals.

    A k below 1 keeps nothing, as soft_nms's max_out does.
    """
    top = cands.take(slice(max(k, 0)))
    return [Interval(video_id, c, s, a, b) for c, s, a, b in zip(
        top.label.tolist(), top.score.tolist(), top.start.tolist(),
        top.end.tolist())]
