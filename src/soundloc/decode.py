"""Turn head outputs into scored interval predictions.

recover_intervals thresholds the per-point class probabilities, converts the
stride-normalized boundary distances back to seconds and keeps the top
candidates; soft_nms then decays overlapping detections per video and class.
Every ordering uses explicit tie-breaks so a permuted input yields an
identical output.

Both work on float64 arrays with one row per candidate and build an Interval
only for the rows they return. soft_nms runs every group in one loop: each
round picks the best live row of every live group, then decays the rest of
that group against it. Overlaps use the arithmetic of evaluate.tiou, and the
gaussian factor comes from math.exp, not np.exp, whose vectorized kernels
can differ from the C library's exp by one ulp: the scores match a
one-candidate-at-a-time implementation to the bit.
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


@dataclass(frozen=True)
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
        if not (math.isfinite(self.score) and 0.0 <= self.score <= 1.0):
            raise ValidationError(f"score must be finite in [0, 1], got {self.score}")


def _sort_key(iv: Interval):
    return (-iv.score, iv.start_sec, iv.label_id, iv.end_sec)


def recover_intervals(head_out: HeadOutput, points: PointSet, stride_sec: float,
                      video_id: str, duration_sec: float | None = None,
                      score_thresh: float = SCORE_THRESH,
                      pre_nms_topk: int = PRE_NMS_TOPK) -> list[Interval]:
    """Candidate intervals from every (level, point, class) above threshold.

    Boundaries are t -/+ d * stride (grid units) scaled to seconds and
    clamped to [0, duration]; zero-length results after clamping are dropped,
    and only the pre_nms_topk best-scored candidates survive.
    """
    if duration_sec is None:
        lvl0 = points.levels[0]
        duration_sec = (lvl0.timestamps[-1] + 0.5 * lvl0.stride_units) * stride_sec

    # one row per candidate, in (level, point, class) order
    cols: list[tuple[np.ndarray, ...]] = []
    for lvl, logits, dist, valid in zip(points.levels, head_out.cls_logits,
                                        head_out.distances, head_out.valid_masks):
        probs = 1.0 / (1.0 + np.exp(-np.asarray(logits.values, dtype=np.float64)))
        d = np.asarray(dist.values, dtype=np.float64)
        starts = np.clip((lvl.timestamps - d[:, 0] * lvl.stride_units) * stride_sec,
                         0.0, duration_sec)
        ends = np.clip((lvl.timestamps + d[:, 1] * lvl.stride_units) * stride_sec,
                       0.0, duration_sec)
        # a NaN boundary passes this mask and is rejected below, as Interval
        # rejects it
        point_ok = np.asarray(valid, dtype=bool) & ~(starts >= ends)
        pt, cls = np.nonzero((probs >= score_thresh) & point_ok[:, None])
        cols.append((probs[pt, cls], starts[pt], ends[pt], cls))
    if not cols:
        return []
    score, start, end, label = (np.concatenate(c) for c in zip(*cols))

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
    # np.lexsort is stable and sorts by its last key first: this is _sort_key
    order = rows[np.lexsort((end[rows], label[rows], start[rows], -score[rows]))]
    order = order[:pre_nms_topk]
    return [Interval(video_id, c, s, a, b) for c, s, a, b in zip(
        label[order].tolist(), score[order].tolist(),
        start[order].tolist(), end[order].tolist())]


def soft_nms(preds: list[Interval], sigma: float = NMS_SIGMA,
             method: str = "gaussian", iou_thresh: float = NMS_IOU_THRESH,
             min_score: float = NMS_MIN_SCORE,
             max_out: int = NMS_MAX_OUT) -> list[Interval]:
    """Score-decaying suppression, independently per (video, class) group.

    Gaussian mode multiplies competitors by exp(-IoU^2 / sigma); hard mode
    zeroes them at IoU >= iou_thresh (so a threshold of 1 removes only exact
    duplicates). Iteration stops at max_out survivors per group or when
    everything left is below min_score.
    """
    if method not in ("gaussian", "hard"):
        raise ConfigError(f"unknown suppression method {method!r}")
    if method == "gaussian" and not sigma > 0:
        raise ConfigError(f"gaussian suppression needs sigma > 0, got {sigma}")
    if not preds or max_out < 1:
        return []

    keys = sorted({(p.video_id, p.label_id) for p in preds})
    group_of = {key: g for g, key in enumerate(keys)}
    videos = sorted({video for video, _ in keys})
    video_rank = np.array([videos.index(video) for video, _ in keys])
    label_of = np.array([label for _, label in keys])

    gid = np.array([group_of[p.video_id, p.label_id] for p in preds])
    start = np.array([p.start_sec for p in preds], dtype=np.float64)
    end = np.array([p.end_sec for p in preds], dtype=np.float64)
    picked: list[np.ndarray] = []
    picked_score: list[np.ndarray] = []
    kept = np.zeros(len(keys), dtype=np.int64)
    pick_start = np.zeros(len(keys))
    pick_end = np.zeros(len(keys))
    # the live rows: not yet picked, in a group below max_out, and at or above
    # min_score once their group has made its first pick
    rows, g, a, b = np.arange(len(preds)), gid, start, end
    s = np.array([p.score for p in preds], dtype=np.float64)
    while rows.size:
        # every live group's best row by (-score, start, end); rows that tie
        # on all three are equal Intervals, so which one comes first is moot
        order = np.lexsort((b, a, -s, g))
        head = np.ones(order.size, dtype=bool)
        head[1:] = g[order[1:]] != g[order[:-1]]
        best = order[head]
        picked.append(rows[best])
        picked_score.append(s[best])
        gb = g[best]
        kept[gb] += 1
        pick_start[gb] = a[best]
        pick_end[gb] = b[best]

        # overlap with the group's pick, with the arithmetic of evaluate.tiou
        pa, pb = pick_start[g], pick_end[g]
        inter = np.minimum(pb, b) - np.maximum(pa, a)
        over = ~(inter <= 0)
        iou = np.where(over, inter / ((pb - pa) + (b - a) - inter), 0.0)
        if method == "gaussian":
            # math.exp, not np.exp: the scores must match the scalar form to
            # the bit; a row without overlap keeps its score, as exp(-0) = 1
            arg = -(iou[over] * iou[over]) / sigma
            s[over] *= np.fromiter(map(math.exp, arg.tolist()), dtype=np.float64,
                                   count=arg.size)
        else:
            s[iou >= iou_thresh] = 0.0
        live = (s >= min_score) & (kept[g] < max_out)
        live[best] = False
        rows, s, g, a, b = rows[live], s[live], g[live], a[live], b[live]

    rows = np.concatenate(picked)
    s = np.concatenate(picked_score)
    g = gid[rows]
    order = np.lexsort((end[rows], label_of[g], start[rows], -s, video_rank[g]))
    return [Interval(preds[i].video_id, preds[i].label_id, sc,
                     preds[i].start_sec, preds[i].end_sec)
            for i, sc in zip(rows[order].tolist(), s[order].tolist())]


def select_top_k(preds: list[Interval], k: int = NMS_MAX_OUT) -> list[Interval]:
    """Best k detections per video, deterministically ordered."""
    by_video: dict[str, list[Interval]] = {}
    for p in preds:
        by_video.setdefault(p.video_id, []).append(p)
    out: list[Interval] = []
    for vid in sorted(by_video):
        ranked = sorted(by_video[vid], key=_sort_key)
        out.extend(ranked[:k])
    return out
