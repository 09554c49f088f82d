"""Turn one video's head outputs into scored interval predictions.

recover_intervals thresholds the per-point class probabilities, converts the
stride-normalized boundary distances back to seconds and keeps the top
candidates, in one pass over the head outputs' rows (one per pyramid point,
levels end to end); soft_nms decays overlapping ones per class and keeps the
best max_out; select_top_k turns those rows into Interval objects. Both
stages take a DecodeConfig whole and check it before any work.
The stages pass Candidates, columns with one row per candidate in
(-score, start, label, end) order, so a permuted input yields an identical
output.

soft_nms returns the first max_out rows of per-class soft-NMS, the only rows
predict keeps, and does only the work they need:

* A pick decays only the rows it overlaps, so each class is cut into overlap
  clusters (its rows sorted by start, cut wherever a start is at or after
  every earlier end) that run side by side. In each round, every live
  cluster takes all of its next picks that no decay can change: ranked by
  score, ties to the earlier (start, end), its rows above x*, the best row
  that overlaps a better one. None of them overlaps another, so its class
  would pick them next, in rank order, at the scores they have now. A row
  that several picks of a round overlap takes their factors in that order.
  Every live cluster picks at least once per round, so the rounds number at
  most the largest cluster's rows, and at most max_out. Within a class the
  output order is the pick order, so the first max_out output rows hold at
  most max_out of any class, as the per-class cap requires.
* x* is found from each row's best later overlapping row, those up to its
  reach (the first row of its class that starts at or after its end): a
  table of the best score of every run of 2^k rows answers each row with
  two runs, and is refilled once per round in log2(longest reach) passes.
* No pick scores more than its row does now. Each cluster's best row is a
  pick at its score, and once max_out rows are picked, so are those rows: a
  row below the max_out-th best of either cannot enter the output and is
  dropped; the rounds end when no row is left. Every row keeps its place
  for the whole call, so the reach, the clusters and the table are built
  once: a dropped or picked row stays in the table at -inf.

The rows are sorted once per call, by (label, start, end), so a row's later
overlapping rows are found by binary search and a row outranks the later
rows at its score, and the picks once more into output order; each round
sorts its picks' pairs by pick order. Overlaps come from overlap_tiou, the
column tIoU that evaluate uses too, and the gaussian factor from math.exp,
not np.exp, whose vectorized kernels can differ from the C library's exp by
one ulp: the scores match a one-candidate-at-a-time implementation to the
bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, ValidationError, check_numbers
from .heads import HeadOutput, PointSet


@dataclass
class DecodeConfig:
    """Every decode setting: both stages take it whole."""

    score_thresh: float = 0.001
    pre_nms_topk: int = 2000
    method: str = "gaussian"
    sigma: float = 0.5
    iou_thresh: float = 0.5
    min_score: float = 0.001
    max_out: int = 200

    def validate(self) -> None:
        """The one rule for the decode settings, in either mode; NaN fails
        it. A tIoU threshold is an overlap: a pick suppresses only rows it
        overlaps."""
        if self.method not in ("gaussian", "hard"):
            raise ConfigError(
                f"method must be 'gaussian' or 'hard', got {self.method!r}")
        check_numbers(self, reals=("score_thresh", "sigma", "iou_thresh",
                                   "min_score"),
                      counts=("pre_nms_topk", "max_out"))
        # written as `not (ok)` so that NaN fails every check
        if not 0 <= self.score_thresh <= 1:
            raise ConfigError(
                f"score_thresh must be in [0, 1], got {self.score_thresh}")
        if not self.sigma > 0:
            raise ConfigError(f"sigma must be > 0, got {self.sigma}")
        if not 0 < self.iou_thresh <= 1:
            raise ConfigError(f"iou_thresh must be in (0, 1], got {self.iou_thresh}")
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
                      duration_sec: float, cfg: DecodeConfig) -> Candidates:
    """Candidate intervals from every (point, class) above threshold.

    Boundaries are t -/+ d * stride (grid units) scaled to seconds and
    clamped to [0, duration]; zero-length results after clamping are dropped,
    and only the cfg.pre_nms_topk best-scored candidates survive.
    """
    cfg.validate()
    probs = 1.0 / (1.0 + np.exp(-np.asarray(head_out.cls_logits.values,
                                            dtype=np.float64)))
    d = np.asarray(head_out.distances.values, dtype=np.float64)
    ts, strides = points.timestamps, points.strides
    starts = np.clip((ts - d[:, 0] * strides) * stride_sec, 0.0, duration_sec)
    ends = np.clip((ts + d[:, 1] * strides) * stride_sec, 0.0, duration_sec)
    # one row per candidate, in (point, class) order; a NaN boundary passes
    # this mask and is rejected below, as Interval rejects it
    point_ok = ~(starts >= ends)
    pt, label = np.nonzero((probs >= cfg.score_thresh) & point_ok[:, None])
    score, start, end = probs[pt, label], starts[pt], ends[pt]

    # starts are clipped at 0, so this is Interval's rule
    bad = np.flatnonzero(~((start < end) & (end < np.inf)))
    if bad.size:
        i = bad[0]
        raise ValidationError(
            f"interval must have finite start < end, got "
            f"[{float(start[i])}, {float(end[i])}]")

    k = cfg.pre_nms_topk
    rows = np.arange(score.size)
    if k < score.size:
        # a row scored below the k-th best cannot make the cut
        kth = np.partition(score, score.size - k)[score.size - k]
        rows = np.flatnonzero(score >= kth)
    order = rows[np.lexsort((end[rows], label[rows], start[rows], -score[rows]))]
    return Candidates(label, score, start, end).take(order[:k])


def overlap_tiou(a_start, a_end, b_start, b_end) -> tuple[np.ndarray, np.ndarray]:
    """The rows where intervals a and b overlap, and their tIoU there.

    The arithmetic is that of evaluate.tiou, so each value equals it to the
    bit; every other row has tIoU 0.
    """
    inter = np.minimum(a_end, b_end) - np.maximum(a_start, b_start)
    hit = (~(inter <= 0)).nonzero()[0]
    return hit, (inter / ((a_end - a_start) + (b_end - b_start) - inter))[hit]


def run_starts(key: np.ndarray) -> np.ndarray:
    """True where a run of equal values in a sorted key begins."""
    first = np.empty(key.size, dtype=bool)
    first[:1] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    return first


def _reach(label: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per row in (label, start, end) order, the first row of its class that
    starts at or after its end: the rows between them are the later rows it
    overlaps."""
    lo = run_starts(label).nonzero()[0]
    hi = np.append(lo[1:], label.size)
    reach = np.empty(label.size, dtype=np.intp)
    for i, j in zip(lo.tolist(), hi.tolist()):
        reach[i:j] = np.searchsorted(a[i:j], b[i:j]) + i
    return reach


def _clusters(reach: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each overlap cluster's first row and row count: a cluster starts at
    each row that no earlier row reaches."""
    cut = np.empty(reach.size, dtype=bool)
    cut[:1] = True
    np.less_equal(np.maximum.accumulate(reach[:-1]), np.arange(1, reach.size),
                  out=cut[1:])
    first = cut.nonzero()[0]
    count = np.empty_like(first)
    np.subtract(first[1:], first[:-1], out=count[:-1])
    count[-1:] = reach.size - first[-1:]
    return first, count


def _range_table(s: np.ndarray, reach: np.ndarray):
    """A table for the best score of each row's later overlapping rows.

    Row 1 of the table holds s and row k + 1 the best of each run of 2^k
    rows, which soft_nms refills each round; row 0 is left for it. Row q's
    rows q + 1 to reach[q] - 1 are two runs of 2^k rows, at the two returned
    indices into the flat table; a row without any reads column n of row 0
    twice, which stays -inf.
    """
    n = s.size
    at = np.arange(n)
    span = reach - at - 1
    k = np.frexp(np.maximum(span, 1))[1] - 1   # the largest 2^k <= span
    table = np.empty((int(k.max()) + 2, n + 1))
    table[0, n] = -np.inf
    table[1, :n] = s
    base = (k + 1) * (n + 1)
    return (table, np.where(span > 0, base + at + 1, n),
            np.where(span > 0, base + reach - (1 << k), n))


def soft_nms(cands: Candidates, cfg: DecodeConfig) -> Candidates:
    """Score-decaying suppression per class; the best max_out results.

    Gaussian mode multiplies competitors by exp(-IoU^2 / sigma); hard mode
    zeroes them at IoU >= iou_thresh (so a threshold of 1 removes only exact
    duplicates). A class picks its best row, decays the rest against it and
    repeats, until it has max_out picks or everything left is below
    min_score (its first pick is made whatever its score). The picks carry
    their decayed scores; the first max_out of them in (-score, start,
    label, end) order are returned. The settings are cfg's.

    The rounds run per overlap cluster, not per class: each takes a
    cluster's picks up to the first one that an earlier pick could decay,
    and they stop once no later pick could enter the result. The clusters
    are cut once; a row that retires stays in place at -inf. See the module
    docstring.
    """
    cfg.validate()
    if not len(cands):
        return cands.take(slice(0))
    min_score, max_out = cfg.min_score, cfg.max_out

    # rows in (label, start, end) order: in each class, and in each cluster,
    # a row outranks the later rows at its score
    rows = np.lexsort((cands.end, cands.start, cands.label))
    label, s = cands.label[rows], cands.score[rows]
    # a row below min_score can only be its class's first pick, its best row
    keep = s >= min_score
    if not keep.all():
        lo = run_starts(label).nonzero()[0]
        hi = np.append(lo[1:], label.size)
        for i in (~np.logical_or.reduceat(keep, lo)).nonzero()[0].tolist():
            keep[lo[i] + s[lo[i]:hi[i]].argmax()] = True
        rows, label = rows[keep], label[keep]
    s, a, b = cands.score[rows], cands.start[rows], cands.end[rows]

    reach = _reach(label, a, b)
    first, count = _clusters(reach)
    floor = min_score
    if first.size >= max_out:
        # each cluster's best row is a pick at its score now, so a row below
        # the max_out-th best of them cannot enter the output: it retires
        tops = np.maximum.reduceat(s, first)
        least = np.partition(tops, tops.size - max_out)[tops.size - max_out]
        floor = max(min_score, least)
        s[s < least] = -np.inf
    n = s.size
    table, f1, f2 = _range_table(s, reach)
    x, s = table[0, :n], table[1, :n]
    runs = table.ravel()
    before = reach - 1

    picked: list[np.ndarray] = []
    picked_score: list[np.ndarray] = []
    n_picked = 0
    for _ in range(max_out):
        for k in range(2, table.shape[0]):
            h = 1 << (k - 2)
            np.maximum(table[k - 1, :n - h], table[k - 1, h:n],
                       out=table[k, :n - h])
        # x: per row, the lower score of it and its best later overlapping
        # row. A cluster's best x is x*'s score, as the worse row of a pair
        # is the later one at a tie: every row above it picks.
        np.minimum(s, np.maximum(runs[f1], runs[f2]), out=x)
        best, most = np.maximum.reduceat(table[:2, :n], first, axis=1)
        pick = s > best.repeat(count)
        alone = (best == most) & (most > -np.inf)
        # a live cluster whose best row ties with x* picks its first best row
        if alone.any():
            top = ((s == most.repeat(count)) & alone.repeat(count)).nonzero()[0]
            pick[top[run_starts(np.searchsorted(first, top, side="right"))]] = True
        top = pick.nonzero()[0]
        score = s[top]
        picked.append(rows[top])
        picked_score.append(score)
        n_picked += top.size
        if n_picked >= max_out:
            # no row below the max_out-th best pick can enter the output
            every = np.concatenate(picked_score)
            every.partition(every.size - max_out)
            floor = max(min_score, every[every.size - max_out])
        s[top] = -np.inf

        # No two picks overlap, so their reach grows with their row: the
        # picks a row q overlaps, those before reach[q] whose reach is past
        # q, are picks lo[q] to hi[q] - 1.
        hi = pick.cumsum()[before]
        lo = np.bincount(reach[top], minlength=n + 1).cumsum()[:n]
        row = ((hi > lo) & (s > -np.inf)).nonzero()[0]
        lo = lo[row]
        w = hi[row] - lo
        row = row.repeat(w)
        lo = np.arange(row.size) - (w.cumsum() - w - lo).repeat(w)
        by = top[lo]
        # every reached row overlaps its pick, so t has one value per row
        t = overlap_tiou(a[by], b[by], a[row], b[row])[1]
        if cfg.method == "hard":
            f = t < cfg.iou_thresh
        else:
            # math.exp, not np.exp: the scores match the scalar form to the bit
            f = np.fromiter(map(math.exp, (-(t * t) / cfg.sigma).tolist()),
                            dtype=np.float64, count=t.size)
        # a row that two picks overlap takes their factors in pick order
        k = np.lexsort((lo, -score[lo]))
        np.multiply.at(s, row[k], f[k])
        live = s >= floor
        if not live.any():
            break
        s[~live] = -np.inf

    top = cands.take(np.concatenate(picked))
    s = np.concatenate(picked_score)
    order = np.lexsort((top.end, top.label, top.start, -s))[:max_out]
    return Candidates(top.label, s, top.start, top.end).take(order)


def select_top_k(cands: Candidates, video_id: str) -> list[Interval]:
    """soft_nms's rows, already its best max_out in order, as Intervals."""
    return [Interval(video_id, c, s, a, b) for c, s, a, b in zip(
        cands.label.tolist(), cands.score.tolist(), cands.start.tolist(),
        cands.end.tolist())]
