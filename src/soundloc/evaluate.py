"""Detection evaluation: temporal IoU, average precision and mAP.

AP runs on float64 columns, one class at a time. Its pair table does not
depend on the threshold and is built once per class:

* predictions are ranked by score descending, then earlier start, then input
  order (a stable ``np.lexsort``);
* every same-video (prediction, ground truth) pair gets its tIoU from
  ``decode.overlap_tiou``, whose arithmetic is that of ``tiou``;
* pairs are sorted by (video, prediction rank, -tIoU, GT start, GT index).

The pairs are formed in chunks of about ``_PAIR_CHUNK``, whole predictions
at a time, and a chunk keeps only the overlapping pairs that reach the
smallest threshold, which are all that matching reads: a threshold is an
overlap, in (0, 1]. So memory grows with the pairs that can match, not with
every same-video pair.

Greedy matching lets each prediction, in rank order, claim the best unmatched
same-video GT with tIoU >= tau. Per threshold it runs in rounds over the pairs
that reach tau: the first surviving pair of each video is that video's next
match; then every pair whose GT is matched, or whose prediction ranks at or
before its video's latest match, is dropped. A skipped prediction had no
eligible GT and never gets one, since the eligible sets only shrink. So a
class costs at most max-G numpy passes per threshold, G being a video's GT
count, not one Python iteration per prediction.

oracle_ap recomputes AP with explicit quadratic matching on Interval objects
and a direct Riemann sum over the PR staircase; the per-object greedy
implementation the kernel replaced is a second oracle in the tests. Both
share the tie rules, so on any input they agree exactly.

mAP averages AP over classes that own at least one ground-truth instance,
per threshold; the reported average is the arithmetic mean over thresholds.
Values are kept at full precision internally and become one-decimal
percentages only in the rendered table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import write_json
from .decode import Interval, overlap_tiou, run_starts
from .errors import ConfigError, EmptyInputError, is_real

DEFAULT_THRESHOLDS = (0.1, 0.2, 0.3, 0.4, 0.5)
# (prediction, GT) pairs formed at a time while a pair table is built
_PAIR_CHUNK = 1 << 16


def tiou(a: Interval, b: Interval) -> float:
    """Temporal intersection over union; 0 for disjoint intervals."""
    inter = min(a.end_sec, b.end_sec) - max(a.start_sec, b.start_sec)
    if inter <= 0:
        return 0.0
    union = (a.end_sec - a.start_sec) + (b.end_sec - b.start_sec) - inter
    return inter / union


@dataclass
class _PairTable:
    """One class slice ready for matching at any threshold.

    Pair arrays run in (video, prediction rank, -tIoU, GT start, GT index)
    order; ``gt`` is the GT's position in (video, start, index) order.
    """

    num_preds: int
    num_gts: int
    video: np.ndarray
    rank: np.ndarray
    gt: np.ndarray
    iou: np.ndarray


def _pair_table(p_video, p_score, p_start, p_end,
                g_video, g_start, g_end, min_tau: float) -> _PairTable:
    """Rank the predictions and pair each with every GT of its video.

    Video codes are integers shared by both sides; a prediction whose code
    no GT carries gets no pair. Only overlapping pairs whose tIoU reaches
    ``min_tau`` are kept.
    """
    order = np.lexsort((p_start, -p_score))
    r_video, r_start, r_end = p_video[order], p_start[order], p_end[order]
    g_order = np.lexsort((g_start, g_video))
    gv, gs, ge = g_video[g_order], g_start[g_order], g_end[g_order]

    lo = np.searchsorted(gv, r_video, side="left")
    count = np.searchsorted(gv, r_video, side="right") - lo
    by_video = np.argsort(r_video, kind="stable")
    preds = by_video[count[by_video] > 0]          # ranks, in (video, rank) order
    ends = np.cumsum(count[preds])
    total = int(ends[-1]) if ends.size else 0
    cuts = np.searchsorted(ends, np.arange(_PAIR_CHUNK, total, _PAIR_CHUNK),
                           side="right")
    parts = []
    for chunk in np.split(preds, np.unique(cuts)):   # whole predictions each
        n = count[chunk]
        first = np.cumsum(n) - n
        rank = np.repeat(chunk, n)
        gt = np.repeat(lo[chunk], n) + (np.arange(int(n.sum())) - np.repeat(first, n))
        row = np.repeat(np.arange(chunk.size), n)
        hit, iou = overlap_tiou(r_start[rank], r_end[rank], gs[gt], ge[gt])
        keep = iou >= min_tau
        hit, iou = hit[keep], iou[keep]
        rank, gt, row = rank[hit], gt[hit], row[hit]
        regroup = np.lexsort((-iou, row))
        parts.append((rank[regroup], gt[regroup], iou[regroup]))
    rank, gt, iou = (np.concatenate(col) for col in zip(*parts))
    return _PairTable(len(order), len(g_order), r_video[rank], rank, gt, iou)


def _greedy_tp(table: _PairTable, tau: float) -> np.ndarray:
    """True-positive flags of the ranked predictions at threshold tau."""
    keep = table.iou >= tau
    video, rank, gt = table.video[keep], table.rank[keep], table.gt[keep]
    tp = np.zeros(table.num_preds, dtype=bool)
    matched = np.zeros(table.num_gts, dtype=bool)
    while video.size:
        head = run_starts(video)
        firsts = np.flatnonzero(head)
        tp[rank[firsts]] = True
        matched[gt[firsts]] = True
        latest = rank[firsts][np.cumsum(head) - 1]
        alive = (rank > latest) & ~matched[gt]
        video, rank, gt = video[alive], rank[alive], gt[alive]
    return tp


def _table_ap(table: _PairTable, tau: float) -> float:
    """All-point-interpolated AP of one class slice at threshold tau."""
    if not table.num_gts or not table.num_preds:
        return 0.0
    tp = _greedy_tp(table, tau)
    tp_cum = np.cumsum(tp)
    precision = tp_cum / np.arange(1, len(tp) + 1)
    recall = tp_cum / float(table.num_gts)
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    hits = np.flatnonzero(tp)
    steps = np.diff(recall[hits], prepend=0.0)
    return math.fsum((steps * envelope[hits]).tolist())


def _columns(items: list[Interval], video_codes: dict[str, int]):
    """(video code, score, start, end) columns; unknown videos get -1."""
    video = np.array([video_codes.get(x.video_id, -1) for x in items],
                     dtype=np.int64)
    score = np.array([x.score for x in items], dtype=np.float64)
    start = np.array([x.start_sec for x in items], dtype=np.float64)
    end = np.array([x.end_sec for x in items], dtype=np.float64)
    return video, score, start, end


def _video_codes(gts: list[Interval]) -> dict[str, int]:
    return {vid: i for i, vid in enumerate(dict.fromkeys(g.video_id for g in gts))}


def _check_thresholds(thresholds) -> tuple:
    """The thresholds, read once into a tuple and checked: a tIoU threshold
    is an overlap, a number in (0, 1]; NaN fails too."""
    try:
        taus = tuple(thresholds)
    except TypeError:   # a lone number, or None
        taus = None
    if not taus or not all(is_real(t) and 0 < t <= 1 for t in taus):
        raise ConfigError(f"tIoU thresholds must be a non-empty list of numbers "
                          f"in (0, 1], got {thresholds if taus is None else taus!r}")
    return taus


def average_precision(preds: list[Interval], gts: list[Interval],
                      tau: float) -> float:
    """All-point-interpolated AP for a single class slice.

    Each prediction greedily claims the unmatched same-video ground truth
    with the highest tIoU >= tau (ties: earlier GT start, then input order).
    """
    _check_thresholds((tau,))
    codes = _video_codes(gts)
    g_video, _, g_start, g_end = _columns(gts, codes)
    table = _pair_table(*_columns(preds, codes), g_video, g_start, g_end, tau)
    return _table_ap(table, tau)


def oracle_ap(preds: list[Interval], gts: list[Interval], tau: float) -> float:
    """Naive reference AP: quadratic matching, direct staircase summation."""
    _check_thresholds((tau,))
    if not gts or not preds:
        return 0.0

    order = sorted(range(len(preds)),
                   key=lambda i: (-preds[i].score, preds[i].start_sec, i))
    matched = [False] * len(gts)
    flags = []
    for i in order:
        pred = preds[i]
        best_gi = -1
        best_key = None
        for gi in range(len(gts)):
            gt = gts[gi]
            if matched[gi] or gt.video_id != pred.video_id:
                continue
            ov = tiou(pred, gt)
            if ov < tau:
                continue
            key = (-ov, gt.start_sec, gi)
            if best_key is None or key < best_key:
                best_key, best_gi = key, gi
        if best_gi >= 0:
            matched[best_gi] = True
            flags.append(True)
        else:
            flags.append(False)

    n = len(flags)
    precisions = []
    ntp = 0
    for i in range(n):
        if flags[i]:
            ntp += 1
        precisions.append(ntp / (i + 1))
    best_later = [0.0] * n
    running = 0.0
    for i in range(n - 1, -1, -1):
        running = max(running, precisions[i])
        best_later[i] = running

    terms = []
    prev_recall = 0.0
    ntp = 0
    for i in range(n):
        if flags[i]:
            ntp += 1
            recall = ntp / len(gts)
            terms.append((recall - prev_recall) * best_later[i])
            prev_recall = recall
    return math.fsum(terms)


@dataclass
class EvalReport:
    """mAP across tIoU thresholds plus the per-class AP table."""

    thresholds: tuple[float, ...]
    map_per_threshold: list[float]
    average_map: float
    per_class_ap: dict[str, list[float]] = field(default_factory=dict)
    num_gt: int = 0
    num_predictions: int = 0

    def to_dict(self) -> dict:
        return {
            "thresholds": list(self.thresholds),
            "map_per_threshold": self.map_per_threshold,
            "average_map": self.average_map,
            "per_class_ap": self.per_class_ap,
            "num_gt": self.num_gt,
            "num_predictions": self.num_predictions,
        }

    def save_json(self, path) -> None:
        write_json(self.to_dict(), path)

    def format_table(self) -> str:
        header = ["Method"] + [f"@{t:g}" for t in self.thresholds] + ["Avg"]
        cells = ["model"] + [f"{100.0 * v:.1f}" for v in self.map_per_threshold]
        cells.append(f"{100.0 * self.average_map:.1f}")
        widths = [max(len(h), len(c), 6) for h, c in zip(header, cells)]
        fmt = "  ".join(f"{{:<{w}}}" for w in widths)
        return fmt.format(*header) + "\n" + fmt.format(*cells)


def average_over_thresholds(maps: list[float]) -> float:
    """Arithmetic mean of per-threshold mAP values."""
    return math.fsum(maps) / len(maps)


def mean_ap(preds: list[Interval], gts: list[Interval],
            thresholds: tuple[float, ...] = DEFAULT_THRESHOLDS,
            class_names: list[str] | None = None) -> EvalReport:
    """AP averaged over classes with ground truth, per threshold and overall."""
    thresholds = _check_thresholds(thresholds)
    if not gts:
        raise EmptyInputError("no ground-truth events: nothing to evaluate")

    labels = sorted({g.label_id for g in gts})
    names = [class_names[c] if class_names and 0 <= c < len(class_names)
             else str(c) for c in labels]
    if len(set(names)) < len(names):
        name = next(n for n in names if names.count(n) > 1)
        clash = [c for c, n in zip(labels, names) if n == name]
        raise ConfigError(f"classes {clash} share the name {name!r}")
    label_codes = {c: i for i, c in enumerate(labels)}
    video_codes = _video_codes(gts)
    p_cols = _columns(preds, video_codes)
    g_cols = _columns(gts, video_codes)
    p_label = np.array([label_codes.get(p.label_id, -1) for p in preds],
                       dtype=np.int64)
    g_label = np.array([label_codes[g.label_id] for g in gts], dtype=np.int64)
    # stable, so each class keeps input order; labels without GT sort first
    p_order = np.argsort(p_label, kind="stable")
    g_order = np.argsort(g_label, kind="stable")
    p_bounds = np.searchsorted(p_label[p_order], np.arange(len(labels) + 1))
    g_bounds = np.searchsorted(g_label[g_order], np.arange(len(labels) + 1))

    min_tau = min(thresholds)
    aps_by_class = []
    for i in range(len(labels)):
        p_idx = p_order[p_bounds[i]:p_bounds[i + 1]]
        g_idx = g_order[g_bounds[i]:g_bounds[i + 1]]
        table = _pair_table(*(col[p_idx] for col in p_cols),
                            g_cols[0][g_idx], g_cols[2][g_idx], g_cols[3][g_idx],
                            min_tau)
        aps_by_class.append([_table_ap(table, tau) for tau in thresholds])

    maps = [math.fsum(aps) / len(aps) for aps in zip(*aps_by_class)]
    return EvalReport(
        thresholds=thresholds,
        map_per_threshold=maps,
        average_map=average_over_thresholds(maps),
        per_class_ap=dict(zip(names, aps_by_class)),
        num_gt=len(gts),
        num_predictions=len(preds),
    )
