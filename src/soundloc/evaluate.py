"""Detection evaluation: temporal IoU, average precision and mAP.

average_precision is the production path (vectorized PR construction with an
all-point precision envelope); oracle_ap recomputes the same quantity with
explicit quadratic matching and a direct Riemann sum over the PR staircase.
Both share the tie rules, so on any input they must agree exactly.

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
from .decode import Interval
from .errors import EmptyInputError

DEFAULT_THRESHOLDS = (0.1, 0.2, 0.3, 0.4, 0.5)


def tiou(a: Interval, b: Interval) -> float:
    """Temporal intersection over union; 0 for disjoint intervals."""
    inter = min(a.end_sec, b.end_sec) - max(a.start_sec, b.start_sec)
    if inter <= 0:
        return 0.0
    union = (a.end_sec - a.start_sec) + (b.end_sec - b.start_sec) - inter
    return inter / union


def _ranked(preds: list[Interval]) -> list[Interval]:
    # score descending; ties by earlier start, then stable input order
    return sorted(preds, key=lambda p: (-p.score, p.start_sec))


def average_precision(preds: list[Interval], gts: list[Interval],
                      tau: float) -> float:
    """All-point-interpolated AP for a single class slice.

    Each prediction greedily claims the unmatched same-video ground truth
    with the highest tIoU >= tau (ties: earlier GT start, then input order).
    """
    if not gts:
        return 0.0
    if not preds:
        return 0.0

    gt_by_video: dict[str, list[tuple[int, Interval]]] = {}
    for gi, gt in enumerate(gts):
        gt_by_video.setdefault(gt.video_id, []).append((gi, gt))

    matched = np.zeros(len(gts), dtype=bool)
    ranked = _ranked(preds)
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


def oracle_ap(preds: list[Interval], gts: list[Interval], tau: float) -> float:
    """Naive reference AP: quadratic matching, direct staircase summation."""
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

    def format_table(self, row_name: str = "model") -> str:
        header = ["Method"] + [f"@{t:g}" for t in self.thresholds] + ["Avg"]
        cells = [row_name] + [f"{100.0 * v:.1f}" for v in self.map_per_threshold]
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
    if not gts:
        raise EmptyInputError("no ground-truth events: nothing to evaluate")

    labels = sorted({g.label_id for g in gts})
    preds_by_label: dict[int, list[Interval]] = {c: [] for c in labels}
    gts_by_label: dict[int, list[Interval]] = {c: [] for c in labels}
    for g in gts:
        gts_by_label[g.label_id].append(g)
    for p in preds:
        if p.label_id in preds_by_label:
            preds_by_label[p.label_id].append(p)

    def name(c: int) -> str:
        if class_names and 0 <= c < len(class_names):
            return class_names[c]
        return str(c)

    per_class: dict[str, list[float]] = {}
    maps = []
    for tau in thresholds:
        aps = []
        for c in labels:
            ap = average_precision(preds_by_label[c], gts_by_label[c], tau)
            per_class.setdefault(name(c), []).append(ap)
            aps.append(ap)
        maps.append(math.fsum(aps) / len(aps))

    return EvalReport(
        thresholds=tuple(thresholds),
        map_per_threshold=maps,
        average_map=average_over_thresholds(maps),
        per_class_ap=per_class,
        num_gt=len(gts),
        num_predictions=len(preds),
    )
