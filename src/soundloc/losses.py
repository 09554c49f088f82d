"""Training objective: target assignment, focal and DIoU terms.

A point is assigned to an event when it sits inside the event and within the
center-sampling window, and the event's longer boundary distance falls in
that pyramid level's regression range. Among several qualifying events the
shortest wins (ties: earlier start, then lower label). The total objective is

    (sum of focal over all points and classes
     + lambda_reg * sum of DIoU over positive points) / max(T_plus, 1)

The focal and DIoU terms are one tape record each, with a hand-written
backward that follows the chain rule of the elementwise composition step by
step in its order of operations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import AnnotationSet
from .errors import ShapeError, ValidationError
from .heads import HeadOutput, PointSet

CENTER_SAMPLING_RADIUS = 1.5
FOCAL_ALPHA = 0.25
FOCAL_GAMMA = 2.0


@dataclass
class Assignment:
    """Per-level training targets aligned with a PointSet."""

    cls_targets: list[np.ndarray]   # (T_level, C) float 0/1
    positive: list[np.ndarray]      # (T_level,) bool
    reg_targets: list[np.ndarray]   # (T_level, 2) float, stride units
    t_plus: int = 0

    def recount(self) -> int:
        return int(sum(p.sum() for p in self.positive))


def assign_targets(points: PointSet, ann: AnnotationSet,
                   stride_sec: float, num_classes: int,
                   center_radius: float = CENTER_SAMPLING_RADIUS) -> Assignment:
    """Label every pyramid point against one video's ground-truth events."""
    events = [(ev.label, ev.start_sec / stride_sec, ev.end_sec / stride_sec)
              for ev in ann.events]

    out = Assignment([], [], [])
    for lvl in points.levels:
        ts = lvl.timestamps
        n = ts.shape[0]
        cls_t = np.zeros((n, num_classes), dtype=np.float32)
        pos = np.zeros(n, dtype=bool)
        reg_t = np.zeros((n, 2), dtype=np.float32)

        # (length, start, label) keys; smaller wins
        best_key = np.full((n, 3), np.inf)
        best = np.full(n, -1, dtype=np.int64)
        for ei, (label, s_u, e_u) in enumerate(events):
            center = 0.5 * (s_u + e_u)
            radius = center_radius * lvl.stride_units
            inside = (ts >= max(s_u, center - radius)) & (ts <= min(e_u, center + radius))
            far = np.maximum(ts - s_u, e_u - ts)
            in_range = (far >= lvl.range_min) & (far < lvl.range_max)
            ok = inside & in_range
            if not ok.any():
                continue
            key = np.array([e_u - s_u, s_u, float(label)])
            better = ok & _lex_less(key, best_key)
            best[better] = ei
            best_key[better] = key

        chosen = best >= 0
        for i in np.nonzero(chosen)[0]:
            label, s_u, e_u = events[best[i]]
            pos[i] = True
            cls_t[i, label] = 1.0
            reg_t[i, 0] = (ts[i] - s_u) / lvl.stride_units
            reg_t[i, 1] = (e_u - ts[i]) / lvl.stride_units

        out.cls_targets.append(cls_t)
        out.positive.append(pos)
        out.reg_targets.append(reg_t)
    out.t_plus = out.recount()
    return out


def _lex_less(key: np.ndarray, best: np.ndarray) -> np.ndarray:
    """key < best[i] lexicographically, vectorized over rows of best."""
    k0, k1, k2 = key
    b0, b1, b2 = best[:, 0], best[:, 1], best[:, 2]
    return (k0 < b0) | ((k0 == b0) & ((k1 < b1) | ((k1 == b1) & (k2 < b2))))


# ---------------------------------------------------------------------------
# loss terms

def focal_loss(logits: Tensor, targets: np.ndarray,
               alpha: float = FOCAL_ALPHA, gamma: float = FOCAL_GAMMA
               ) -> tuple[Tensor, Tensor]:
    """Sigmoid focal loss; returns (per-element losses, their sum).

    Uses softplus-based log-sigmoids, so large logits stay finite. The
    per-element losses are one tape record with a hand-written backward.
    """
    tape = logits.tape
    x = logits.values
    y = np.asarray(targets, dtype=tape.dtype)
    if y.shape != x.shape:
        raise ShapeError(f"focal targets have shape {y.shape}, logits {x.shape}")
    p = ad.stable_sigmoid(x)
    q = 1.0 - p
    # -log p = softplus(-x); -log(1-p) = softplus(x)
    ce_pos = np.logaddexp(0.0, -x)
    ce_neg = np.logaddexp(0.0, x)
    w_pos = alpha * q ** gamma
    w_neg = (1.0 - alpha) * p ** gamma
    not_y = 1.0 - y
    elem = y * (w_pos * ce_pos) + not_y * (w_neg * ce_neg)

    def bwd(g, acc):
        g_pos = g * y
        g_neg = g * not_y
        d_p = g_neg * ce_neg * (1.0 - alpha) * gamma * p ** (gamma - 1.0)
        d_q = g_pos * ce_pos * alpha * gamma * q ** (gamma - 1.0)
        d_p = d_p + -d_q
        d_x = g_neg * w_neg * p
        d_x = d_x + -(g_pos * w_pos * ad.stable_sigmoid(-x))
        acc(logits, d_x + d_p * p * (1.0 - p))

    elem_t = tape.record(elem, bwd)
    return elem_t, ad.sum_all(elem_t)


def diou_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    """DIoU loss between distance pairs (d_start, d_end) around a shared point.

    ``pred`` is (N, >= 2), of which columns 0 and 1 are read, or a single
    (2,) pair; ``target`` is (N, 2) or (2,) to match, and the loss is (N, 1)
    or a scalar. The predicted interval is [-d_s, d_e] on the
    stride-normalized axis and the target likewise; the loss per row is
    1 - IoU + (center gap / enclosing span)^2, in [0, 2). Targets must be
    non-degenerate. The loss is one tape record with a hand-written backward.
    """
    tape = pred.tape
    squeeze = pred.values.ndim == 1
    pv = pred.values.reshape(1, -1) if squeeze else pred.values
    if pv.ndim != 2 or pv.shape[1] < 2 or (squeeze and pv.shape[1] != 2):
        raise ShapeError(f"diou_loss needs (N, >=2) or (2,) predictions, "
                         f"got {pred.values.shape}")
    tgt = np.asarray(target, dtype=tape.dtype)
    if tgt.shape != ((2,) if squeeze else (pv.shape[0], 2)):
        raise ShapeError(f"diou_loss targets have shape {tgt.shape} for "
                         f"predictions of shape {pred.values.shape}")
    tgt = tgt.reshape(-1, 2)
    if (pred.values < 0).any():
        raise ValidationError("predicted distances must be nonnegative")
    if ((tgt[:, 0] + tgt[:, 1]) <= 0).any():
        raise ValidationError("target interval is degenerate (zero length)")

    ds, de = pv[:, 0:1], pv[:, 1:2]
    ds_t, de_t = tgt[:, 0:1], tgt[:, 1:2]
    start_in, end_in = ds <= ds_t, de <= de_t
    overlap = np.where(end_in, de, de_t) + np.where(start_in, ds, ds_t)
    keep = overlap > 0
    inter = overlap * keep
    union = ((ds + de) + (ds_t + de_t)) - inter
    iou = inter / union
    center_gap = ((de - ds) - (de_t - ds_t)) * 0.5
    start_out, end_out = ds >= ds_t, de >= de_t
    enclose = np.where(end_out, de, de_t) + np.where(start_out, ds, ds_t)
    ratio = center_gap / enclose
    loss = (1.0 - iou) + ratio * ratio

    def bwd(g, acc):
        g = g.reshape(loss.shape)
        d_ratio = g * 2.0 * ratio
        d_gap = d_ratio / enclose * 0.5
        d_enclose = -d_ratio * center_gap / (enclose * enclose)
        d_iou = -g
        d_union = -d_iou * inter / (union * union)
        d_overlap = (d_iou / union + -d_union) * keep
        d_ds = d_enclose * start_out + -d_gap + d_union + d_overlap * start_in
        d_de = d_enclose * end_out + d_gap + d_union + d_overlap * end_in
        full = np.zeros_like(pv)
        full[:, 0:1] = d_ds
        full[:, 1:2] = d_de
        acc(pred, full.reshape(pred.values.shape))

    return tape.record(loss.reshape(()) if squeeze else loss, bwd)


def loss_sums(head_out: HeadOutput, assignment: Assignment,
              alpha: float = FOCAL_ALPHA, gamma: float = FOCAL_GAMMA
              ) -> tuple[Tensor, Tensor, int]:
    """Unnormalized loss sums for one video: (focal sum, DIoU sum, T_plus).

    Focal runs over every point and class; DIoU only over positive
    points. Callers divide by their own positive count, which lets several
    videos share one normalizer in a batch.
    """
    tape = head_out.cls_logits[0].tape
    cls_sum = tape.constant(0.0)
    reg_sum = tape.constant(0.0)
    for li, logits in enumerate(head_out.cls_logits):
        _, focal_sum = focal_loss(logits, assignment.cls_targets[li], alpha, gamma)
        cls_sum = ad.add(cls_sum, focal_sum)

        pos = assignment.positive[li]
        if pos.any():
            idx = np.nonzero(pos)[0]
            dist = head_out.distances[li]
            rows = _gather_rows(dist, idx)
            per_point = diou_loss(rows, assignment.reg_targets[li][idx])
            reg_sum = ad.add(reg_sum, ad.sum_all(per_point))
    return cls_sum, reg_sum, assignment.t_plus


def objective(cls_sum: Tensor, reg_sum: Tensor, t_plus: int,
              lambda_reg: float) -> tuple[Tensor, dict]:
    """(cls_sum + lambda_reg * reg_sum) / max(t_plus, 1) and its scalars.

    The scalars are ``total``, ``l_cls``, ``l_reg`` and ``t_plus``: what a
    training step reports and the run manifest averages per epoch.
    """
    tape = cls_sum.tape
    denom = tape.constant(float(max(t_plus, 1)))
    total = ad.div(ad.add(cls_sum, ad.mul(tape.constant(lambda_reg), reg_sum)), denom)
    return total, {"total": float(total.values), "l_cls": float(cls_sum.values),
                   "l_reg": float(reg_sum.values), "t_plus": t_plus}


def total_loss(head_out: HeadOutput, assignment: Assignment,
               lambda_reg: float = 1.0,
               alpha: float = FOCAL_ALPHA, gamma: float = FOCAL_GAMMA
               ) -> tuple[Tensor, dict]:
    """Combined objective for one video, normalized by max(T_plus, 1)."""
    return objective(*loss_sums(head_out, assignment, alpha, gamma), lambda_reg)


def _gather_rows(x: Tensor, idx: np.ndarray) -> Tensor:
    """Row gather for distinct row indices; the backward scatters them back."""
    idx = np.asarray(idx, dtype=np.int64)

    def bwd(g, acc):
        full = np.zeros_like(x.values)
        full[idx] = g   # indices come from np.nonzero: no repeats to add
        acc(x, full)

    return x.tape.record(x.values[idx].copy(), bwd)
