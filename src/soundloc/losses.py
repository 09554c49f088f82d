"""Training objective: target assignment, focal and DIoU terms.

A point is assigned to an event when it sits inside the event and within the
center-sampling window, and the event's longer boundary distance falls in
the point's regression range. Among several qualifying events the shortest
wins (ties: earlier start, then lower label). Targets come as one row per
pyramid point, in the PointSet's order, and every point is labelled in one
pass over an (events, points) table. The total objective is

    (sum of focal over all points and classes
     + lambda_reg * sum of DIoU over positive points) / max(T_plus, 1)

The focal and DIoU terms are one tape record each, with a hand-written
backward that follows the chain rule of the elementwise composition step by
step in its order of operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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
    """Training targets, one row per pyramid point as in a PointSet."""

    cls_targets: np.ndarray   # (N, C) float 0/1
    positive: np.ndarray      # (N,) bool
    reg_targets: np.ndarray   # (N, 2) float, stride units

    @property
    def t_plus(self) -> int:
        return int(np.count_nonzero(self.positive))


def join_assignments(parts: Sequence[Assignment]) -> Assignment:
    """The targets of several videos' points laid end to end, in order."""
    return Assignment(np.concatenate([a.cls_targets for a in parts]),
                      np.concatenate([a.positive for a in parts]),
                      np.concatenate([a.reg_targets for a in parts]))


def assign_targets(points: PointSet, ann: AnnotationSet,
                   stride_sec: float, num_classes: int) -> Assignment:
    """Label every pyramid point against one video's ground-truth events."""
    ts, strides = points.timestamps, points.strides
    n = ts.shape[0]
    cls_t = np.zeros((n, num_classes), dtype=np.float32)
    reg_t = np.zeros((n, 2), dtype=np.float32)
    if not ann.events:
        return Assignment(cls_t, np.zeros(n, dtype=bool), reg_t)

    label = np.array([ev.label for ev in ann.events], dtype=np.int64)
    s_u = np.array([ev.start_sec / stride_sec for ev in ann.events])
    e_u = np.array([ev.end_sec / stride_sec for ev in ann.events])
    # sorted by (length, start, label), stably: a point takes the first
    # event it qualifies for
    order = np.lexsort((label, s_u, e_u - s_u))
    label, s_u, e_u = label[order], s_u[order, None], e_u[order, None]

    center = 0.5 * (s_u + e_u)
    radius = CENTER_SAMPLING_RADIUS * strides
    inside = ((ts >= np.maximum(s_u, center - radius))
              & (ts <= np.minimum(e_u, center + radius)))
    far = np.maximum(ts - s_u, e_u - ts)
    ok = inside & (far >= points.range_min) & (far < points.range_max)

    positive = ok.any(axis=0)
    pt = np.flatnonzero(positive)
    ev = ok[:, pt].argmax(axis=0)
    cls_t[pt, label[ev]] = 1.0
    reg_t[pt, 0] = (ts[pt] - s_u[ev, 0]) / strides[pt]
    reg_t[pt, 1] = (e_u[ev, 0] - ts[pt]) / strides[pt]
    return Assignment(cls_t, positive, reg_t)


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


def loss_sums(head_out: HeadOutput,
              assignment: Assignment) -> tuple[Tensor, Tensor, int]:
    """Unnormalized loss sums: (focal sum, DIoU sum, T_plus).

    Focal runs over every point and class; DIoU only over positive
    points. :func:`objective` divides them by the positive count.
    """
    _, cls_sum = focal_loss(head_out.cls_logits, assignment.cls_targets)
    idx = np.flatnonzero(assignment.positive)
    if not idx.size:
        return cls_sum, cls_sum.tape.constant(0.0), 0
    rows = _gather_rows(head_out.distances, idx)
    per_point = diou_loss(rows, assignment.reg_targets[idx])
    return cls_sum, ad.sum_all(per_point), idx.size


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
               lambda_reg: float = 1.0) -> tuple[Tensor, dict]:
    """Combined objective for one video, normalized by max(T_plus, 1)."""
    return objective(*loss_sums(head_out, assignment), lambda_reg)


def _gather_rows(x: Tensor, idx: np.ndarray) -> Tensor:
    """Row gather for distinct row indices; the backward scatters them back."""
    idx = np.asarray(idx, dtype=np.int64)

    def bwd(g, acc):
        full = np.zeros_like(x.values)
        full[idx] = g   # indices come from np.nonzero: no repeats to add
        acc(x, full)

    return x.tape.record(x.values[idx].copy(), bwd)
