"""Per-level and per-video oracles for the packed, flat point layout.

Heads, targets, losses and decoding used to keep one array per pyramid
level, aligned by index, and a training step used to run the model once per
video. These are those implementations, kept as the reference that the
packed one-row-per-point code in ``src/`` must match: the point lattice, the
assignment, the recovered candidates and a training step's gradients.
``flatten`` turns the per-level layout into the flat one.
"""

import math
from dataclasses import dataclass

import numpy as np

from soundloc import autodiff as ad
from soundloc import params as pr
from soundloc.backbone import build_pyramid
from soundloc.decode import Candidates, DecodeConfig
from soundloc.errors import EmptyInputError, ValidationError
from soundloc.heads import DEFAULT_RANGE_BASE, HeadOutput, PointSet
from soundloc.losses import (
    CENTER_SAMPLING_RADIUS,
    FOCAL_ALPHA,
    FOCAL_GAMMA,
    _gather_rows,
    diou_loss,
    focal_loss,
    objective,
)


@dataclass
class LevelPoints:
    """Point lattice for one pyramid level, in input-grid units."""

    timestamps: np.ndarray    # (T_level,), (i + 0.5) * stride
    stride_units: int
    range_min: float          # regression range [range_min, range_max)
    range_max: float


@dataclass
class LevelHeads:
    """Per-level head outputs, aligned with the pyramid levels."""

    cls_logits: list          # (T_level, C) tensors
    reg_raw: list             # (T_level, 2), pre-softplus
    distances: list           # (T_level, 2), nonnegative, stride units


@dataclass
class LevelAssignment:
    """Per-level training targets aligned with a list of LevelPoints."""

    cls_targets: list         # (T_level, C) float 0/1
    positive: list            # (T_level,) bool
    reg_targets: list         # (T_level, 2) float, stride units
    t_plus: int = 0


def generate_points(pyramid, range_base=DEFAULT_RANGE_BASE):
    if not pyramid.levels:
        raise EmptyInputError("cannot generate points for an empty pyramid")
    levels = []
    prev_stride = 0
    n = len(pyramid.levels)
    for k, lvl in enumerate(pyramid.levels):
        t = lvl.features.shape[0]
        ts = (np.arange(t, dtype=np.float64) + 0.5) * lvl.stride_units
        lo = range_base * prev_stride
        hi = math.inf if k == n - 1 else range_base * lvl.stride_units
        levels.append(LevelPoints(ts, lvl.stride_units, lo, hi))
        prev_stride = lvl.stride_units
    return levels


def _head_trunk(x, p, branch):
    h = x
    for i in (1, 2):
        h = ad.conv1d(h, p[f"head.{branch}.conv{i}.w"],
                      bias=p[f"head.{branch}.conv{i}.b"])
        h = ad.layer_norm(h, p[f"head.{branch}.ln{i}.gamma"],
                          p[f"head.{branch}.ln{i}.beta"])
        h = ad.relu(h)
    return ad.conv1d(h, p[f"head.{branch}.out.w"],
                     bias=p[f"head.{branch}.out.b"])


def run_heads(pyramid, p):
    """One trunk call per level and branch."""
    cls_logits = [_head_trunk(lvl.features, p, "cls") for lvl in pyramid.levels]
    reg_raw = [_head_trunk(lvl.features, p, "reg") for lvl in pyramid.levels]
    distances = [ad.softplus(r) for r in reg_raw]
    return LevelHeads(cls_logits, reg_raw, distances)


def _lex_less(key, best):
    """key < best[i] lexicographically, vectorized over rows of best."""
    k0, k1, k2 = key
    b0, b1, b2 = best[:, 0], best[:, 1], best[:, 2]
    return (k0 < b0) | ((k0 == b0) & ((k1 < b1) | ((k1 == b1) & (k2 < b2))))


def assign_targets(levels, ann, stride_sec, num_classes,
                   center_radius=CENTER_SAMPLING_RADIUS):
    events = [(ev.label, ev.start_sec / stride_sec, ev.end_sec / stride_sec)
              for ev in ann.events]

    out = LevelAssignment([], [], [])
    for lvl in levels:
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

        for i in np.nonzero(best >= 0)[0]:
            label, s_u, e_u = events[best[i]]
            pos[i] = True
            cls_t[i, label] = 1.0
            reg_t[i, 0] = (ts[i] - s_u) / lvl.stride_units
            reg_t[i, 1] = (e_u - ts[i]) / lvl.stride_units

        out.cls_targets.append(cls_t)
        out.positive.append(pos)
        out.reg_targets.append(reg_t)
    out.t_plus = int(sum(p.sum() for p in out.positive))
    return out


def loss_sums(heads, assignment, alpha=FOCAL_ALPHA, gamma=FOCAL_GAMMA):
    tape = heads.cls_logits[0].tape
    cls_sum = tape.constant(0.0)
    reg_sum = tape.constant(0.0)
    for li, logits in enumerate(heads.cls_logits):
        _, focal_sum = focal_loss(logits, assignment.cls_targets[li], alpha, gamma)
        cls_sum = ad.add(cls_sum, focal_sum)

        pos = assignment.positive[li]
        if pos.any():
            idx = np.nonzero(pos)[0]
            rows = _gather_rows(heads.distances[li], idx)
            per_point = diou_loss(rows, assignment.reg_targets[li][idx])
            reg_sum = ad.add(reg_sum, ad.sum_all(per_point))
    return cls_sum, reg_sum, assignment.t_plus


def recover_intervals(heads, levels, stride_sec, duration_sec,
                      score_thresh=DecodeConfig.score_thresh,
                      pre_nms_topk=DecodeConfig.pre_nms_topk):
    cols = []
    for lvl, logits, dist in zip(levels, heads.cls_logits, heads.distances):
        probs = 1.0 / (1.0 + np.exp(-np.asarray(logits.values, dtype=np.float64)))
        d = np.asarray(dist.values, dtype=np.float64)
        starts = np.clip((lvl.timestamps - d[:, 0] * lvl.stride_units) * stride_sec,
                         0.0, duration_sec)
        ends = np.clip((lvl.timestamps + d[:, 1] * lvl.stride_units) * stride_sec,
                       0.0, duration_sec)
        point_ok = ~(starts >= ends)
        pt, cls = np.nonzero((probs >= score_thresh) & point_ok[:, None])
        cols.append((probs[pt, cls], starts[pt], ends[pt], cls))
    score, start, end, label = (np.concatenate(c) for c in zip(*cols))

    bad = np.flatnonzero(~((start < end) & (end < np.inf)))
    if bad.size:
        i = bad[0]
        raise ValidationError(
            f"interval must have finite start < end, got "
            f"[{float(start[i])}, {float(end[i])}]")

    rows = np.arange(score.size)
    if 0 < pre_nms_topk < score.size:
        kth = np.partition(score, score.size - pre_nms_topk)[score.size - pre_nms_topk]
        rows = np.flatnonzero(score >= kth)
    order = rows[np.lexsort((end[rows], label[rows], start[rows], -score[rows]))]
    return Candidates(label, score, start, end).take(order[:pre_nms_topk])


def train_step(arrays, cfg, batch, dataset, lambda_reg):
    """train.train_step run once per video, on per-level heads, targets and
    losses, with the videos' loss sums added up."""
    tape = ad.Tape(dtype=np.float32)
    bound = pr.bind(tape, arrays)
    cls_total = tape.constant(0.0)
    reg_total = tape.constant(0.0)
    t_plus = 0
    for vid in sorted(batch):
        fused = dataset.fused[vid]
        pyramid = build_pyramid(tape.constant(fused.data), bound, cfg.backbone)
        levels = generate_points(pyramid, cfg.range_base)
        heads = run_heads(pyramid, bound)
        a = assign_targets(levels, dataset.annotations[vid], fused.stride_sec,
                           cfg.num_classes)
        cls_sum, reg_sum, video_pos = loss_sums(heads, a)
        cls_total = ad.add(cls_total, cls_sum)
        reg_total = ad.add(reg_total, reg_sum)
        t_plus += video_pos
    loss, scalars = objective(cls_total, reg_total, t_plus, lambda_reg)
    ad.backward(tape, loss)
    return pr.collect_grads(bound), scalars


# ---------------------------------------------------------------------------
# from the per-level layout to the flat one

def flatten(levels, heads=None):
    """The PointSet (and HeadOutput) with the levels' rows end to end."""
    points = PointSet(
        np.concatenate([lvl.timestamps for lvl in levels]),
        np.concatenate([np.full(lvl.timestamps.size, lvl.stride_units,
                                dtype=np.int64) for lvl in levels]),
        np.concatenate([np.full(lvl.timestamps.size, float(lvl.range_min))
                        for lvl in levels]),
        np.concatenate([np.full(lvl.timestamps.size, float(lvl.range_max))
                        for lvl in levels]))
    if heads is None:
        return points
    return points, HeadOutput(ad.concat_rows(heads.cls_logits),
                              ad.concat_rows(heads.distances))
