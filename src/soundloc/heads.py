"""Anchor-free decoder heads: per-moment class logits and boundary distances.

Both heads share one parameter set across pyramid levels: a trunk of two
kernel-3 convolutions with layer norm and ReLU, then a final kernel-3
convolution to C channels (classification) or 2 channels (regression).
Regression outputs pass through softplus so decoded intervals always have
start <= end; distances are expressed in units of the level stride.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import autodiff as ad
from . import params as pr
from .autodiff import Tensor
from .backbone import Pyramid, conv_spec
from .errors import EmptyInputError

DEFAULT_RANGE_BASE = 4.0
PRIOR_PROB = 0.01


@dataclass
class LevelPoints:
    """Point lattice for one pyramid level, in input-grid units."""

    timestamps: np.ndarray    # (T_level,), (i + 0.5) * stride
    stride_units: int
    range_min: float          # regression range [range_min, range_max)
    range_max: float


@dataclass
class PointSet:
    levels: list[LevelPoints] = field(default_factory=list)


def generate_points(pyramid: Pyramid, range_base: float = DEFAULT_RANGE_BASE) -> PointSet:
    """Timestamps and regression ranges for every pyramid level.

    Level k covers events whose longer boundary distance lies in
    [range_base * s_{k-1}, range_base * s_k), with s_{-1} = 0 and the last
    upper bound open at infinity; together the ranges partition (0, inf).
    """
    if not pyramid.levels:
        raise EmptyInputError("cannot generate points for an empty pyramid")
    points = PointSet()
    prev_stride = 0
    n = len(pyramid.levels)
    for k, lvl in enumerate(pyramid.levels):
        t = lvl.features.shape[0]
        ts = (np.arange(t, dtype=np.float64) + 0.5) * lvl.stride_units
        lo = range_base * prev_stride
        hi = math.inf if k == n - 1 else range_base * lvl.stride_units
        points.levels.append(LevelPoints(ts, lvl.stride_units, lo, hi))
        prev_stride = lvl.stride_units
    return points


@dataclass
class HeadOutput:
    """Per-level head outputs, aligned with the pyramid levels."""

    cls_logits: list[Tensor]    # (T_level, C)
    reg_raw: list[Tensor]       # (T_level, 2), pre-softplus
    distances: list[Tensor]     # (T_level, 2), nonnegative, stride units


def head_param_shapes(d_model: int, num_classes: int,
                      prior_prob: float = PRIOR_PROB) -> dict[str, pr.ParamSpec]:
    """Every head parameter, in the order its values are drawn."""
    p: dict[str, pr.ParamSpec] = {}
    for branch in ("cls", "reg"):
        for i in (1, 2):
            p[f"head.{branch}.conv{i}.w"] = conv_spec(3, d_model, d_model)
            p[f"head.{branch}.conv{i}.b"] = pr.ParamSpec((d_model,))
            p[f"head.{branch}.ln{i}.gamma"] = pr.ParamSpec((d_model,), fill=1.0)
            p[f"head.{branch}.ln{i}.beta"] = pr.ParamSpec((d_model,))
    p["head.cls.out.w"] = conv_spec(3, d_model, num_classes)
    # bias so that initial sigmoid outputs sit near the positive prior
    p["head.cls.out.b"] = pr.ParamSpec(
        (num_classes,), fill=-math.log((1.0 - prior_prob) / prior_prob))
    p["head.reg.out.w"] = conv_spec(3, d_model, 2)
    p["head.reg.out.b"] = pr.ParamSpec((2,))
    return p


def init_head_params(d_model: int, num_classes: int, rng: np.random.Generator,
                     prior_prob: float = PRIOR_PROB) -> dict[str, np.ndarray]:
    return pr.init_params(head_param_shapes(d_model, num_classes, prior_prob), rng)


def _head_trunk(x: Tensor, p: Mapping[str, Tensor], branch: str) -> Tensor:
    h = x
    for i in (1, 2):
        h = ad.conv1d(h, p[f"head.{branch}.conv{i}.w"],
                      bias=p[f"head.{branch}.conv{i}.b"])
        h = ad.layer_norm(h, p[f"head.{branch}.ln{i}.gamma"],
                          p[f"head.{branch}.ln{i}.beta"])
        h = ad.relu(h)
    return ad.conv1d(h, p[f"head.{branch}.out.w"],
                     bias=p[f"head.{branch}.out.b"])


def run_heads(pyramid: Pyramid, p: Mapping[str, Tensor]) -> HeadOutput:
    """Class logits and pre-softplus boundary distances for every level."""
    cls_logits = [_head_trunk(lvl.features, p, "cls") for lvl in pyramid.levels]
    reg_raw = [_head_trunk(lvl.features, p, "reg") for lvl in pyramid.levels]
    distances = [ad.softplus(r) for r in reg_raw]
    return HeadOutput(cls_logits=cls_logits, reg_raw=reg_raw, distances=distances)
