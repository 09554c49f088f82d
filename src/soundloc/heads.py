"""Anchor-free decoder heads: per-moment class logits and boundary distances.

Every pyramid point is one row: generate_points lays the levels' points end
to end as flat columns, and run_heads returns its outputs in the same row
order. Both heads share one parameter set across pyramid levels: a trunk of
two kernel-3 convolutions with layer norm and ReLU, then a final kernel-3
convolution to C channels (classification) or 2 channels (regression). The
trunks run per level, and each branch's levels are then stacked into one
tensor. Regression outputs pass through softplus so decoded intervals always
have start <= end; distances are expressed in units of the point's stride.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
class PointSet:
    """Every pyramid point as one row, levels in order, in input-grid units."""

    timestamps: np.ndarray    # (N,), (i + 0.5) * stride at a level's i-th point
    strides: np.ndarray       # (N,) int64, the level's stride
    range_min: np.ndarray     # (N,), regression range [range_min, range_max)
    range_max: np.ndarray     # (N,)


def generate_points(pyramid: Pyramid, range_base: float = DEFAULT_RANGE_BASE) -> PointSet:
    """Timestamps, strides and regression ranges for every pyramid point.

    Level k covers events whose longer boundary distance lies in
    [range_base * s_{k-1}, range_base * s_k), with s_{-1} = 0 and the last
    upper bound open at infinity; together the ranges partition (0, inf).
    """
    if not pyramid.levels:
        raise EmptyInputError("cannot generate points for an empty pyramid")
    lengths = pyramid.lengths
    upper = range_base * np.array(pyramid.strides, dtype=np.float64)
    lower = np.concatenate(([0.0], upper[:-1]))
    upper[-1] = math.inf
    strides = np.repeat(np.array(pyramid.strides, dtype=np.int64), lengths)
    index = np.concatenate([np.arange(t) for t in lengths])
    return PointSet((index + 0.5) * strides, strides,
                    np.repeat(lower, lengths), np.repeat(upper, lengths))


@dataclass
class HeadOutput:
    """Head outputs for every pyramid point, rows as in the PointSet."""

    cls_logits: Tensor    # (N, C)
    distances: Tensor     # (N, 2), nonnegative, stride units


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
    """Class logits and boundary distances for every point, levels in order."""
    cls_logits = ad.concat_rows([_head_trunk(lvl.features, p, "cls")
                                 for lvl in pyramid.levels])
    reg_raw = ad.concat_rows([_head_trunk(lvl.features, p, "reg")
                              for lvl in pyramid.levels])
    return HeadOutput(cls_logits, ad.softplus(reg_raw))
