"""Anchor-free decoder heads: per-moment class logits and boundary distances.

Every pyramid point is one row: generate_points lays the points out video
after video, each video's levels end to end, as flat columns, and run_heads
returns its outputs in the same row order. Both heads share one parameter
set across pyramid levels: a trunk of two kernel-3 convolutions with layer
norm and ReLU, then a final kernel-3 convolution to C channels
(classification) or 2 channels (regression). The levels are joined once
into that row order, and each trunk runs once over the join, every level of
every video a segment of its own, so no convolution window crosses a level
or a video. Regression outputs pass through softplus so decoded intervals
always have start <= end; distances are expressed in units of the point's
stride.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Mapping, Sequence

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

    def split(self, sizes: Sequence[int]) -> list["PointSet"]:
        """The rows cut into consecutive runs of the given sizes."""
        ends = np.cumsum(sizes)[:-1]
        columns = [np.split(getattr(self, f.name), ends) for f in fields(self)]
        return [PointSet(*run) for run in zip(*columns)]


def generate_points(pyramid: Pyramid, range_base: float = DEFAULT_RANGE_BASE) -> PointSet:
    """Timestamps, strides and regression ranges for every pyramid point.

    Level k covers events whose longer boundary distance lies in
    [range_base * s_{k-1}, range_base * s_k), with s_{-1} = 0 and the last
    upper bound open at infinity; together the ranges partition (0, inf).
    A pyramid of several videos gives their points video after video.
    """
    if not pyramid.levels:
        raise EmptyInputError("cannot generate points for an empty pyramid")
    videos = pyramid.video_lengths
    lengths = [t for rows in videos for t in rows]
    upper = range_base * np.array(pyramid.strides, dtype=np.float64)
    lower = np.concatenate(([0.0], upper[:-1]))
    upper[-1] = math.inf
    level_strides = np.array(pyramid.strides, dtype=np.int64)
    strides = np.repeat(np.tile(level_strides, len(videos)), lengths)
    index = np.concatenate([np.arange(t) for t in lengths])
    return PointSet((index + 0.5) * strides, strides,
                    np.repeat(np.tile(lower, len(videos)), lengths),
                    np.repeat(np.tile(upper, len(videos)), lengths))


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


def init_head_params(d_model: int, num_classes: int,
                     rng: np.random.Generator) -> dict[str, np.ndarray]:
    return pr.init_params(head_param_shapes(d_model, num_classes), rng)


def _head_trunk(x: Tensor, p: Mapping[str, Tensor], branch: str,
                segments: Sequence[int]) -> Tensor:
    h = x
    for i in (1, 2):
        h = ad.conv1d(h, p[f"head.{branch}.conv{i}.w"],
                      bias=p[f"head.{branch}.conv{i}.b"], segments=segments)
        h = ad.layer_norm(h, p[f"head.{branch}.ln{i}.gamma"],
                          p[f"head.{branch}.ln{i}.beta"])
        h = ad.relu(h)
    return ad.conv1d(h, p[f"head.{branch}.out.w"],
                     bias=p[f"head.{branch}.out.b"], segments=segments)


def run_heads(pyramid: Pyramid, p: Mapping[str, Tensor]) -> HeadOutput:
    """Class logits and boundary distances for every point, rows as in
    generate_points: one join of the levels, then one pass per trunk."""
    joined = ad.concat_rows([lvl.features for lvl in pyramid.levels],
                            [lvl.segments for lvl in pyramid.levels])
    segments = [t for rows in pyramid.video_lengths for t in rows]
    return HeadOutput(_head_trunk(joined, p, "cls", segments),
                      ad.softplus(_head_trunk(joined, p, "reg", segments)))
