"""Multi-scale transformer over fused feature sequences.

A convolutional embedding projects the fused features to model width, then a
stack of transformer blocks with windowed local self-attention and learnable
per-channel branch scaling runs, downsampling by 2 on the configured blocks.
Every block runs ActionFormer's recurrence (Zhang et al., arXiv 2202.07925,
eq. 3), where both branches add their input:
``z_bar = scale_attn * MSA(LN(x)) + x`` and
``z_hat = scale_mlp * MLP(LN(z_bar)) + z_bar``. The source paper prints the
attention branch without ``+ x``; that stack does not learn at the
full-scale depth (9 blocks at d_model 32, 24 synthetic videos at T=256,
6 epochs: best val mAP 0.121, against 0.886 with the residual).
The attention is computed on a band of key offsets
(:func:`soundloc.autodiff.local_attention`), so a forward pass costs time and
memory linear in the sequence length.
The outputs form a feature pyramid: one level after the last full-resolution
block, one after every downsampling block. A batch of videos runs as one
sequence, packed end to end: every layer gets the videos' row counts as
segments, so each video's rows come out as they would alone.

Parameters live in plain ``{name: ndarray}`` dicts so checkpoints are a
stable name -> shape -> payload map; forward passes bind them as leaves on an
autodiff tape (see :mod:`soundloc.params`).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from . import autodiff as ad
from . import params as pr
from .autodiff import Tensor
from .errors import ConfigError, EmptyInputError, check_numbers, is_count

logger = logging.getLogger(__name__)

DEFAULT_STRIDE_SCHEDULE = (1, 1, 1, 2, 2, 2, 2, 2, 2)


@dataclass
class BackboneConfig:
    """Architecture knobs; defaults are the full-scale configuration."""

    input_dim: int = 1664
    d_model: int = 512
    num_blocks: int = 9
    window: int = 11
    num_heads: int = 4
    mlp_ratio: int = 4
    stride_schedule: tuple[int, ...] = DEFAULT_STRIDE_SCHEDULE
    layerscale_init: float = 1e-4

    def validate(self) -> None:
        check_numbers(self, reals=("layerscale_init",),
                      counts=("input_dim", "d_model", "num_blocks", "window",
                              "num_heads", "mlp_ratio"))
        if not (isinstance(self.stride_schedule, tuple)
                and all(map(is_count, self.stride_schedule))):
            raise ConfigError(f"stride_schedule must be a tuple of integers, "
                              f"got {self.stride_schedule!r}")
        if self.num_blocks < 1:
            raise ConfigError("num_blocks must be >= 1")
        if self.window < 1 or self.window % 2 == 0:
            raise ConfigError(f"window must be odd and positive, got {self.window}")
        if min(self.input_dim, self.d_model, self.num_heads, self.mlp_ratio) < 1:
            raise ConfigError("input_dim, d_model, num_heads and mlp_ratio must be >= 1")
        if self.d_model % self.num_heads != 0:
            raise ConfigError(
                f"d_model {self.d_model} not divisible by num_heads {self.num_heads}")
        if len(self.stride_schedule) != self.num_blocks:
            raise ConfigError(
                f"stride_schedule length {len(self.stride_schedule)} != "
                f"num_blocks {self.num_blocks}")
        if any(s not in (1, 2) for s in self.stride_schedule):
            raise ConfigError("stride_schedule entries must be 1 or 2")
        if list(self.stride_schedule) != sorted(self.stride_schedule):
            raise ConfigError(
                "stride-1 blocks must precede stride-2 blocks so pyramid "
                "strides increase")
        if not math.isfinite(self.layerscale_init):
            raise ConfigError(
                f"layerscale_init must be finite, got {self.layerscale_init}")


@dataclass
class PyramidLevel:
    features: Tensor          # (T_level, d_model), the videos' rows in turn
    stride_units: int         # input timesteps per position
    segments: tuple[int, ...]  # rows per video, in order


@dataclass
class Pyramid:
    levels: list[PyramidLevel] = field(default_factory=list)

    @property
    def lengths(self) -> list[int]:
        """Rows per level, summed over the videos."""
        return [lvl.features.shape[0] for lvl in self.levels]

    @property
    def video_lengths(self) -> list[list[int]]:
        """Rows per level of each video: one list per video."""
        return [list(rows) for rows in zip(*(lvl.segments for lvl in self.levels))]

    @property
    def strides(self) -> list[int]:
        return [lvl.stride_units for lvl in self.levels]


# ---------------------------------------------------------------------------
# initialization

def conv_spec(k: int, c_in: int, c_out: int) -> pr.ParamSpec:
    return pr.ParamSpec((k, c_in, c_out), std=np.sqrt(2.0 / (k * c_in)))


def _linear_spec(d_in: int, d_out: int) -> pr.ParamSpec:
    return pr.ParamSpec((d_in, d_out), std=0.02)


def backbone_param_shapes(cfg: BackboneConfig) -> dict[str, pr.ParamSpec]:
    """Every backbone parameter, in the order its values are drawn."""
    cfg.validate()
    d = cfg.d_model
    zeros, ones = pr.ParamSpec((d,)), pr.ParamSpec((d,), fill=1.0)
    scale = pr.ParamSpec((d,), fill=cfg.layerscale_init)
    p: dict[str, pr.ParamSpec] = {}
    p["embed.conv1.w"] = conv_spec(3, cfg.input_dim, d)
    p["embed.conv1.b"] = zeros
    p["embed.conv2.w"] = conv_spec(3, d, d)
    p["embed.conv2.b"] = zeros
    for i, stride in enumerate(cfg.stride_schedule):
        pref = f"block{i}"
        p[f"{pref}.ln1.gamma"] = ones
        p[f"{pref}.ln1.beta"] = zeros
        for proj in ("wq", "wk", "wv", "wo"):
            p[f"{pref}.attn.{proj}"] = _linear_spec(d, d)
        for bias in ("bq", "bk", "bv", "bo"):
            p[f"{pref}.attn.{bias}"] = zeros
        p[f"{pref}.scale_attn"] = scale
        p[f"{pref}.ln2.gamma"] = ones
        p[f"{pref}.ln2.beta"] = zeros
        hidden = cfg.mlp_ratio * d
        p[f"{pref}.mlp.w1"] = _linear_spec(d, hidden)
        p[f"{pref}.mlp.b1"] = pr.ParamSpec((hidden,))
        p[f"{pref}.mlp.w2"] = _linear_spec(hidden, d)
        p[f"{pref}.mlp.b2"] = zeros
        p[f"{pref}.scale_mlp"] = scale
        if stride == 2:
            p[f"{pref}.down.w"] = conv_spec(3, d, d)
            p[f"{pref}.down.b"] = zeros
    return p


def init_backbone_params(cfg: BackboneConfig, rng: np.random.Generator) -> dict[str, np.ndarray]:
    return pr.init_params(backbone_param_shapes(cfg), rng)


# ---------------------------------------------------------------------------
# forward pieces

def embed(x: Tensor, p: Mapping[str, Tensor], cfg: BackboneConfig,
          segments: Optional[Sequence[int]] = None) -> Tensor:
    """Two stride-1 convolutions with ReLU, projecting input dim -> d_model."""
    if x.shape[1] != cfg.input_dim:
        raise ConfigError(
            f"embed expects feature dim {cfg.input_dim}, got {x.shape[1]}")
    h = ad.relu(ad.conv1d(x, p["embed.conv1.w"], bias=p["embed.conv1.b"],
                          segments=segments))
    return ad.relu(ad.conv1d(h, p["embed.conv2.w"], bias=p["embed.conv2.b"],
                             segments=segments))


def windowed_msa(x: Tensor, p: Mapping[str, Tensor], prefix: str,
                 window: int, num_heads: int,
                 segments: Optional[Sequence[int]] = None) -> Tensor:
    """Multi-head scaled dot-product attention restricted to a local window.

    Projections to queries, keys and values, one banded
    :func:`~soundloc.autodiff.local_attention`, then the output projection.
    """
    q = ad.matmul(x, p[f"{prefix}.wq"], bias=p[f"{prefix}.bq"])
    k = ad.matmul(x, p[f"{prefix}.wk"], bias=p[f"{prefix}.bk"])
    v = ad.matmul(x, p[f"{prefix}.wv"], bias=p[f"{prefix}.bv"])
    attn = ad.local_attention(q, k, v, window, num_heads, segments)
    return ad.matmul(attn, p[f"{prefix}.wo"], bias=p[f"{prefix}.bo"])


def mlp(x: Tensor, p: Mapping[str, Tensor], prefix: str) -> Tensor:
    """``gelu(x @ w1 + b1) @ w2 + b2``, over row blocks.

    The chain is row-local, so on a tape that does not record it runs over
    :func:`~soundloc.autodiff.in_row_blocks`: the (T, mlp_ratio * d_model)
    hidden layer exists one block of rows at a time, and only the
    (T, d_model) output is whole. The blocks give the whole GEMMs' bits,
    so the output is that of one block. A recording tape runs one block,
    so training's records are those of ``matmul``, ``gelu`` and ``matmul``.
    """
    w1, b1 = p[f"{prefix}.w1"], p[f"{prefix}.b1"]
    w2, b2 = p[f"{prefix}.w2"], p[f"{prefix}.b2"]
    hidden, d_out = w2.values.shape

    def chain(rows: Tensor) -> Tensor:
        return ad.matmul(ad.gelu(ad.matmul(rows, w1, bias=b1)), w2, bias=b2)

    return ad.in_row_blocks(chain, x, (hidden, d_out))


def transformer_block(x: Tensor, p: Mapping[str, Tensor], block_index: int,
                      cfg: BackboneConfig,
                      segments: Optional[Sequence[int]] = None) -> Tensor:
    """One block of the scaled-branch recurrence, then optional downsampling.

    attn branch:  z_bar = scale_attn * MSA(LN(x)) + x
    mlp branch:   z_hat = scale_mlp * MLP(LN(z_bar)) + z_bar
    downsample:   stride-2 convolution when scheduled, identity otherwise.

    This is ActionFormer's eq. 3 (arXiv 2202.07925). Without the ``+ x``,
    the only path from a block's output back to its input runs through
    scale_attn (1e-4 at init), and the full-scale depth does not learn.
    With 9 blocks at d_model 32, the first step's gradient norm was 2e-9 on
    the embedding against 1.5e4 on the heads (0.86 and 1.5 with the
    residual), and best val mAP on 24 videos at T=256 after 6 epochs was
    0.121 (0.886 with it).

    ``segments`` are the rows of each packed video; the attention and the
    downsampling stay inside them, and a downsampled video of n rows keeps
    ceil(n / 2).
    """
    pref = f"block{block_index}"
    stride = cfg.stride_schedule[block_index]

    ln1 = ad.layer_norm(x, p[f"{pref}.ln1.gamma"], p[f"{pref}.ln1.beta"])
    attn = windowed_msa(ln1, p, f"{pref}.attn", cfg.window, cfg.num_heads,
                        segments)
    z_bar = ad.add(ad.mul(attn, p[f"{pref}.scale_attn"]), x)

    ln2 = ad.layer_norm(z_bar, p[f"{pref}.ln2.gamma"], p[f"{pref}.ln2.beta"])
    h = mlp(ln2, p, f"{pref}.mlp")
    z_hat = ad.add(ad.mul(h, p[f"{pref}.scale_mlp"]), z_bar)
    if stride == 2:
        return ad.conv1d(z_hat, p[f"{pref}.down.w"], stride=2,
                         bias=p[f"{pref}.down.b"], segments=segments)
    return z_hat


def build_pyramid(x: Tensor, p: Mapping[str, Tensor], cfg: BackboneConfig,
                  segments: Optional[Sequence[int]] = None) -> Pyramid:
    """Run embedding and all blocks, collecting the feature pyramid.

    A level is emitted after the last stride-1 block and after every
    stride-2 block. ``segments`` packs several videos into ``x``: their
    lengths, in order. Every window stays inside its video, so each video's
    rows come out as they would alone, and every level records its rows per
    video.
    """
    cfg.validate()
    t_in = x.shape[0]
    if t_in == 0 or (segments is not None and 0 in segments):
        raise EmptyInputError("input sequence too short: zero timesteps")
    seg = ad.segment_lengths(segments, t_in, "build_pyramid")

    stride1_idx = [i for i, s in enumerate(cfg.stride_schedule) if s == 1]
    last_stride1 = stride1_idx[-1] if stride1_idx else -1

    h = embed(x, p, cfg, seg)
    pyramid = Pyramid()
    stride_units = 1
    level_seg = seg
    for i, s in enumerate(cfg.stride_schedule):
        h = transformer_block(h, p, i, cfg, level_seg)
        stride_units *= s
        if s == 2:
            level_seg = tuple(-(-n // 2) for n in level_seg)
        if s == 2 or i == last_stride1:
            pyramid.levels.append(PyramidLevel(h, stride_units, level_seg))

    for t_video, rows in zip(seg, pyramid.video_lengths):
        if min(rows) <= 1:
            logger.warning("degenerate pyramid: some level collapsed to "
                           "length <= 1 (input T=%d)", t_video)
    return pyramid
