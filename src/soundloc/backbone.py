"""Multi-scale transformer over fused feature sequences.

A convolutional embedding projects the fused features to model width, then a
stack of transformer blocks with windowed local self-attention and learnable
per-channel branch scaling runs, downsampling by 2 on the configured blocks.
The attention is computed on a band of key offsets
(:func:`soundloc.autodiff.local_attention`), so a forward pass costs time and
memory linear in the sequence length.
The outputs form a feature pyramid: one level after the last full-resolution
block, one after every downsampling block.

Parameters live in plain ``{name: ndarray}`` dicts so checkpoints are a
stable name -> shape -> payload map; forward passes bind them as leaves on an
autodiff tape (see :mod:`soundloc.params`).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .data import FeatureSequence
from .errors import ConfigError, EmptyInputError

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
    # the block recurrence as written has no residual on the attention
    # branch; this flag adds the conventional one
    msa_residual: bool = False

    def validate(self) -> None:
        if self.num_blocks < 1:
            raise ConfigError("num_blocks must be >= 1")
        if self.window < 1 or self.window % 2 == 0:
            raise ConfigError(f"window must be odd and positive, got {self.window}")
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
        if self.input_dim < 1 or self.mlp_ratio < 1:
            raise ConfigError("input_dim and mlp_ratio must be positive")


@dataclass
class PyramidLevel:
    features: Tensor          # (T_level, d_model)
    stride_units: int         # input timesteps per position
    valid_mask: np.ndarray    # bool (T_level,), False marks padded tail


@dataclass
class Pyramid:
    levels: list[PyramidLevel] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.levels)

    @property
    def lengths(self) -> list[int]:
        return [lvl.features.shape[0] for lvl in self.levels]

    @property
    def strides(self) -> list[int]:
        return [lvl.stride_units for lvl in self.levels]


# ---------------------------------------------------------------------------
# initialization

def _conv_init(rng, k, c_in, c_out):
    std = np.sqrt(2.0 / (k * c_in))
    return rng.normal(0.0, std, size=(k, c_in, c_out)).astype(np.float32)


def _linear_init(rng, d_in, d_out, std=0.02):
    return rng.normal(0.0, std, size=(d_in, d_out)).astype(np.float32)


def init_backbone_params(cfg: BackboneConfig, rng: np.random.Generator) -> dict[str, np.ndarray]:
    cfg.validate()
    d = cfg.d_model
    p: dict[str, np.ndarray] = {}
    p["embed.conv1.w"] = _conv_init(rng, 3, cfg.input_dim, d)
    p["embed.conv1.b"] = np.zeros(d, dtype=np.float32)
    p["embed.conv2.w"] = _conv_init(rng, 3, d, d)
    p["embed.conv2.b"] = np.zeros(d, dtype=np.float32)
    for i, stride in enumerate(cfg.stride_schedule):
        pref = f"block{i}"
        p[f"{pref}.ln1.gamma"] = np.ones(d, dtype=np.float32)
        p[f"{pref}.ln1.beta"] = np.zeros(d, dtype=np.float32)
        for proj in ("wq", "wk", "wv", "wo"):
            p[f"{pref}.attn.{proj}"] = _linear_init(rng, d, d)
        for bias in ("bq", "bk", "bv", "bo"):
            p[f"{pref}.attn.{bias}"] = np.zeros(d, dtype=np.float32)
        p[f"{pref}.scale_attn"] = np.full(d, cfg.layerscale_init, dtype=np.float32)
        p[f"{pref}.ln2.gamma"] = np.ones(d, dtype=np.float32)
        p[f"{pref}.ln2.beta"] = np.zeros(d, dtype=np.float32)
        hidden = cfg.mlp_ratio * d
        p[f"{pref}.mlp.w1"] = _linear_init(rng, d, hidden)
        p[f"{pref}.mlp.b1"] = np.zeros(hidden, dtype=np.float32)
        p[f"{pref}.mlp.w2"] = _linear_init(rng, hidden, d)
        p[f"{pref}.mlp.b2"] = np.zeros(d, dtype=np.float32)
        p[f"{pref}.scale_mlp"] = np.full(d, cfg.layerscale_init, dtype=np.float32)
        if stride == 2:
            p[f"{pref}.down.w"] = _conv_init(rng, 3, d, d)
            p[f"{pref}.down.b"] = np.zeros(d, dtype=np.float32)
    return p


# ---------------------------------------------------------------------------
# forward pieces

def _mask_column(tape: Tape, valid: np.ndarray) -> Tensor:
    return tape.constant(valid.astype(np.float64)[:, None])


def embed(x: Tensor, p: Mapping[str, Tensor], cfg: BackboneConfig,
          valid: np.ndarray | None = None) -> Tensor:
    """Two stride-1 convolutions with ReLU, projecting input dim -> d_model."""
    if x.shape[1] != cfg.input_dim:
        raise ConfigError(
            f"embed expects feature dim {cfg.input_dim}, got {x.shape[1]}")
    if valid is None:
        valid = np.ones(x.shape[0], dtype=bool)
    mask = _mask_column(x.tape, valid)
    h = ad.mul(x, mask)
    h = ad.relu(ad.mul(ad.add(ad.conv1d(h, p["embed.conv1.w"]), p["embed.conv1.b"]), mask))
    h = ad.relu(ad.mul(ad.add(ad.conv1d(h, p["embed.conv2.w"]), p["embed.conv2.b"]), mask))
    return h


def windowed_msa(x: Tensor, p: Mapping[str, Tensor], prefix: str,
                 window: int, num_heads: int,
                 valid: np.ndarray | None = None) -> Tensor:
    """Multi-head scaled dot-product attention restricted to a local window.

    Projections to queries, keys and values, one banded
    :func:`~soundloc.autodiff.local_attention`, then the output projection.
    """
    if window % 2 == 0:
        raise ConfigError(f"attention window must be odd, got {window}")
    t, d = x.shape
    if d % num_heads != 0:
        raise ConfigError(f"width {d} not divisible by {num_heads} heads")
    if valid is None:
        valid = np.ones(t, dtype=bool)

    q = ad.add(ad.matmul(x, p[f"{prefix}.wq"]), p[f"{prefix}.bq"])
    k = ad.add(ad.matmul(x, p[f"{prefix}.wk"]), p[f"{prefix}.bk"])
    v = ad.add(ad.matmul(x, p[f"{prefix}.wv"]), p[f"{prefix}.bv"])
    attn = ad.local_attention(q, k, v, window, valid, num_heads)
    return ad.add(ad.matmul(attn, p[f"{prefix}.wo"]), p[f"{prefix}.bo"])


def transformer_block(x: Tensor, p: Mapping[str, Tensor], block_index: int,
                      cfg: BackboneConfig,
                      valid: np.ndarray | None = None) -> tuple[Tensor, np.ndarray]:
    """One block of the scaled-branch recurrence, then optional downsampling.

    attn branch:  z_bar = scale_attn * MSA(LN(x))            [+ x if configured]
    mlp branch:   z_hat = scale_mlp * MLP(LN(z_bar)) + z_bar
    downsample:   stride-2 convolution when scheduled, identity otherwise.
    Returns the block output and the propagated validity mask.
    """
    if valid is None:
        valid = np.ones(x.shape[0], dtype=bool)
    pref = f"block{block_index}"
    stride = cfg.stride_schedule[block_index]

    ln1 = ad.layer_norm(x, p[f"{pref}.ln1.gamma"], p[f"{pref}.ln1.beta"])
    attn = windowed_msa(ln1, p, f"{pref}.attn", cfg.window, cfg.num_heads, valid)
    z_bar = ad.mul(attn, p[f"{pref}.scale_attn"])
    if cfg.msa_residual:
        z_bar = ad.add(z_bar, x)

    ln2 = ad.layer_norm(z_bar, p[f"{pref}.ln2.gamma"], p[f"{pref}.ln2.beta"])
    h = ad.gelu(ad.add(ad.matmul(ln2, p[f"{pref}.mlp.w1"]), p[f"{pref}.mlp.b1"]))
    h = ad.add(ad.matmul(h, p[f"{pref}.mlp.w2"]), p[f"{pref}.mlp.b2"])
    z_hat = ad.add(ad.mul(h, p[f"{pref}.scale_mlp"]), z_bar)

    z_hat = ad.mul(z_hat, _mask_column(x.tape, valid))
    if stride == 2:
        out = ad.add(ad.conv1d(z_hat, p[f"{pref}.down.w"], stride=2),
                     p[f"{pref}.down.b"])
        new_valid = valid[::2].copy()
        out = ad.mul(out, _mask_column(x.tape, new_valid))
        return out, new_valid
    return z_hat, valid


def build_pyramid(z0, p: Mapping[str, Tensor], cfg: BackboneConfig,
                  tape: Tape | None = None,
                  valid: np.ndarray | None = None) -> Pyramid:
    """Run embedding and all blocks, collecting the feature pyramid.

    ``z0`` may be a fused FeatureSequence (wrapped as a constant on ``tape``)
    or an already-bound Tensor. A level is emitted after the last stride-1
    block and after every stride-2 block.
    """
    cfg.validate()
    if isinstance(z0, FeatureSequence):
        if tape is None:
            raise ConfigError("build_pyramid needs a tape to bind a FeatureSequence")
        x = tape.constant(z0.data)
    else:
        x = z0
    t_in = x.shape[0]
    if t_in == 0:
        raise EmptyInputError("input sequence too short: zero timesteps")
    if valid is None:
        valid = np.ones(t_in, dtype=bool)

    stride1_idx = [i for i, s in enumerate(cfg.stride_schedule) if s == 1]
    last_stride1 = stride1_idx[-1] if stride1_idx else -1

    h = embed(x, p, cfg, valid)
    pyramid = Pyramid()
    stride_units = 1
    for i, s in enumerate(cfg.stride_schedule):
        h, valid = transformer_block(h, p, i, cfg, valid)
        stride_units *= s
        if s == 2 or i == last_stride1:
            pyramid.levels.append(PyramidLevel(h, stride_units, valid.copy()))

    if any(length <= 1 for length in pyramid.lengths):
        logger.warning("degenerate pyramid: some level collapsed to length <= 1 "
                       "(input T=%d)", t_in)
    return pyramid
