"""Full localization model: backbone + heads, checkpoints, prediction.

Checkpoint format (binary, little-endian, magic ``TSCP``, version 1): a map
of parameter name -> shape -> float32 payload. Entries are sorted by name,
each stored as u16 name length + UTF-8 name, u8 rank, u32 dims, then the
row-major payload. Names come from the initializers and are stable across
runs, so a checkpoint can be validated shape-by-shape against any config.

The reader takes the entries in file order and reads each payload once,
straight from the file into its own array: no copy of the whole file is
held, and a payload that does not fit in the rest of the file is rejected
before its array is allocated. Any problem is a CheckpointError (exit 4).
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import params as pr
from .autodiff import Tape
from .backbone import BackboneConfig, backbone_param_shapes, build_pyramid
from .data import FeatureSequence, atomic_write
from .decode import (
    DecodeConfig,
    Interval,
    recover_intervals,
    select_top_k,
    soft_nms,
)
from .errors import CheckpointError, ConfigError, ShapeError, check_numbers
from .heads import (
    DEFAULT_RANGE_BASE,
    PRIOR_PROB,
    HeadOutput,
    PointSet,
    generate_points,
    head_param_shapes,
    run_heads,
)

CHECKPOINT_MAGIC = b"TSCP"
CHECKPOINT_VERSION = 1


@dataclass
class ModelConfig:
    backbone: BackboneConfig = field(default_factory=BackboneConfig)
    num_classes: int = 17
    range_base: float = DEFAULT_RANGE_BASE
    prior_prob: float = PRIOR_PROB

    def validate(self) -> None:
        self.backbone.validate()
        check_numbers(self, reals=("range_base", "prior_prob"),
                      counts=("num_classes",))
        if self.num_classes < 1:
            raise ConfigError("num_classes must be positive")
        # written as `not (ok)` so that NaN fails every check
        if not 0 < self.range_base < math.inf:
            raise ConfigError(
                f"range_base must be finite and > 0, got {self.range_base}")
        if not 0 < self.prior_prob < 1:
            raise ConfigError(f"prior_prob must be in (0, 1), got {self.prior_prob}")


def param_shapes(cfg: ModelConfig) -> dict[str, pr.ParamSpec]:
    """Every parameter's shape and initial values, in the order of the draws."""
    return {**backbone_param_shapes(cfg.backbone),
            **head_param_shapes(cfg.backbone.d_model, cfg.num_classes,
                                cfg.prior_prob)}


def init_model_arrays(cfg: ModelConfig, seed: int) -> dict[str, np.ndarray]:
    """Fresh parameter store for the given architecture."""
    return pr.init_params(param_shapes(cfg), np.random.default_rng(seed))


def forward_video(bound, cfg: ModelConfig, fused: Sequence[np.ndarray],
                  tape: Tape) -> tuple[list[PointSet], HeadOutput]:
    """Backbone + heads over a batch of fused (T_v, D) matrices, in one pass.

    The videos are packed end to end into one sequence, each a segment that
    no window crosses. Returns every video's points and one HeadOutput
    whose rows are the videos' points end to end, in order.
    """
    if not len(fused) or any(np.ndim(f) != 2 for f in fused):
        raise ShapeError("forward_video takes a non-empty sequence of (T, D) "
                         "feature matrices")
    pyramid = build_pyramid(tape.constant(np.concatenate(fused)), bound,
                            cfg.backbone, [f.shape[0] for f in fused])
    points = generate_points(pyramid, cfg.range_base)
    return (points.split([sum(rows) for rows in pyramid.video_lengths]),
            run_heads(pyramid, bound))


def predict_intervals(arrays: dict[str, np.ndarray], cfg: ModelConfig,
                      fused_seq: FeatureSequence,
                      decode_cfg: DecodeConfig | None = None) -> list[Interval]:
    """Pure inference for one video: forward, recover, suppress. The decode
    settings are checked before the forward pass."""
    dc = decode_cfg or DecodeConfig()
    dc.validate()
    tape = Tape(dtype=np.float32, record=False)   # no backward pass
    bound = pr.bind(tape, arrays)
    (points,), head_out = forward_video(bound, cfg, [fused_seq.data], tape)
    cands = recover_intervals(head_out, points, fused_seq.stride_sec,
                              fused_seq.duration_sec, dc)
    return select_top_k(soft_nms(cands, dc), fused_seq.video_id)


# ---------------------------------------------------------------------------
# checkpoints

def save_checkpoint(arrays: dict[str, np.ndarray], path) -> None:
    with atomic_write(path) as fh:
        fh.write(struct.pack("<4sII", CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                             len(arrays)))
        for name in sorted(arrays):
            arr = np.ascontiguousarray(arrays[name], dtype="<f4")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(memoryview(arr))


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """The parameter map a checkpoint file holds, one fresh array per entry;
    a CheckpointError names the first problem in file order."""
    try:
        with open(path, "rb") as fh:
            return _read_checkpoint(fh, os.fstat(fh.fileno()).st_size, path)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc


def _read_checkpoint(fh, size: int, path) -> dict[str, np.ndarray]:
    fixed = struct.calcsize("<4sII")
    head = fh.read(fixed)
    if len(head) < fixed:
        raise CheckpointError(f"{path}: truncated checkpoint header")
    magic, version, count = struct.unpack("<4sII", head)
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad checkpoint magic {magic!r}")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")

    arrays: dict[str, np.ndarray] = {}
    for _ in range(count):
        try:
            (name_len,) = struct.unpack("<H", fh.read(2))
            name = fh.read(name_len).decode("utf-8")
            if name in arrays:
                raise CheckpointError(f"{path}: parameter {name!r} appears twice")
            (ndim,) = struct.unpack("<B", fh.read(1))
            dims = struct.unpack(f"<{ndim}I", fh.read(4 * ndim))
        except (struct.error, UnicodeDecodeError) as exc:
            raise CheckpointError(f"{path}: corrupt checkpoint entry: {exc}") from exc
        need = 4 * math.prod(dims)
        # the file may shrink after fstat: what readinto gets is what counts
        have = size - fh.tell()
        if have >= need:
            arr = np.empty(dims, "<f4")
            have = fh.readinto(arr)
        if have < need:
            raise CheckpointError(f"{path}: parameter {name!r} payload truncated "
                                  f"({have} of {need} bytes)")
        if not np.isfinite(arr).all():
            raise CheckpointError(f"{path}: parameter {name!r} has non-finite values")
        arrays[name] = arr
    if fh.tell() != size:
        raise CheckpointError(f"{path}: {size - fh.tell()} trailing bytes")
    return arrays


def check_checkpoint_shapes(arrays: dict[str, np.ndarray],
                            cfg: ModelConfig) -> None:
    """Validate a loaded parameter map against a model configuration."""
    expected = param_shapes(cfg)
    for name in sorted(set(expected) | set(arrays)):
        if name not in arrays:
            raise CheckpointError(f"checkpoint is missing parameter {name!r}")
        if name not in expected:
            raise CheckpointError(f"checkpoint has unexpected parameter {name!r}")
        if arrays[name].shape != expected[name].shape:
            raise CheckpointError(
                f"checkpoint/config shape mismatch at {name!r}: "
                f"{arrays[name].shape} vs expected {expected[name].shape}")
