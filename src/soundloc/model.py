"""Full localization model: backbone + heads, checkpoints, prediction.

Checkpoint format (binary, little-endian, magic ``TSCP``, version 1): a map
of parameter name -> shape -> float32 payload. Entries are sorted by name,
each stored as u16 name length + UTF-8 name, u8 rank, u32 dims, then the
row-major payload. Names come from the initializers and are stable across
runs, so a checkpoint can be validated shape-by-shape against any config.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import params as pr
from .autodiff import Tape
from .backbone import BackboneConfig, Pyramid, build_pyramid, init_backbone_params
from .data import FeatureSequence
from .decode import (
    NMS_IOU_THRESH,
    NMS_MAX_OUT,
    NMS_MIN_SCORE,
    NMS_SIGMA,
    PRE_NMS_TOPK,
    SCORE_THRESH,
    Interval,
    recover_intervals,
    select_top_k,
    soft_nms,
)
from .errors import CheckpointError, ConfigError
from .heads import (
    DEFAULT_RANGE_BASE,
    PRIOR_PROB,
    HeadOutput,
    PointSet,
    generate_points,
    init_head_params,
    run_heads,
)

CHECKPOINT_MAGIC = b"TSCP"
CHECKPOINT_VERSION = 1


@dataclass
class DecodeConfig:
    score_thresh: float = SCORE_THRESH
    pre_nms_topk: int = PRE_NMS_TOPK
    method: str = "gaussian"
    sigma: float = NMS_SIGMA
    iou_thresh: float = NMS_IOU_THRESH
    min_score: float = NMS_MIN_SCORE
    max_out: int = NMS_MAX_OUT

    def validate(self) -> None:
        # written as `not (ok)` so that NaN fails every check
        if self.method not in ("gaussian", "hard"):
            raise ConfigError(
                f"method must be 'gaussian' or 'hard', got {self.method!r}")
        if not self.sigma > 0:
            raise ConfigError(f"sigma must be > 0, got {self.sigma}")
        if not 0 <= self.iou_thresh <= 1:
            raise ConfigError(f"iou_thresh must be in [0, 1], got {self.iou_thresh}")
        if not 0 <= self.score_thresh <= 1:
            raise ConfigError(
                f"score_thresh must be in [0, 1], got {self.score_thresh}")
        if not self.min_score >= 0:
            raise ConfigError(f"min_score must be >= 0, got {self.min_score}")
        if min(self.pre_nms_topk, self.max_out) < 1:
            raise ConfigError(
                f"pre_nms_topk and max_out must be >= 1, got "
                f"{self.pre_nms_topk} and {self.max_out}")


@dataclass
class ModelConfig:
    backbone: BackboneConfig = field(default_factory=BackboneConfig)
    num_classes: int = 17
    range_base: float = DEFAULT_RANGE_BASE
    prior_prob: float = PRIOR_PROB

    def validate(self) -> None:
        self.backbone.validate()
        if self.num_classes < 1:
            raise ConfigError("num_classes must be positive")


def init_model_arrays(cfg: ModelConfig, seed: int) -> dict[str, np.ndarray]:
    """Fresh parameter store for the given architecture."""
    rng = np.random.default_rng(seed)
    arrays = init_backbone_params(cfg.backbone, rng)
    arrays.update(init_head_params(cfg.backbone.d_model, cfg.num_classes, rng,
                                   cfg.prior_prob))
    return arrays


def forward_video(bound, cfg: ModelConfig, fused: np.ndarray, tape: Tape,
                  valid: np.ndarray | None = None
                  ) -> tuple[Pyramid, PointSet, HeadOutput]:
    """Backbone + heads over one fused (T, D) feature matrix."""
    x = tape.constant(fused)
    pyramid = build_pyramid(x, bound, cfg.backbone, valid=valid)
    points = generate_points(pyramid, cfg.range_base)
    head_out = run_heads(pyramid, bound)
    return pyramid, points, head_out


def predict_intervals(arrays: dict[str, np.ndarray], cfg: ModelConfig,
                      fused_seq: FeatureSequence,
                      decode_cfg: DecodeConfig | None = None) -> list[Interval]:
    """Pure inference for one video: forward, recover, suppress, cap."""
    dc = decode_cfg or DecodeConfig()
    tape = Tape(dtype=np.float32, record=False)   # no backward pass
    bound = pr.bind(tape, arrays)
    _, points, head_out = forward_video(bound, cfg, fused_seq.data, tape)
    cands = recover_intervals(
        head_out, points, fused_seq.stride_sec, fused_seq.video_id,
        duration_sec=fused_seq.duration_sec,
        score_thresh=dc.score_thresh, pre_nms_topk=dc.pre_nms_topk)
    kept = soft_nms(cands, sigma=dc.sigma, method=dc.method,
                    iou_thresh=dc.iou_thresh, min_score=dc.min_score,
                    max_out=dc.max_out)
    return select_top_k(kept, dc.max_out)


# ---------------------------------------------------------------------------
# checkpoints

def save_checkpoint(arrays: dict[str, np.ndarray], path) -> None:
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sII", CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                             len(arrays)))
        for name in sorted(arrays):
            arr = np.ascontiguousarray(arrays[name], dtype="<f4")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())


def load_checkpoint(path) -> dict[str, np.ndarray]:
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc

    view = memoryview(blob)
    off = struct.calcsize("<4sII")
    if len(blob) < off:
        raise CheckpointError(f"{path}: truncated checkpoint header")
    magic, version, count = struct.unpack_from("<4sII", view)
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad checkpoint magic {magic!r}")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")

    arrays: dict[str, np.ndarray] = {}
    for _ in range(count):
        try:
            (name_len,) = struct.unpack_from("<H", view, off)
            off += 2
            name = bytes(view[off:off + name_len]).decode("utf-8")
            off += name_len
            (ndim,) = struct.unpack_from("<B", view, off)
            off += 1
            dims = struct.unpack_from(f"<{ndim}I", view, off)
            off += 4 * ndim
            size = int(np.prod(dims, dtype=np.int64)) if ndim else 1
            arr = np.frombuffer(blob, dtype="<f4", count=size, offset=off)
            off += 4 * size
            arrays[name] = arr.reshape(dims).copy()
        except (struct.error, ValueError, UnicodeDecodeError) as exc:
            raise CheckpointError(f"{path}: corrupt checkpoint entry: {exc}") from exc
    if off != len(blob):
        raise CheckpointError(f"{path}: {len(blob) - off} trailing bytes")
    return arrays


def check_checkpoint_shapes(arrays: dict[str, np.ndarray],
                            cfg: ModelConfig) -> None:
    """Validate a loaded parameter map against a model configuration."""
    expected = init_model_arrays(cfg, seed=0)
    for name in sorted(set(expected) | set(arrays)):
        if name not in arrays:
            raise CheckpointError(f"checkpoint is missing parameter {name!r}")
        if name not in expected:
            raise CheckpointError(f"checkpoint has unexpected parameter {name!r}")
        if arrays[name].shape != expected[name].shape:
            raise CheckpointError(
                f"checkpoint/config shape mismatch at {name!r}: "
                f"{arrays[name].shape} vs expected {expected[name].shape}")
