"""Feature sequences, annotations, modality fusion and synthetic datasets.

On-disk formats:

* Feature file (binary, little-endian, magic ``TSLF``): header with version,
  modality, timestep count, feature dim, seconds-per-timestep and video id,
  followed by the row-major float32 payload. Writers and readers round-trip
  bit exactly.
* Annotation JSON: ``{"class_names": [...], "videos": [{"video_id",
  "duration_sec", "events": [{"label", "start_sec", "end_sec"}]}]}``.
* Prediction JSON: ``{"videos": [{"video_id", "detections": [{"label",
  "score", "start_sec", "end_sec"}]}]}``.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    AnnotationFormatError,
    ConfigError,
    EmptyInputError,
    FeatureFileError,
    ValidationError,
)

TSLF_MAGIC = b"TSLF"
TSLF_VERSION = 1

MODALITY_CODES = {"visual": 0, "audio": 1, "fused": 2}
MODALITY_NAMES = {v: k for k, v in MODALITY_CODES.items()}

DEFAULT_NUM_CLASSES = 17


@dataclass
class FeatureSequence:
    """Time-major (T, D) feature matrix for one modality of one video."""

    video_id: str
    modality: str
    stride_sec: float
    data: np.ndarray

    def __post_init__(self):
        self.data = np.ascontiguousarray(self.data, dtype=np.float32)
        if self.modality not in MODALITY_CODES:
            raise ValidationError(f"unknown modality {self.modality!r}")
        if self.data.ndim != 2 or self.data.shape[0] < 1 or self.data.shape[1] < 1:
            raise ValidationError(
                f"feature data must be a non-empty (T, D) matrix, got shape {self.data.shape}")
        if not (self.stride_sec > 0):
            raise ValidationError(f"stride_sec must be positive, got {self.stride_sec}")
        if not np.isfinite(self.data).all():
            raise ValidationError(f"feature data for {self.video_id!r} contains non-finite values")

    @property
    def num_timesteps(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    @property
    def duration_sec(self) -> float:
        return self.num_timesteps * self.stride_sec


@dataclass
class Event:
    label: int
    start_sec: float
    end_sec: float


@dataclass
class AnnotationSet:
    """Ground-truth events for one video."""

    video_id: str
    duration_sec: float
    events: list[Event]
    class_names: list[str]

    def validate(self) -> None:
        c = len(self.class_names)
        if c < 1:
            raise ValidationError("class_names must be non-empty")
        if not (0 < self.duration_sec < math.inf):
            raise ValidationError(
                f"video {self.video_id!r}: duration_sec must be positive and finite")
        for i, ev in enumerate(self.events):
            if not (0 <= ev.start_sec < ev.end_sec <= self.duration_sec):
                raise ValidationError(
                    f"video {self.video_id!r} event {i}: invalid times "
                    f"[{ev.start_sec}, {ev.end_sec}] for duration {self.duration_sec}")
            if not (0 <= ev.label < c):
                raise ValidationError(
                    f"video {self.video_id!r} event {i}: label {ev.label} "
                    f"outside [0, {c})")


@dataclass
class SyntheticSpec:
    """Knobs for the deterministic synthetic dataset generator."""

    num_videos: int = 8
    duration_sec: float = 64.0
    num_classes: int = 5
    dim_visual: int = 32
    dim_audio: int = 8
    stride_sec: float = 1.0
    events_per_video: tuple[int, int] = (1, 3)
    event_length_sec: tuple[float, float] = (6.0, 16.0)
    signal_to_noise: float = 5.0
    seed: int = 0

    def validate(self) -> None:
        if min(self.num_videos, self.num_classes, self.dim_visual, self.dim_audio) < 1:
            raise ConfigError("all synthetic counts must be positive")
        if not (self.duration_sec > 0 and self.stride_sec > 0):
            raise ConfigError("duration_sec and stride_sec must be positive")
        if not (self.signal_to_noise > 0):
            raise ConfigError(f"signal_to_noise must be > 0, got {self.signal_to_noise}")
        lo, hi = self.events_per_video
        if lo < 0 or hi < lo:
            raise ConfigError(f"bad events_per_video range {self.events_per_video}")
        llo, lhi = self.event_length_sec
        if not (0 < llo <= lhi):
            raise ConfigError(f"bad event_length_sec range {self.event_length_sec}")
        if lhi > self.duration_sec:
            raise ConfigError(
                f"event length {lhi} exceeds video duration {self.duration_sec}")


# ---------------------------------------------------------------------------
# modality fusion

def fuse_features(visual: FeatureSequence,
                  audio: FeatureSequence | None) -> FeatureSequence:
    """Concatenate per-timestep audio features onto visual ones.

    Audio is resampled to the visual timeline by nearest-neighbor index
    mapping when lengths differ; the fused layout is the visual block
    followed by the audio block, so slicing columns [0, D_v) recovers the
    visual matrix exactly. Passing ``audio=None`` yields a fused sequence
    equal to the visual one (single-modality mode).
    """
    if visual.modality != "visual":
        raise ValidationError(f"expected a visual sequence, got {visual.modality!r}")
    if visual.num_timesteps == 0:
        raise EmptyInputError("visual sequence is empty")
    if audio is None:
        return FeatureSequence(visual.video_id, "fused", visual.stride_sec,
                               visual.data.copy())
    if audio.modality != "audio":
        raise ValidationError(f"expected an audio sequence, got {audio.modality!r}")
    if audio.video_id != visual.video_id:
        raise ValidationError(
            f"modality video ids differ: {visual.video_id!r} vs {audio.video_id!r}")
    if audio.num_timesteps == 0:
        raise EmptyInputError("audio sequence is empty")

    t_v, t_a = visual.num_timesteps, audio.num_timesteps
    if t_a == t_v:
        audio_rows = audio.data
    else:
        idx = np.rint(np.arange(t_v) * (t_a / t_v)).astype(np.int64)
        audio_rows = audio.data[np.clip(idx, 0, t_a - 1)]
    fused = np.concatenate([visual.data, audio_rows], axis=1)
    return FeatureSequence(visual.video_id, "fused", visual.stride_sec, fused)


# ---------------------------------------------------------------------------
# TSLF binary feature files

_TSLF_HEADER = "<4sIB3sIIdH"


def save_features(seq: FeatureSequence, path) -> None:
    vid = seq.video_id.encode("utf-8")
    if len(vid) > 0xFFFF:
        raise ValidationError("video_id too long to store")
    t, d = seq.data.shape
    header = struct.pack(
        _TSLF_HEADER,
        TSLF_MAGIC, TSLF_VERSION, MODALITY_CODES[seq.modality], b"\x00\x00\x00",
        t, d, seq.stride_sec, len(vid))
    payload = np.ascontiguousarray(seq.data, dtype="<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(vid)
        fh.write(payload)


def load_features(path) -> FeatureSequence:
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise FeatureFileError(f"cannot read feature file {path}: {exc}") from exc

    fixed = struct.calcsize(_TSLF_HEADER)
    if len(blob) < fixed:
        raise FeatureFileError(f"{path}: truncated header ({len(blob)} bytes)")
    magic, version, modality_code, pad, t, d, stride_sec, vid_len = struct.unpack(
        _TSLF_HEADER, blob[:fixed])
    if magic != TSLF_MAGIC:
        raise FeatureFileError(f"{path}: bad magic {magic!r}")
    if version != TSLF_VERSION:
        raise FeatureFileError(f"{path}: unsupported version {version}")
    if modality_code not in MODALITY_NAMES:
        raise FeatureFileError(f"{path}: unknown modality code {modality_code}")
    if pad != b"\x00\x00\x00":
        raise FeatureFileError(f"{path}: reserved bytes are not zero")
    if t < 1 or d < 1:
        raise FeatureFileError(f"{path}: non-positive shape ({t}, {d})")
    if not (np.isfinite(stride_sec) and stride_sec > 0):
        raise FeatureFileError(f"{path}: invalid stride_sec {stride_sec}")

    offset = fixed
    if len(blob) < offset + vid_len:
        raise FeatureFileError(f"{path}: truncated video id")
    try:
        video_id = blob[offset:offset + vid_len].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FeatureFileError(f"{path}: video id is not valid UTF-8") from exc
    offset += vid_len

    expected = t * d * 4
    if len(blob) - offset < expected:
        raise FeatureFileError(
            f"{path}: payload truncated ({len(blob) - offset} of {expected} bytes)")
    if len(blob) - offset > expected:
        raise FeatureFileError(
            f"{path}: {len(blob) - offset - expected} trailing bytes after payload")
    data = np.frombuffer(blob, dtype="<f4", count=t * d, offset=offset)
    data = data.reshape(t, d)
    if not np.isfinite(data).all():
        raise FeatureFileError(f"{path}: payload contains non-finite values")
    return FeatureSequence(video_id, MODALITY_NAMES[modality_code],
                           float(stride_sec), data.copy())


# ---------------------------------------------------------------------------
# annotation / prediction JSON

def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise AnnotationFormatError(msg)


def load_annotations(path) -> list[AnnotationSet]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise AnnotationFormatError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise AnnotationFormatError(f"{path}: invalid JSON: {exc}") from exc

    _require(isinstance(doc, dict), f"{path}: top level must be an object")
    class_names = doc.get("class_names")
    _require(isinstance(class_names, list) and class_names
             and all(isinstance(n, str) for n in class_names),
             f"{path}: class_names must be a non-empty list of strings")
    videos = doc.get("videos")
    _require(isinstance(videos, list), f"{path}: videos must be a list")

    out = []
    for v in videos:
        _require(isinstance(v, dict), f"{path}: each video must be an object")
        vid = v.get("video_id")
        _require(isinstance(vid, str) and vid, f"{path}: missing video_id")
        duration = v.get("duration_sec")
        _require(isinstance(duration, (int, float)),
                 f"{path}: video {vid!r}: duration_sec missing")
        events = v.get("events", [])
        _require(isinstance(events, list), f"{path}: video {vid!r}: events must be a list")
        parsed = []
        for i, ev in enumerate(events):
            _require(isinstance(ev, dict), f"{path}: video {vid!r} event {i}: not an object")
            label = ev.get("label")
            start = ev.get("start_sec")
            end = ev.get("end_sec")
            _require(isinstance(label, int) and not isinstance(label, bool),
                     f"{path}: video {vid!r} event {i}: label must be an integer")
            _require(isinstance(start, (int, float)) and isinstance(end, (int, float)),
                     f"{path}: video {vid!r} event {i}: start/end must be numbers")
            parsed.append(Event(label, float(start), float(end)))
        ann = AnnotationSet(vid, float(duration), parsed, list(class_names))
        try:
            ann.validate()
        except ValidationError as exc:
            raise AnnotationFormatError(f"{path}: {exc}") from exc
        out.append(ann)
    return out


def save_annotations(annotations: list[AnnotationSet], path) -> None:
    if not annotations:
        raise EmptyInputError("nothing to save: empty annotation list")
    class_names = annotations[0].class_names
    doc = {
        "class_names": list(class_names),
        "videos": [
            {
                "video_id": a.video_id,
                "duration_sec": a.duration_sec,
                "events": [
                    {"label": e.label, "start_sec": e.start_sec, "end_sec": e.end_sec}
                    for e in a.events
                ],
            }
            for a in annotations
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_predictions(path) -> dict[str, list[dict]]:
    """Parse a prediction file into {video_id: [detection dicts]}."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise AnnotationFormatError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise AnnotationFormatError(f"{path}: invalid JSON: {exc}") from exc

    _require(isinstance(doc, dict) and isinstance(doc.get("videos"), list),
             f"{path}: top level must be an object with a videos list")
    out: dict[str, list[dict]] = {}
    for v in doc["videos"]:
        _require(isinstance(v, dict), f"{path}: each video must be an object")
        vid = v.get("video_id")
        _require(isinstance(vid, str) and vid, f"{path}: missing video_id")
        _require(vid not in out, f"{path}: duplicate video_id {vid!r}")
        dets = v.get("detections", [])
        _require(isinstance(dets, list), f"{path}: video {vid!r}: detections must be a list")
        parsed = []
        for i, det in enumerate(dets):
            _require(isinstance(det, dict), f"{path}: video {vid!r} det {i}: not an object")
            label = det.get("label")
            score = det.get("score")
            start = det.get("start_sec")
            end = det.get("end_sec")
            _require(isinstance(label, int) and not isinstance(label, bool) and label >= 0,
                     f"{path}: video {vid!r} det {i}: bad label")
            _require(isinstance(score, (int, float)) and 0.0 <= score <= 1.0,
                     f"{path}: video {vid!r} det {i}: score must be in [0, 1]")
            _require(isinstance(start, (int, float)) and isinstance(end, (int, float))
                     and -math.inf < start < end < math.inf,
                     f"{path}: video {vid!r} det {i}: start must precede end, "
                     f"both finite")
            parsed.append({"label": label, "score": float(score),
                           "start_sec": float(start), "end_sec": float(end)})
        out[vid] = parsed
    return out


def write_predictions(preds_by_video: dict[str, list[dict]], path) -> None:
    doc = {
        "videos": [
            {"video_id": vid, "detections": preds_by_video[vid]}
            for vid in sorted(preds_by_video)
        ]
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# synthetic data

def class_signatures(num_classes: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-norm per-class signature vectors, orthogonal when dim >= classes."""
    mat = rng.standard_normal((num_classes, dim))
    if dim >= num_classes:
        q, _ = np.linalg.qr(mat.T)
        sig = q.T[:num_classes]
    else:
        sig = mat
    sig = sig / np.linalg.norm(sig, axis=1, keepdims=True)
    return sig.astype(np.float32)


def _sample_events(spec: SyntheticSpec, rng: np.random.Generator) -> list[Event]:
    lo, hi = spec.events_per_video
    count = int(rng.integers(lo, hi + 1))
    events: list[Event] = []
    for _ in range(count):
        label = int(rng.integers(0, spec.num_classes))
        # rejection sampling keeps same-class events disjoint
        for _attempt in range(64):
            length = float(rng.uniform(*spec.event_length_sec))
            start = float(rng.uniform(0.0, spec.duration_sec - length))
            end = start + length
            clash = any(e.label == label and e.start_sec < end and start < e.end_sec
                        for e in events)
            if not clash:
                events.append(Event(label, start, end))
                break
    events.sort(key=lambda e: (e.start_sec, e.end_sec, e.label))
    return events


def generate_synthetic(spec: SyntheticSpec):
    """Build a deterministic synthetic dataset from ``spec``.

    Returns ``(pairs, annotations)`` where pairs is a list of (visual, audio)
    FeatureSequence tuples. Inside each event window the class signature is
    added to both modality streams, scaled by the signal-to-noise ratio, on
    top of unit Gaussian background noise. Identical specs produce
    byte-identical outputs.
    """
    spec.validate()
    root = np.random.SeedSequence(spec.seed)
    sig_seq, video_root = root.spawn(2)
    sig_rng = np.random.Generator(np.random.PCG64(sig_seq))
    sig_v = class_signatures(spec.num_classes, spec.dim_visual, sig_rng)
    sig_a = class_signatures(spec.num_classes, spec.dim_audio, sig_rng)

    t_steps = int(round(spec.duration_sec / spec.stride_sec))
    if t_steps < 1:
        raise ConfigError("duration shorter than one timestep")
    centers = (np.arange(t_steps) + 0.5) * spec.stride_sec
    class_names = [f"class{c:02d}" for c in range(spec.num_classes)]

    pairs = []
    annotations = []
    for vi, child in enumerate(video_root.spawn(spec.num_videos)):
        rng = np.random.Generator(np.random.PCG64(child))
        video_id = f"vid{vi:05d}"
        events = _sample_events(spec, rng)

        visual = rng.standard_normal((t_steps, spec.dim_visual)).astype(np.float32)
        audio = rng.standard_normal((t_steps, spec.dim_audio)).astype(np.float32)
        for ev in events:
            inside = (centers >= ev.start_sec) & (centers <= ev.end_sec)
            visual[inside] += spec.signal_to_noise * sig_v[ev.label]
            audio[inside] += spec.signal_to_noise * sig_a[ev.label]

        pairs.append((
            FeatureSequence(video_id, "visual", spec.stride_sec, visual),
            FeatureSequence(video_id, "audio", spec.stride_sec, audio),
        ))
        annotations.append(AnnotationSet(video_id, t_steps * spec.stride_sec,
                                         events, class_names))
    return pairs, annotations


def split_by_hash(video_ids: list[str],
                  fractions: tuple[float, float, float] = (0.6, 0.2, 0.2),
                  counts: tuple[int, int, int] | None = None) -> dict[str, list[str]]:
    """Partition video ids into train/val/test by a stable content hash.

    With ``counts`` given, exactly those sizes are used (they must cover all
    ids); otherwise ``fractions`` decide the sizes. Ordering inside each split
    follows the hash ranking, so the partition depends only on the id strings.
    """
    import hashlib

    ranked = sorted(video_ids,
                    key=lambda v: hashlib.md5(v.encode("utf-8")).hexdigest())
    n = len(ranked)
    if counts is not None:
        n_train, n_val, n_test = counts
        if n_train + n_val + n_test != n:
            raise ConfigError(
                f"split counts {counts} do not sum to {n} videos")
    else:
        if abs(sum(fractions) - 1.0) > 1e-9:
            raise ConfigError(f"split fractions {fractions} must sum to 1")
        n_train = int(round(fractions[0] * n))
        n_val = int(round(fractions[1] * n))
        n_test = n - n_train - n_val
        if min(n_train, n_val, n_test) < 0:
            raise ConfigError(f"split fractions {fractions} are infeasible for {n} videos")
    return {
        "train": sorted(ranked[:n_train]),
        "val": sorted(ranked[n_train:n_train + n_val]),
        "test": sorted(ranked[n_train + n_val:]),
    }
