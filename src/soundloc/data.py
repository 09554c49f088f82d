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

import errno
import json
import math
import os
import struct
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .errors import (
    AnnotationFormatError,
    ConfigError,
    EmptyInputError,
    FeatureFileError,
    ValidationError,
    check_numbers,
    is_count,
    is_real,
)

TSLF_MAGIC = b"TSLF"
TSLF_VERSION = 1
TSLF_MAX_TIMESTEPS = 2**32 - 1   # the header stores T as a u32

MODALITY_CODES = {"visual": 0, "audio": 1, "fused": 2}
MODALITY_NAMES = {v: k for k, v in MODALITY_CODES.items()}

# elements per block of _all_finite's mask: 64 KiB, so checking a
# (2048, 1536) feature matrix takes 0.5% of its bytes, not a quarter
_FINITE_BLOCK = 1 << 16


def _all_finite(arr: np.ndarray) -> bool:
    """Whether every value of ``arr`` is finite, one block at a time."""
    flat = arr.reshape(-1)
    for lo in range(0, flat.size, _FINITE_BLOCK):
        if not np.isfinite(flat[lo:lo + _FINITE_BLOCK]).all():
            return False
    return True


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
        if not (0 < self.stride_sec < math.inf):
            raise ValidationError(
                f"stride_sec must be finite and positive, got {self.stride_sec}")
        if not _all_finite(self.data):
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
        check_numbers(self, reals=("duration_sec", "stride_sec", "signal_to_noise"),
                      counts=("num_videos", "num_classes", "dim_visual",
                              "dim_audio", "seed"))
        for name, ok, kind in (("events_per_video", is_count, "integers"),
                               ("event_length_sec", is_real, "numbers")):
            value = getattr(self, name)
            if not (isinstance(value, tuple) and len(value) == 2
                    and all(map(ok, value))):
                raise ConfigError(f"{name} must be a pair of {kind}, got {value!r}")
        if min(self.num_videos, self.num_classes, self.dim_visual, self.dim_audio) < 1:
            raise ConfigError("all synthetic counts must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not (0 < self.duration_sec < math.inf and self.stride_sec > 0):
            raise ConfigError("duration_sec must be finite and > 0, stride_sec > 0")
        steps = self.duration_sec / self.stride_sec
        if not (steps < math.inf and round(steps) <= TSLF_MAX_TIMESTEPS):
            raise ConfigError(
                f"duration_sec / stride_sec is {steps} timesteps; a feature "
                f"file holds at most {TSLF_MAX_TIMESTEPS}")
        if not (self.signal_to_noise > 0):
            raise ConfigError(f"signal_to_noise must be > 0, got {self.signal_to_noise}")
        lo, hi = self.events_per_video
        if lo < 0 or hi < lo:
            raise ConfigError(f"bad events_per_video range {self.events_per_video}")
        llo, lhi = self.event_length_sec
        if not (0 < llo <= lhi):
            raise ConfigError(f"bad event_length_sec range {self.event_length_sec}")
        if self.num_timesteps < 1:
            raise ConfigError("duration shorter than one timestep")
        if lhi > self.event_span_sec:
            raise ConfigError(
                f"event length {lhi} exceeds video duration {self.event_span_sec}")

    @property
    def num_timesteps(self) -> int:
        return int(round(self.duration_sec / self.stride_sec))

    @property
    def event_span_sec(self) -> float:
        """Where events lie: duration_sec, or the T * stride_sec that the
        annotations record as the duration when that is shorter."""
        return min(self.duration_sec, self.num_timesteps * self.stride_sec)


# ---------------------------------------------------------------------------
# modality fusion

def fuse_features(visual: FeatureSequence,
                  audio: FeatureSequence | None) -> FeatureSequence:
    """Concatenate per-timestep audio features onto visual ones.

    Audio is resampled to the visual timeline by nearest-neighbor index
    mapping when lengths differ; the fused layout is the visual block
    followed by the audio block, so slicing columns [0, D_v) recovers the
    visual matrix exactly. Passing ``audio=None`` yields a fused sequence
    equal to the visual one (single-modality mode). The two durations
    (``T * stride_sec``) may differ by at most the larger stride.
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

    gap = abs(visual.duration_sec - audio.duration_sec)
    if not gap <= max(visual.stride_sec, audio.stride_sec):   # NaN fails too
        raise ValidationError(
            f"video {visual.video_id!r}: visual lasts {visual.duration_sec} s "
            f"but audio {audio.duration_sec} s, more than one stride apart")
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
    with atomic_write(path) as fh:
        fh.write(header)
        fh.write(vid)
        fh.write(memoryview(np.ascontiguousarray(seq.data, dtype="<f4")))


def load_features(path) -> FeatureSequence:
    """The sequence a feature file holds, its payload read once, straight
    from the file into the (T, D) matrix."""
    try:
        with open(path, "rb") as fh:
            return _read_features(fh, os.fstat(fh.fileno()).st_size, path)
    except OSError as exc:
        raise FeatureFileError(f"cannot read feature file {path}: {exc}") from exc


def _read_features(fh, size: int, path) -> FeatureSequence:
    fixed = struct.calcsize(_TSLF_HEADER)
    head = fh.read(fixed)
    if len(head) < fixed:
        raise FeatureFileError(f"{path}: truncated header ({len(head)} bytes)")
    magic, version, modality_code, pad, t, d, stride_sec, vid_len = struct.unpack(
        _TSLF_HEADER, head)
    if magic != TSLF_MAGIC:
        raise FeatureFileError(f"{path}: bad magic {magic!r}")
    if version != TSLF_VERSION:
        raise FeatureFileError(f"{path}: unsupported version {version}")
    if modality_code not in MODALITY_NAMES:
        raise FeatureFileError(f"{path}: unknown modality code {modality_code}")
    if pad != b"\x00\x00\x00":
        raise FeatureFileError(f"{path}: reserved bytes are not zero")

    vid = fh.read(vid_len)
    if len(vid) < vid_len:
        raise FeatureFileError(f"{path}: truncated video id")
    try:
        video_id = vid.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FeatureFileError(f"{path}: video id does not decode as UTF-8") from exc

    expected = t * d * 4
    # the file may shrink after fstat: what readinto gets is what counts
    have = size - fh.tell()
    if have > expected:
        raise FeatureFileError(
            f"{path}: {have - expected} trailing bytes after payload")
    if have == expected:
        data = np.empty((t, d), "<f4")
        have = fh.readinto(data)
    if have < expected:
        raise FeatureFileError(f"{path}: payload truncated ({have} of {expected} bytes)")
    try:
        return FeatureSequence(video_id, MODALITY_NAMES[modality_code],
                               float(stride_sec), data)
    except ValidationError as exc:
        raise FeatureFileError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# annotation / prediction JSON

def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise AnnotationFormatError(msg)


# the types of a JSON number; a bool is not one
_NUMBER_TYPES = (int, float)


def _to_float(x) -> float:
    """``float(x)``, with an int too large for a float mapped to +-inf."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def read_json(path):
    """The document in a JSON file; AnnotationFormatError if the file cannot
    be read or is not valid JSON."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise AnnotationFormatError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise AnnotationFormatError(f"{path}: invalid JSON: {exc}") from exc


def load_annotations(path) -> list[AnnotationSet]:
    doc = read_json(path)
    _require(isinstance(doc, dict), f"{path}: top level must be an object")
    class_names = doc.get("class_names")
    _require(isinstance(class_names, list) and class_names
             and all(isinstance(n, str) for n in class_names),
             f"{path}: class_names must be a non-empty list of strings")
    dup = sorted({n for n in class_names if class_names.count(n) > 1})
    _require(not dup, f"{path}: duplicate class names: {', '.join(map(repr, dup))}")
    videos = doc.get("videos")
    _require(isinstance(videos, list), f"{path}: videos must be a list")

    out = []
    seen = set()
    for v in videos:
        _require(isinstance(v, dict), f"{path}: each video must be an object")
        vid = v.get("video_id")
        _require(isinstance(vid, str) and vid, f"{path}: missing video_id")
        _require(vid not in seen, f"{path}: duplicate video_id {vid!r}")
        seen.add(vid)
        duration = v.get("duration_sec")
        _require(type(duration) in _NUMBER_TYPES,
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
            _require(type(start) in _NUMBER_TYPES and type(end) in _NUMBER_TYPES,
                     f"{path}: video {vid!r} event {i}: start/end must be numbers")
            parsed.append(Event(label, _to_float(start), _to_float(end)))
        ann = AnnotationSet(vid, _to_float(duration), parsed, list(class_names))
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
    write_json(doc, path)


_DET_KEYS = ("label", "score", "start_sec", "end_sec")


def _first_bad_detection(by_video: dict[str, list], exact_keys: bool) -> str | None:
    """``video <id> det <i>: <problem>`` for the first invalid detection in
    order, None if every detection is valid; with ``exact_keys`` each must
    hold just the four keys, as the writer needs."""
    for vid, dets in by_video.items():
        for i, det in enumerate(dets):
            where = f"video {vid!r} det {i}: "
            if exact_keys and not (type(det) is dict
                                   and det.keys() == set(_DET_KEYS)):
                return (where + "must be an object with just the keys "
                        + ", ".join(_DET_KEYS))
            if not isinstance(det, dict):
                return where + "not an object"
            label, score, start, end = (det.get(k) for k in _DET_KEYS)
            if not (type(label) is int and 0 <= label < 2 ** 63):
                return where + "bad label"
            if not (type(score) in _NUMBER_TYPES and 0.0 <= score <= 1.0):
                return where + "score must be in [0, 1]"
            if not (type(start) in _NUMBER_TYPES and type(end) in _NUMBER_TYPES
                    and -math.inf < _to_float(start) < _to_float(end) < math.inf):
                return where + "start must precede end, both finite"
    return None


def _detection_columns(dets: list, exact_keys: bool):
    """(labels, score, start, end, as_parsed) if every detection passes, else None.

    Accepts exactly what ``_first_bad_detection`` accepts: dicts (of just the
    four keys, with ``exact_keys``), ints (no bools) that fit int64 as
    labels, ints or floats that fit a float64 elsewhere. ``as_parsed`` says
    that each detection holds just the four keys, with floats where the
    output has floats, so it can be returned as it is.
    """
    if set(map(type, dets)) - {dict}:
        return None
    sizes = set(map(len, dets))
    if exact_keys and sizes - {4}:
        return None
    labels, scores, starts, ends = ([d.get(k) for d in dets] for k in _DET_KEYS)
    types = [set(map(type, col)) for col in (scores, starts, ends)]
    if set(map(type, labels)) - {int} or any(t - {int, float} for t in types):
        return None
    try:
        label = np.array(labels, dtype=np.int64)
        score, start, end = (np.array(col, dtype=np.float64)
                             for col in (scores, starts, ends))
    except OverflowError:
        return None
    ok = ((label >= 0) & (score >= 0.0) & (score <= 1.0)
          & (start > -math.inf) & (start < end) & (end < math.inf))
    if not ok.all():
        return None
    as_parsed = sizes <= {4} and not any(int in t for t in types)
    return labels, score, start, end, as_parsed


def load_predictions(path) -> dict[str, list[dict]]:
    """Parse a prediction file into {video_id: [detection dicts]}.

    Each video's structure is checked as it is read; the detection fields are
    checked as columns over the whole file. Either way the error reported is
    the first one in file order.
    """
    doc = read_json(path)
    _require(isinstance(doc, dict) and isinstance(doc.get("videos"), list),
             f"{path}: top level must be an object with a videos list")
    out: dict[str, list] = {}

    def require(cond: bool, msg: str) -> None:
        # a bad detection in an earlier video comes first in file order
        if not cond:
            problem = _first_bad_detection(out, False) or msg
            raise AnnotationFormatError(f"{path}: {problem}")

    for v in doc["videos"]:
        require(isinstance(v, dict), "each video must be an object")
        vid = v.get("video_id")
        require(isinstance(vid, str) and vid, "missing video_id")
        require(vid not in out, f"duplicate video_id {vid!r}")
        dets = v.get("detections", [])
        require(isinstance(dets, list), f"video {vid!r}: detections must be a list")
        out[vid] = dets

    cols = _detection_columns([d for dets in out.values() for d in dets], False)
    require(cols is not None, "column checks rejected a valid detection")
    labels, score, start, end, as_parsed = cols
    if as_parsed:
        return out
    rows = zip(labels, score.tolist(), start.tolist(), end.tolist())
    return {vid: [dict(zip(_DET_KEYS, row)) for _, row in zip(dets, rows)]
            for vid, dets in out.items()}


# one detection as json.dump(indent=2, sort_keys=True) writes it inside a
# prediction file; %r is int.__repr__ or float.__repr__, as json uses
_DETECTION_JSON = ('        {\n'
                   '          "end_sec": %r,\n'
                   '          "label": %r,\n'
                   '          "score": %r,\n'
                   '          "start_sec": %r\n'
                   '        }')


def write_predictions(preds_by_video: dict[str, list[dict]], path) -> None:
    """Write {video_id: [detection dicts]} as a prediction file, videos sorted.

    The bytes are those of ``write_json`` on the ``{"videos": [...]}``
    document, formatted here one detection at a time from a template, since
    the json module's indenting encoder runs in pure Python. A detection
    that ``load_predictions`` would reject or change (the four keys, and
    values it accepts) raises ValidationError before anything is written.
    """
    for vid, dets in preds_by_video.items():
        if not (isinstance(vid, str) and vid):
            raise ValidationError(f"cannot write predictions: video id must be "
                                  f"a non-empty string, got {vid!r}")
        if not isinstance(dets, list):
            raise ValidationError(f"cannot write predictions: video {vid!r}: "
                                  f"detections must be a list")
    if _detection_columns([d for dets in preds_by_video.values() for d in dets],
                          True) is None:
        raise ValidationError("cannot write predictions: "
                              + _first_bad_detection(preds_by_video, True))
    with atomic_write(path, "w") as fh:
        fh.write('{\n  "videos": [')
        sep = "\n"
        for vid in sorted(preds_by_video):
            dets = preds_by_video[vid]
            rows = ",\n".join([_DETECTION_JSON % (d["end_sec"], d["label"],
                                                  d["score"], d["start_sec"])
                               for d in dets])
            listed = f"[\n{rows}\n      ]" if dets else "[]"
            fh.write(f'{sep}    {{\n      "detections": {listed},\n'
                     f'      "video_id": {encode_basestring_ascii(vid)}\n    }}')
            sep = ",\n"
        fh.write("\n  ]\n}\n" if preds_by_video else "]\n}\n")


def write_json(doc, path) -> None:
    """Write ``doc`` as indented, key-sorted JSON ending in a newline."""
    with atomic_write(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


@contextmanager
def atomic_write(path, mode: str = "wb"):
    """Open ``path`` for writing so that it changes all at once or not at all.

    The block writes to a temporary file in the same directory, which
    replaces ``path`` (``os.replace``) only when the block finishes. If the
    block raises, the temporary file is removed and ``path`` keeps its
    previous bytes; a killed process can leave a stale temporary file, never
    a truncated ``path``. Text modes write UTF-8. An ``OSError`` names
    ``path``, not the temporary file.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror or str(exc), str(path)) from exc
        raise


def check_writable(path) -> None:
    """Raise the ``OSError`` that writing a file at ``path`` would meet
    for a directory there or a missing parent, before any work is done."""
    path = Path(path)
    if path.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    if not path.parent.is_dir():
        raise FileNotFoundError(errno.ENOENT, "No such directory to write into",
                                str(path))


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
    span = spec.event_span_sec
    events: list[Event] = []
    for _ in range(count):
        label = int(rng.integers(0, spec.num_classes))
        # rejection sampling keeps same-class events disjoint
        for _attempt in range(64):
            length = float(rng.uniform(*spec.event_length_sec))
            start = float(rng.uniform(0.0, span - length))
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

    t_steps = spec.num_timesteps
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
                  counts: tuple[int, int, int] | None = None) -> dict[str, list[str]]:
    """Partition video ids into train/val/test by a stable content hash.

    With ``counts`` given, exactly those sizes are used (they must cover all
    ids); otherwise the split is 60/20/20, rounded. Ordering inside each split
    follows the hash ranking, so the partition depends only on the id strings.
    """
    import hashlib

    ranked = sorted(video_ids,
                    key=lambda v: hashlib.md5(v.encode("utf-8")).hexdigest())
    n = len(ranked)
    if counts is not None:
        n_train, n_val, n_test = counts
        if min(counts) < 0:
            raise ConfigError(f"split counts {counts} must not be negative")
        if n_train + n_val + n_test != n:
            raise ConfigError(
                f"split counts {counts} do not sum to {n} videos")
    else:
        n_train, n_val = int(round(0.6 * n)), int(round(0.2 * n))
    return {
        "train": sorted(ranked[:n_train]),
        "val": sorted(ranked[n_train:n_train + n_val]),
        "test": sorted(ranked[n_train + n_val:]),
    }
