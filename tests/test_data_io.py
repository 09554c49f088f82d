"""Tests for feature/annotation I/O, fusion and synthetic generation."""

import contextlib
import errno
import json
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soundloc import config as config_mod
from soundloc import data as dio
from soundloc import model as model_mod
from soundloc.datasets import load_dataset, load_feature_dir, write_dataset
from soundloc.errors import (
    AnnotationFormatError,
    ConfigError,
    FeatureFileError,
    ValidationError,
)

BIG = 10 ** 400   # a JSON integer beyond the float range


def make_seq(video_id="vid00000", modality="visual", t=7, d=5, seed=0, stride=1.0):
    rng = np.random.default_rng(seed)
    return dio.FeatureSequence(video_id, modality, stride,
                               rng.normal(size=(t, d)).astype(np.float32))


class TestFusion:
    def test_dims_add(self):
        v = make_seq(t=16, d=1408)
        a = make_seq(modality="audio", t=16, d=256, seed=1)
        fused = dio.fuse_features(v, a)
        assert fused.data.shape == (16, 1408 + 256)
        assert fused.modality == "fused"

    def test_visual_block_recoverable(self):
        v = make_seq(t=12, d=6)
        a = make_seq(modality="audio", t=12, d=3, seed=2)
        fused = dio.fuse_features(v, a)
        np.testing.assert_array_equal(fused.data[:, :6], v.data)
        np.testing.assert_array_equal(fused.data[:, 6:], a.data)

    def test_missing_audio_passthrough(self):
        v = make_seq(t=10, d=4)
        fused = dio.fuse_features(v, None)
        np.testing.assert_array_equal(fused.data, v.data)
        assert fused.modality == "fused"

    def test_nearest_neighbor_resampling(self):
        v = make_seq(t=100, d=2)
        a = make_seq(modality="audio", t=50, d=3, seed=3, stride=2.0)
        fused = dio.fuse_features(v, a)
        assert fused.data.shape == (100, 5)
        idx = np.clip(np.rint(np.arange(100) * 0.5).astype(int), 0, 49)
        np.testing.assert_array_equal(fused.data[:, 2:], a.data[idx])

    @settings(max_examples=200, deadline=None)
    @given(t_v=st.integers(1, 64), t_a=st.integers(1, 64),
           s_v=st.sampled_from([0.25, 0.5, 1.0, 2.0]),
           s_a=st.sampled_from([0.25, 0.5, 1.0, 2.0]))
    def test_durations_may_differ_by_at_most_one_stride(self, t_v, t_a, s_v, s_a):
        # every duration here is exact in binary, so the boundary is sharp
        v = make_seq(t=t_v, d=2, stride=s_v)
        a = make_seq(modality="audio", t=t_a, d=3, seed=1, stride=s_a)
        if abs(t_v * s_v - t_a * s_a) <= max(s_v, s_a):
            assert dio.fuse_features(v, a).data.shape == (t_v, 5)
        else:
            with pytest.raises(ValidationError, match="more than one stride"):
                dio.fuse_features(v, a)

    def test_one_stride_apart_is_the_boundary(self):
        v = make_seq(t=10, d=2, stride=1.0)
        assert dio.fuse_features(v, make_seq(modality="audio", t=9, d=3)).dim == 5
        with pytest.raises(ValidationError, match="more than one stride"):
            dio.fuse_features(v, make_seq(modality="audio", t=8, d=3))

    def test_orphan_audio_files_named_up_to_five(self, tmp_path):
        dio.save_features(make_seq("paired"), tmp_path / "paired.visual.tslf")
        dio.save_features(make_seq("paired", "audio"), tmp_path / "paired.audio.tslf")
        for i in range(7):
            dio.save_features(make_seq(f"lone{i}", "audio"),
                              tmp_path / f"lone{i}.audio.tslf")
        with pytest.raises(ValidationError, match="without a visual partner") as exc:
            load_feature_dir(tmp_path)
        named = [f"lone{i}.audio.tslf" for i in range(7) if f"lone{i}." in str(exc.value)]
        assert named == [f"lone{i}.audio.tslf" for i in range(5)]

    def test_audio_beside_a_fused_file_is_an_orphan(self, tmp_path):
        dio.save_features(make_seq("v", "fused"), tmp_path / "v.fused.tslf")
        assert list(load_feature_dir(tmp_path)) == ["v"]
        dio.save_features(make_seq("v", "audio"), tmp_path / "v.audio.tslf")
        with pytest.raises(ValidationError, match="v.audio.tslf"):
            load_feature_dir(tmp_path)

    def test_mismatched_video_id(self):
        v = make_seq(video_id="a")
        a = make_seq(video_id="b", modality="audio")
        with pytest.raises(ValidationError, match="video ids differ"):
            dio.fuse_features(v, a)

    def test_zero_width_audio_rejected_at_construction(self):
        with pytest.raises(ValidationError):
            dio.FeatureSequence("v", "audio", 1.0, np.zeros((4, 0), dtype=np.float32))

    @pytest.mark.parametrize("stride", [math.inf, math.nan, 0.0, -1.0])
    def test_stride_must_be_finite_and_positive(self, stride):
        with pytest.raises(ValidationError, match="stride_sec must be finite"):
            dio.FeatureSequence("v", "visual", stride, np.zeros((4, 2)))

    @pytest.mark.parametrize("video_id", ["", None, 7])
    def test_video_id_must_be_a_non_empty_string(self, video_id):
        with pytest.raises(ValidationError, match="video id must be a non-empty"):
            dio.FeatureSequence(video_id, "visual", 1.0, np.zeros((4, 2)))


class TestFeatureFiles:
    def test_roundtrip_bit_exact(self, tmp_path):
        seq = make_seq(t=7, d=5)
        p1, p2 = tmp_path / "a.tslf", tmp_path / "b.tslf"
        dio.save_features(seq, p1)
        loaded = dio.load_features(p1)
        assert loaded.video_id == seq.video_id
        assert loaded.modality == seq.modality
        assert loaded.stride_sec == seq.stride_sec
        np.testing.assert_array_equal(loaded.data, seq.data)
        dio.save_features(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_payload(self, tmp_path):
        seq = make_seq()
        p = tmp_path / "t.tslf"
        dio.save_features(seq, p)
        blob = p.read_bytes()
        p.write_bytes(blob[:-8])
        with pytest.raises(FeatureFileError, match="truncated"):
            dio.load_features(p)

    def test_bad_magic(self, tmp_path):
        seq = make_seq()
        p = tmp_path / "m.tslf"
        dio.save_features(seq, p)
        blob = bytearray(p.read_bytes())
        blob[:4] = b"NOPE"
        p.write_bytes(bytes(blob))
        with pytest.raises(FeatureFileError, match="magic"):
            dio.load_features(p)

    def test_trailing_garbage_rejected(self, tmp_path):
        seq = make_seq()
        p = tmp_path / "g.tslf"
        dio.save_features(seq, p)
        p.write_bytes(p.read_bytes() + b"\x00")
        with pytest.raises(FeatureFileError, match="trailing"):
            dio.load_features(p)

    @pytest.mark.parametrize("stride, data, needle", [
        (math.inf, None, "stride_sec must be finite and positive, got inf"),
        (math.nan, None, "stride_sec must be finite and positive, got nan"),
        (1.0, [[0.0, math.nan]], "contains non-finite values"),
        (1.0, np.zeros((0, 3)), "non-empty (T, D) matrix")])
    def test_sequence_rule_applies_to_files(self, tmp_path, stride, data, needle):
        p = tmp_path / "s.tslf"
        seq = make_seq()
        dio.save_features(seq, p)
        blob = bytearray(p.read_bytes())
        # header: magic, version, modality, 3 reserved bytes, T, D, f64 stride
        at = struct.calcsize("<4sIB3sII")
        if data is not None:
            data = np.asarray(data, dtype="<f4")
            struct.pack_into("<II", blob, at - 8, *data.shape)
            blob[len(blob) - seq.data.nbytes:] = data.tobytes()
        struct.pack_into("<d", blob, at, stride)
        p.write_bytes(bytes(blob))
        with pytest.raises(FeatureFileError) as exc:
            dio.load_features(p)
        assert str(exc.value).startswith(f"{p}: ") and needle in str(exc.value)

    def test_fuzz_truncation_and_bit_flips(self, tmp_path):
        """Corrupted files must yield typed errors or still-valid sequences."""
        seq = make_seq(t=11, d=3, seed=9)
        p = tmp_path / "fuzz.tslf"
        dio.save_features(seq, p)
        pristine = p.read_bytes()
        rng = np.random.default_rng(123)
        for case in range(1000):
            blob = bytearray(pristine)
            if case % 2 == 0:
                cut = int(rng.integers(0, len(blob)))
                blob = blob[:cut]
            else:
                for _ in range(int(rng.integers(1, 4))):
                    pos = int(rng.integers(0, len(blob)))
                    blob[pos] ^= 1 << int(rng.integers(0, 8))
            p.write_bytes(bytes(blob))
            try:
                loaded = dio.load_features(p)
            except FeatureFileError:
                continue
            # accepted: must still satisfy every FeatureSequence invariant
            assert np.isfinite(loaded.data).all()
            assert loaded.data.shape[0] >= 1 and loaded.data.shape[1] >= 1
            assert loaded.stride_sec > 0


class TestAnnotationJson:
    def write(self, tmp_path, doc):
        p = tmp_path / "ann.json"
        p.write_text(json.dumps(doc))
        return p

    def minimal_doc(self):
        return {
            "class_names": ["a", "b"],
            "videos": [{
                "video_id": "v1",
                "duration_sec": 10.0,
                "events": [{"label": 1, "start_sec": 2.0, "end_sec": 5.0}],
            }],
        }

    def test_minimal_valid(self, tmp_path):
        anns = dio.load_annotations(self.write(tmp_path, self.minimal_doc()))
        assert len(anns) == 1
        assert anns[0].events[0].label == 1

    def test_negative_start_rejected(self, tmp_path):
        doc = self.minimal_doc()
        doc["videos"][0]["events"][0]["start_sec"] = -1.0
        with pytest.raises(AnnotationFormatError):
            dio.load_annotations(self.write(tmp_path, doc))

    def test_label_out_of_range_rejected(self, tmp_path):
        doc = self.minimal_doc()
        doc["videos"][0]["events"][0]["label"] = 2
        with pytest.raises(AnnotationFormatError):
            dio.load_annotations(self.write(tmp_path, doc))

    def test_repeated_video_id_rejected(self, tmp_path):
        doc = self.minimal_doc()
        doc["videos"].append(dict(doc["videos"][0], events=[]))
        with pytest.raises(AnnotationFormatError, match="duplicate video_id 'v1'"):
            dio.load_annotations(self.write(tmp_path, doc))

    def test_repeated_class_name_rejected(self, tmp_path):
        # two classes of one name would share one per-class AP entry
        root = tmp_path / "d"
        write_dataset(root, dio.SyntheticSpec(num_videos=2, num_classes=3, seed=1))
        doc = json.loads((root / "annotations.json").read_text())
        doc["class_names"] = ["a", "b", "a"]
        (root / "annotations.json").write_text(json.dumps(doc))
        with pytest.raises(AnnotationFormatError, match="duplicate class names: 'a'"):
            load_dataset(root)

    def test_video_listed_twice_in_one_split_rejected(self, tmp_path):
        root = tmp_path / "d"
        write_dataset(root, dio.SyntheticSpec(num_videos=3, seed=1),
                      split_counts=(2, 1, 0))
        doc = json.loads((root / "manifest.json").read_text())
        vid = doc["splits"]["train"][0]
        doc["splits"]["train"].append(vid)
        (root / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(AnnotationFormatError,
                           match=f"'{vid}' is listed more than once, in "
                                 r"splits \['train', 'train'\]"):
            load_dataset(root)

    def test_start_at_or_after_end_names_video_and_index(self, tmp_path):
        doc = self.minimal_doc()
        doc["videos"][0]["events"][0]["start_sec"] = 5.0
        with pytest.raises(AnnotationFormatError, match="'v1' event 0"):
            dio.load_annotations(self.write(tmp_path, doc))

    @pytest.mark.parametrize("where, key, value, needle", [
        ("video", "duration_sec", True, "duration_sec missing"),
        ("event", "start_sec", False, "start/end must be numbers"),
        ("event", "end_sec", True, "start/end must be numbers"),
        ("video", "duration_sec", BIG, "duration_sec must be positive and finite"),
        ("video", "duration_sec", -BIG, "duration_sec must be positive and finite"),
        ("event", "end_sec", BIG, "invalid times"),
        ("event", "start_sec", -BIG, "invalid times"),
        ("event", "label", BIG, "outside [0, 2)")])
    def test_bools_and_huge_ints_rejected(self, tmp_path, where, key, value, needle):
        doc = self.minimal_doc()
        target = doc["videos"][0]
        if where == "event":
            target = target["events"][0]
        target[key] = value
        with pytest.raises(AnnotationFormatError, match=re.escape(needle)):
            dio.load_annotations(self.write(tmp_path, doc))

    def test_roundtrip(self, tmp_path):
        anns = dio.load_annotations(self.write(tmp_path, self.minimal_doc()))
        out = tmp_path / "out.json"
        dio.save_annotations(anns, out)
        again = dio.load_annotations(out)
        assert again[0].video_id == anns[0].video_id
        assert again[0].events[0].end_sec == anns[0].events[0].end_sec

    def test_json_fuzz(self, tmp_path):
        p = self.write(tmp_path, self.minimal_doc())
        pristine = p.read_bytes()
        rng = np.random.default_rng(7)
        for case in range(1000):
            blob = bytearray(pristine)
            if case % 2 == 0:
                blob = blob[:int(rng.integers(0, len(blob)))]
            else:
                pos = int(rng.integers(0, len(blob)))
                blob[pos] ^= 1 << int(rng.integers(0, 8))
            p.write_bytes(bytes(blob))
            try:
                anns = dio.load_annotations(p)
            except AnnotationFormatError:
                continue
            for a in anns:
                a.validate()


def reference_load_predictions(path) -> dict[str, list[dict]]:
    """Detection by detection, in file order; the oracle of load_predictions.

    Numbers are ints or floats, never bools; a label fits int64; start and
    end are compared as the floats they become, an int beyond the float
    range counting as infinite.
    """
    def number(x):
        return isinstance(x, (int, float)) and not isinstance(x, bool)

    def as_float(x):
        try:
            return float(x)
        except OverflowError:
            return math.inf if x > 0 else -math.inf

    def require(cond, msg):
        if not cond:
            raise AnnotationFormatError(msg)

    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    require(isinstance(doc, dict) and isinstance(doc.get("videos"), list),
            f"{path}: top level must be an object with a videos list")
    out: dict[str, list[dict]] = {}
    for v in doc["videos"]:
        require(isinstance(v, dict), f"{path}: each video must be an object")
        vid = v.get("video_id")
        require(isinstance(vid, str) and vid, f"{path}: missing video_id")
        require(vid not in out, f"{path}: duplicate video_id {vid!r}")
        dets = v.get("detections", [])
        require(isinstance(dets, list), f"{path}: video {vid!r}: detections must be a list")
        parsed = []
        for i, det in enumerate(dets):
            require(isinstance(det, dict), f"{path}: video {vid!r} det {i}: not an object")
            label = det.get("label")
            score = det.get("score")
            start = det.get("start_sec")
            end = det.get("end_sec")
            require(isinstance(label, int) and not isinstance(label, bool)
                    and 0 <= label < 2 ** 63,
                    f"{path}: video {vid!r} det {i}: bad label")
            require(number(score) and 0.0 <= score <= 1.0,
                    f"{path}: video {vid!r} det {i}: score must be in [0, 1]")
            require(number(start) and number(end)
                    and -math.inf < as_float(start) < as_float(end) < math.inf,
                    f"{path}: video {vid!r} det {i}: start must precede end, "
                    f"both finite")
            parsed.append({"label": label, "score": float(score),
                           "start_sec": float(start), "end_sec": float(end)})
        out[vid] = parsed
    return out


def outcome(load, path):
    """(output as key-sorted JSON, None) or (None, error text)."""
    try:
        return json.dumps(load(path), sort_keys=True), None
    except AnnotationFormatError as exc:
        return None, str(exc)


GOOD_LABELS = [0, 1, 16]
GOOD_SCORES = [0.0, 0.5, 1.0, 0, 1]
BAD_LABELS = [-1, True, False, 1.0, "0", None, 2 ** 63, 2 ** 63 - 1, BIG, -BIG]
BAD_SCORES = [True, False, -0.1, 1.5, math.nan, math.inf, None, "0.5", BIG, -BIG]
ODD_TIMES = [True, False, math.nan, math.inf, -math.inf, None, "1", BIG, -BIG,
             2 ** 53, 2 ** 53 + 1, 2 ** 53 + 2, -1e308, 1e308, 0, 3]


@st.composite
def detections(draw, clean):
    if not clean and draw(st.integers(0, 19)) == 0:
        return draw(st.sampled_from([[], 5, "det", None]))
    start = draw(st.sampled_from([0.0, 0.5, 2.0, -1.5]))
    det = {"label": draw(st.sampled_from(GOOD_LABELS)),
           "score": draw(st.sampled_from(GOOD_SCORES)),
           "start_sec": start,
           "end_sec": start + draw(st.sampled_from([0.25, 1.0, 30.0]))}
    if not clean:
        for key, pool in (("label", BAD_LABELS), ("score", BAD_SCORES),
                          ("start_sec", ODD_TIMES), ("end_sec", ODD_TIMES)):
            if draw(st.integers(0, 9)) == 0:
                det[key] = draw(st.sampled_from(pool))
            if draw(st.integers(0, 29)) == 0:
                del det[key]
        if draw(st.booleans()):
            det["extra"] = 1
    return det


@st.composite
def prediction_docs(draw, clean=False):
    videos = []
    for _ in range(draw(st.integers(0, 6))):
        video = {"video_id": draw(st.sampled_from(["a", "b", "c", "d", "e", "f"])),
                 "detections": draw(st.lists(detections(clean), max_size=6))}
        if not clean and draw(st.integers(0, 7)) == 0:
            how = draw(st.integers(0, 4))
            if how == 0:
                video = draw(st.sampled_from([[], 3, "v", None]))
            elif how == 1:
                video["video_id"] = draw(st.sampled_from(["", 7, None]))
            elif how == 2:
                del video["video_id"]
            elif how == 3:
                video["detections"] = draw(st.sampled_from([{}, "x", None, 1]))
            else:
                del video["detections"]
        videos.append(video)
    if clean:   # distinct ids
        for v, vid in zip(videos, "abcdef"):
            v["video_id"] = vid
    return {"videos": videos}


class TestPredictionsJson:
    @settings(max_examples=400, deadline=None)
    @given(prediction_docs())
    def test_fuzz_same_output_or_same_first_error(self, tmp_path_factory, doc):
        p = tmp_path_factory.mktemp("fuzz") / "pred.json"
        p.write_text(json.dumps(doc))
        got = outcome(dio.load_predictions, p)
        assert got == outcome(reference_load_predictions, p)

    @settings(max_examples=100, deadline=None)
    @given(prediction_docs(clean=True))
    def test_valid_files_load_equal(self, tmp_path_factory, doc):
        p = tmp_path_factory.mktemp("valid") / "pred.json"
        p.write_text(json.dumps(doc))
        loaded = dio.load_predictions(p)
        assert loaded == reference_load_predictions(p)
        for dets in loaded.values():
            for det in dets:
                assert sorted(det) == ["end_sec", "label", "score", "start_sec"]
                assert all(type(det[k]) is float
                           for k in ("score", "start_sec", "end_sec"))

    def test_float_detections_are_returned_as_parsed(self, tmp_path, monkeypatch):
        doc = {"videos": [{"video_id": "v", "detections": [
            {"label": 0, "score": 0.5, "start_sec": 1.0, "end_sec": 2.0}]}]}
        monkeypatch.setattr(dio.json, "load", lambda fh: doc)
        p = tmp_path / "pred.json"
        p.write_text("{}")
        assert dio.load_predictions(p)["v"][0] is doc["videos"][0]["detections"][0]

    def test_ints_and_extra_keys_give_new_dicts(self, tmp_path):
        p = tmp_path / "pred.json"
        p.write_text(json.dumps({"videos": [{"video_id": "v", "detections": [
            {"label": 0, "score": 1, "start_sec": 0, "end_sec": 2.5},
            {"label": 1, "score": 0.5, "start_sec": 1.0, "end_sec": 2.0, "x": 1}]}]}))
        assert json.dumps(dio.load_predictions(p)) == json.dumps({"v": [
            {"label": 0, "score": 1.0, "start_sec": 0.0, "end_sec": 2.5},
            {"label": 1, "score": 0.5, "start_sec": 1.0, "end_sec": 2.0}]})

    @pytest.mark.parametrize("key, value, needle", [
        ("score", True, "score must be in [0, 1]"),
        ("start_sec", False, "start must precede end"),
        ("end_sec", True, "start must precede end"),
        ("end_sec", BIG, "start must precede end"),
        ("start_sec", -BIG, "start must precede end"),
        ("label", 2 ** 63, "bad label"),
        ("label", True, "bad label")])
    def test_bools_and_huge_ints_rejected(self, tmp_path, key, value, needle):
        det = {"label": 0, "score": 0.5, "start_sec": 0.0, "end_sec": 1.0, key: value}
        p = tmp_path / "pred.json"
        p.write_text(json.dumps({"videos": [{"video_id": "v", "detections": [det]}]}))
        with pytest.raises(AnnotationFormatError, match=r"'v' det 0: " + re.escape(needle)):
            dio.load_predictions(p)

    def test_bad_detection_precedes_later_structural_error(self, tmp_path):
        p = tmp_path / "pred.json"
        p.write_text(json.dumps({"videos": [
            {"video_id": "a", "detections": [
                {"label": 0, "score": 0.5, "start_sec": 0.0, "end_sec": 1.0},
                {"label": 0, "score": 2.0, "start_sec": 0.0, "end_sec": 1.0}]},
            {"video_id": "a", "detections": "x"}]}))
        with pytest.raises(AnnotationFormatError, match="'a' det 1: score"):
            dio.load_predictions(p)

    def test_roundtrip_and_validation(self, tmp_path):
        p = tmp_path / "pred.json"
        preds = {"v1": [{"label": 0, "score": 0.5, "start_sec": 1.0, "end_sec": 2.0}]}
        dio.write_predictions(preds, p)
        loaded = dio.load_predictions(p)
        assert loaded == preds

    def test_score_out_of_range(self, tmp_path):
        p = tmp_path / "pred.json"
        p.write_text(json.dumps({"videos": [{"video_id": "v", "detections": [
            {"label": 0, "score": 1.5, "start_sec": 0.0, "end_sec": 1.0}]}]}))
        with pytest.raises(AnnotationFormatError, match="score"):
            dio.load_predictions(p)


def json_reference(preds_by_video):
    """The prediction file as the json module writes it."""
    doc = {"videos": [{"video_id": vid, "detections": preds_by_video[vid]}
                      for vid in sorted(preds_by_video)]}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# boundaries and scores whose repr json spells in unusual ways
ODD_FLOATS = [-0.0, 0.0, 5e-324, 1e16, 1e-7, 0.1 + 0.2, 123456789.125, 2.5e-5]


@st.composite
def writable_predictions(draw):
    videos = {}
    ids = st.one_of(st.sampled_from(["v", "é☃", 'q"\\\n\t', "\ud800", "𝄞x"]),
                    st.text(min_size=1, max_size=6))
    for vid in draw(st.lists(ids, max_size=4, unique=True)):
        dets = []
        for _ in range(draw(st.integers(0, 4))):
            start = draw(st.one_of(st.sampled_from(ODD_FLOATS),
                                   st.integers(-10 ** 6, 10 ** 6),
                                   st.floats(-1e17, 1e17)))
            length = draw(st.one_of(st.sampled_from([1, 5e-324, 1e16]),
                                    st.floats(1e-3, 1e3)))
            end = start + length
            if not start < end:   # length lost to rounding
                end = math.nextafter(float(start), math.inf)
            dets.append({"label": draw(st.integers(0, 2 ** 63 - 1)),
                         "score": draw(st.one_of(st.sampled_from([0, 1, -0.0, 5e-324]),
                                                 st.floats(0.0, 1.0))),
                         "start_sec": start, "end_sec": end})
        videos[vid] = dets
    return videos


DET_KEYS = ("label", "score", "start_sec", "end_sec")
BAD_VALUES = {"label": BAD_LABELS, "score": BAD_SCORES,
              "start_sec": ODD_TIMES, "end_sec": ODD_TIMES}


def reference_write_error(preds_by_video) -> str | None:
    """Detection by detection; the oracle of write_predictions' checks.

    The error text for the first detection the writer must refuse, None if
    it may write them all: dicts of just the four keys, an int (not a bool)
    label that fits int64, and exact ints or floats (no bools, no subclasses)
    elsewhere, start and end compared as the floats they become.
    """
    def number(x):
        return type(x) in (int, float)

    def as_float(x):
        try:
            return float(x)
        except OverflowError:
            return math.inf if x > 0 else -math.inf

    for vid, dets in preds_by_video.items():
        for i, det in enumerate(dets):
            where = f"cannot write predictions: video {vid!r} det {i}: "
            if not (type(det) is dict and det.keys() == set(DET_KEYS)):
                return where + ("must be an object with just the keys "
                                "label, score, start_sec, end_sec")
            label, score, start, end = (det[k] for k in DET_KEYS)
            if not (type(label) is int and 0 <= label < 2 ** 63):
                return where + "bad label"
            if not (number(score) and 0.0 <= score <= 1.0):
                return where + "score must be in [0, 1]"
            if not (number(start) and number(end)
                    and -math.inf < as_float(start) < as_float(end) < math.inf):
                return where + "start must precede end, both finite"
    return None


@st.composite
def mutated_predictions(draw):
    """writable_predictions with some detections broken, or changed to
    other values that may still be valid."""
    preds = draw(writable_predictions())
    for dets in preds.values():
        for i, det in enumerate(dets):
            key = draw(st.sampled_from(DET_KEYS))
            how = draw(st.integers(0, 11))
            if how == 0:
                dets[i] = draw(st.sampled_from([[], 5, "det", None, (1, 2, 3, 4)]))
            elif how == 1:
                det[key] = draw(st.sampled_from(BAD_VALUES[key]))
            elif how == 2:
                del det[key]
            elif how == 3:
                det["extra"] = 1
            elif how == 4:   # still four keys, one of them misspelled
                det[key[:-1]] = det.pop(key)
    return preds


class TestWritePredictions:
    @settings(max_examples=400, deadline=None)
    @given(mutated_predictions())
    def test_fuzz_same_bytes_or_same_first_error(self, tmp_path_factory, preds):
        path = tmp_path_factory.mktemp("w") / "pred.json"
        problem = reference_write_error(preds)
        if problem is None:
            dio.write_predictions(preds, path)
            assert path.read_bytes() == json_reference(preds).encode("utf-8")
        else:
            with pytest.raises(ValidationError) as info:
                dio.write_predictions(preds, path)
            assert str(info.value) == problem
            assert not path.exists()

    @settings(max_examples=300, deadline=None)
    @given(writable_predictions())
    def test_bytes_match_json_module(self, tmp_path_factory, preds):
        path = tmp_path_factory.mktemp("w") / "pred.json"
        dio.write_predictions(preds, path)
        assert path.read_bytes() == json_reference(preds).encode("utf-8")
        if all(type(v) is float for dets in preds.values() for d in dets
               for k, v in d.items() if k != "label"):
            assert dio.load_predictions(path) == preds

    @pytest.mark.parametrize("preds", [
        {}, {"v": []}, {"b": [], "a": []},
        {"ü": [{"label": 0, "score": 1, "start_sec": 0, "end_sec": 3}]},
        {"v": [{"label": 4, "score": 5e-324, "start_sec": -0.0, "end_sec": 1e16},
               {"label": 0, "score": -0.0, "start_sec": 5e-324, "end_sec": 2.5}]},
    ], ids=["no videos", "no detections", "two empty", "ints", "odd floats"])
    def test_edge_cases(self, tmp_path, preds):
        path = tmp_path / "pred.json"
        dio.write_predictions(preds, path)
        assert path.read_text(encoding="utf-8") == json_reference(preds)

    def test_seeded_predict_sized_output(self, tmp_path):
        # 8 videos of 200 detections, as the predict command writes them
        rng = np.random.default_rng(0)
        preds = {}
        for v in range(8):
            start = rng.uniform(0.0, 60.0, 200)
            preds[f"vid{v:05d}"] = [
                {"label": int(c), "score": float(p), "start_sec": float(a),
                 "end_sec": float(b)}
                for c, p, a, b in zip(rng.integers(0, 5, 200), rng.uniform(0, 1, 200),
                                      start, start + rng.uniform(0.1, 8.0, 200))]
        path = tmp_path / "pred.json"
        dio.write_predictions(preds, path)
        assert path.read_text(encoding="utf-8") == json_reference(preds)
        assert dio.load_predictions(path) == preds

    @pytest.mark.parametrize("change, needle", [
        ({"extra": 1}, "just the keys"),
        ({"label": True}, "bad label"),
        ({"label": -1}, "bad label"),
        ({"label": 1.0}, "bad label"),
        ({"label": 2 ** 63}, "bad label"),
        ({"start_sec": math.nan}, "finite"),
        ({"end_sec": math.inf}, "finite"),
        ({"start_sec": -math.inf}, "finite"),
        ({"end_sec": BIG}, "finite"),
        ({"start_sec": 2.0}, "start must precede end"),
        ({"start_sec": 1.0}, "start must precede end"),
        ({"start_sec": False}, "start must precede end"),
        ({"score": 1.5}, "score"),
        ({"score": -0.1}, "score"),
        ({"score": math.nan}, "score"),
        ({"score": True}, "score"),
        ({"score": np.float64(0.5)}, "score"),
    ])
    def test_bad_detection_rejected_and_nothing_written(self, tmp_path, change,
                                                        needle):
        good = {"label": 0, "score": 0.5, "start_sec": 0.0, "end_sec": 1.0}
        path = tmp_path / "pred.json"
        path.write_text("previous")
        preds = {"a": [good], "b": [good, dict(good, **change)]}
        with pytest.raises(ValidationError, match=re.escape(needle)) as info:
            dio.write_predictions(preds, path)
        assert "video 'b' det 1" in str(info.value)
        assert info.value.exit_code == 2
        assert path.read_text() == "previous"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pred.json"]

    @pytest.mark.parametrize("det", [
        {"label": 0, "score": 0.5, "start_sec": 0.0},
        ["not", "a", "dict"],
        # four keys, one misspelled
        {"lable": 0, "score": 0.5, "start_sec": 0.0, "end_sec": 1.0},
        {"label": 0, "scor": 0.5, "start_sec": 0.0, "end_sec": 1.0},
        {"label": 0, "score": 0.5, "start": 0.0, "end_sec": 1.0},
        {"label": 0, "score": 0.5, "start_sec": 0.0, "end": 1.0},
    ])
    def test_malformed_detection_rejected(self, tmp_path, det):
        with pytest.raises(ValidationError, match="det 0: must be an object"):
            dio.write_predictions({"v": [det]}, tmp_path / "pred.json")
        assert not (tmp_path / "pred.json").exists()

    @pytest.mark.parametrize("preds, needle", [
        ({"": []}, "non-empty string"),
        ({7: []}, "non-empty string"),
        ({"v": ({"label": 0, "score": 0.5, "start_sec": 0.0, "end_sec": 1.0},)},
         "must be a list"),
    ])
    def test_bad_video_rejected(self, tmp_path, preds, needle):
        with pytest.raises(ValidationError, match=needle):
            dio.write_predictions(preds, tmp_path / "pred.json")
        assert not (tmp_path / "pred.json").exists()


class TestSynthetic:
    def desk_spec(self, **kw):
        base = dict(num_videos=4, duration_sec=64.0, num_classes=5,
                    dim_visual=16, dim_audio=8, stride_sec=1.0,
                    events_per_video=(1, 3), event_length_sec=(6.0, 16.0),
                    signal_to_noise=5.0, seed=7)
        base.update(kw)
        return dio.SyntheticSpec(**base)

    def test_deterministic(self):
        p1, a1 = dio.generate_synthetic(self.desk_spec())
        p2, a2 = dio.generate_synthetic(self.desk_spec())
        for (v1, au1), (v2, au2) in zip(p1, p2):
            assert v1.data.tobytes() == v2.data.tobytes()
            assert au1.data.tobytes() == au2.data.tobytes()
        for x, y in zip(a1, a2):
            assert x.events == y.events

    def test_snr_zero_forbidden(self):
        with pytest.raises(ConfigError):
            dio.generate_synthetic(self.desk_spec(signal_to_noise=0.0))

    @pytest.mark.parametrize("kw, needle", [
        ({"seed": -1}, "seed must be >= 0"),
        ({"duration_sec": math.inf}, "duration_sec must be finite"),
        ({"duration_sec": math.nan}, "duration_sec must be finite"),
        ({"duration_sec": -math.inf}, "duration_sec must be finite")])
    def test_negative_seed_and_non_finite_duration_rejected(self, kw, needle):
        with pytest.raises(ConfigError, match=needle):
            self.desk_spec(**kw).validate()

    @pytest.mark.parametrize("duration, stride", [
        (1e308, 1e-10), (1e9, 1e-9), (2.0 ** 32, 1.0), (2.0 ** 32 - 0.5, 1.0)])
    def test_more_timesteps_than_a_feature_file_holds_rejected(self, duration,
                                                                stride):
        spec = self.desk_spec(duration_sec=duration, stride_sec=stride)
        with pytest.raises(ConfigError, match="at most 4294967295"):
            spec.validate()

    def test_most_timesteps_a_feature_file_holds_pass(self):
        # validate only: a dataset this long does not fit in memory
        self.desk_spec(duration_sec=2.0 ** 32 - 1.0).validate()

    def test_signature_recoverable_from_event_windows(self):
        # one event per video keeps windows free of cross-class overlap
        pairs, anns = dio.generate_synthetic(
            self.desk_spec(num_videos=8, events_per_video=(1, 1)))
        sig_rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(7).spawn(2)[0]))
        sig_v = dio.class_signatures(5, 16, sig_rng)
        checked = 0
        for (v, _a), ann in zip(pairs, anns):
            centers = (np.arange(v.num_timesteps) + 0.5) * v.stride_sec
            in_any = np.zeros(v.num_timesteps, dtype=bool)
            for ev in ann.events:
                in_any |= (centers >= ev.start_sec) & (centers <= ev.end_sec)
            for ev in ann.events:
                inside = (centers >= ev.start_sec) & (centers <= ev.end_sec)
                if inside.sum() < 4 or (~in_any).sum() < 4:
                    continue
                diff = v.data[inside].mean(axis=0) - v.data[~in_any].mean(axis=0)
                cos = diff @ sig_v[ev.label] / np.linalg.norm(diff)
                assert cos > 0.9
                checked += 1
        assert checked >= 4

    def test_zero_events(self):
        pairs, anns = dio.generate_synthetic(
            self.desk_spec(events_per_video=(0, 0)))
        assert all(not a.events for a in anns)
        assert len(pairs) == 4

    def test_event_length_exceeding_duration(self):
        with pytest.raises(ConfigError):
            dio.generate_synthetic(self.desk_spec(event_length_sec=(70.0, 80.0)))

    def test_same_class_events_disjoint(self):
        _pairs, anns = dio.generate_synthetic(
            self.desk_spec(num_videos=16, events_per_video=(3, 3)))
        for ann in anns:
            by_label = {}
            for ev in ann.events:
                by_label.setdefault(ev.label, []).append(ev)
            for evs in by_label.values():
                evs.sort(key=lambda e: e.start_sec)
                for prev, nxt in zip(evs, evs[1:]):
                    assert prev.end_sec <= nxt.start_sec

    def test_annotations_validate(self):
        _pairs, anns = dio.generate_synthetic(self.desk_spec())
        for ann in anns:
            ann.validate()


class TestSplit:
    def test_exact_counts(self):
        ids = [f"vid{i:05d}" for i in range(96)]
        split = dio.split_by_hash(ids, counts=(64, 16, 16))
        assert len(split["train"]) == 64
        assert len(split["val"]) == 16
        assert len(split["test"]) == 16
        assert sorted(split["train"] + split["val"] + split["test"]) == ids

    def test_default_fractions(self):
        ids = [f"vid{i:05d}" for i in range(50)]
        split = dio.split_by_hash(ids)
        assert len(split["train"]) == 30
        assert len(split["val"]) == 10
        assert len(split["test"]) == 10

    def test_stable(self):
        ids = [f"vid{i:05d}" for i in range(30)]
        assert dio.split_by_hash(ids) == dio.split_by_hash(list(reversed(ids)))

    def test_bad_counts(self):
        with pytest.raises(ConfigError):
            dio.split_by_hash(["a", "b"], counts=(1, 1, 1))

    def test_negative_count_rejected(self):
        # 5 - 1 + 4 covers the 8 ids, but a negative count would put
        # the last train id in the test split too
        ids = [f"vid{i:05d}" for i in range(8)]
        with pytest.raises(ConfigError, match="must not be negative"):
            dio.split_by_hash(ids, counts=(5, -1, 4))


class FullDiskHandle:
    """A file handle that takes its first write, then fails as a full disk."""

    def __init__(self, fh):
        self.fh, self.writes = fh, 0

    def write(self, data):
        self.writes += 1
        if self.writes > 1:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.fh.write(data)

    def __getattr__(self, name):
        return getattr(self.fh, name)


def small_arrays(scale):
    return {"a.w": np.full((2, 3), scale, dtype=np.float32),
            "b.b": np.arange(4, dtype=np.float32) * scale}


ARTIFACT_WRITERS = {
    "checkpoint": lambda path, v: model_mod.save_checkpoint(small_arrays(v), path),
    "json": lambda path, v: dio.write_json({"run": v, "rows": list(range(50))}, path),
    "config": lambda path, v: config_mod.save_config(
        config_mod.TrainConfig(seed=v), path),
    "features": lambda path, v: dio.save_features(make_seq(seed=v), path),
}


class TestAtomicWrites:
    def test_block_that_raises_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "artifact.bin"
        path.write_bytes(b"old contents")
        with pytest.raises(RuntimeError):
            with dio.atomic_write(path) as fh:
                fh.write(b"half of the new")
                raise RuntimeError("killed midway")
        assert path.read_bytes() == b"old contents"
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.bin"]

    def test_failed_first_write_leaves_nothing(self, tmp_path):
        with pytest.raises(RuntimeError):
            with dio.atomic_write(tmp_path / "new.json", "w") as fh:
                fh.write("{")
                raise RuntimeError("killed midway")
        assert list(tmp_path.iterdir()) == []

    def test_finished_block_replaces_the_file(self, tmp_path):
        path = tmp_path / "artifact.txt"
        path.write_text("old")
        with dio.atomic_write(path, "w") as fh:
            fh.write("new ünïcode")
        assert path.read_text(encoding="utf-8") == "new ünïcode"
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.txt"]

    @pytest.mark.parametrize("writer", sorted(ARTIFACT_WRITERS))
    def test_full_disk_keeps_the_previous_artifact(self, writer, tmp_path,
                                                   monkeypatch):
        path = tmp_path / f"artifact.{writer}"
        ARTIFACT_WRITERS[writer](path, 1)
        before = path.read_bytes()
        real = dio.atomic_write

        @contextlib.contextmanager
        def full_disk(target, mode="wb"):
            with real(target, mode) as fh:
                yield FullDiskHandle(fh)

        for module in (dio, model_mod, config_mod):
            monkeypatch.setattr(module, "atomic_write", full_disk)
        with pytest.raises(OSError, match="No space left"):
            ARTIFACT_WRITERS[writer](path, 2)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_checkpoint_that_fails_to_encode_keeps_the_old_one(self, tmp_path):
        path = tmp_path / "best.ckpt"
        model_mod.save_checkpoint(small_arrays(1.0), path)
        before = path.read_bytes()
        bad = {**small_arrays(2.0), "c.\udc80": np.zeros(2, dtype=np.float32)}
        with pytest.raises(UnicodeEncodeError):
            model_mod.save_checkpoint(bad, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["best.ckpt"]

    def test_json_that_fails_to_serialize_keeps_the_old_one(self, tmp_path):
        path = tmp_path / "manifest.json"
        dio.write_json({"epochs": [1, 2]}, path)
        before = path.read_bytes()
        with pytest.raises(TypeError):
            dio.write_json({"epochs": [1, 2, 3], "zz": object()}, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]
