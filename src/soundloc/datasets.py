"""On-disk dataset layout: feature files, annotations, split manifest.

A dataset directory holds ``features/<video>.visual.tslf`` and
``features/<video>.audio.tslf`` pairs, an ``annotations.json`` and a
``manifest.json`` recording the generator settings, the seed and the
train/val/test split.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import data as dio
from .errors import AnnotationFormatError, ValidationError


@dataclass
class Dataset:
    """A loaded dataset: fused features plus annotations, keyed by video."""

    fused: dict[str, dio.FeatureSequence]
    annotations: dict[str, dio.AnnotationSet]
    class_names: list[str]
    splits: dict[str, list[str]] = field(default_factory=dict)
    manifest: dict = field(default_factory=dict)

    def videos(self, split: str | None = None) -> list[str]:
        if split is None:
            return sorted(self.fused)
        if split not in self.splits:
            raise ValidationError(f"dataset has no {split!r} split")
        return list(self.splits[split])


def write_dataset(out_dir, spec: dio.SyntheticSpec,
                  split_counts: tuple[int, int, int] | None = None,
                  force: bool = False) -> dict:
    """Generate a synthetic dataset and write the directory layout."""
    out = Path(out_dir)
    if out.exists() and any(out.iterdir()) and not force:
        raise ValidationError(
            f"output directory {out} is not empty (use force to overwrite)")
    # everything that can reject the spec runs before the first write
    pairs, annotations = dio.generate_synthetic(spec)
    ids = [v.video_id for v, _ in pairs]
    splits = dio.split_by_hash(ids, counts=split_counts)
    files = {out / "features" / f"{seq.video_id}.{seq.modality}.tslf": seq
             for pair in pairs for seq in pair}
    for stale in (out / "features").glob("*.tslf"):
        if stale not in files:   # an earlier dataset's video
            stale.unlink()
    (out / "features").mkdir(parents=True, exist_ok=True)
    for path, seq in files.items():
        dio.save_features(seq, path)
    dio.save_annotations(annotations, out / "annotations.json")
    manifest = {
        "generator_spec": asdict(spec),
        "seed": spec.seed,
        "num_videos": len(ids),
        "splits": splits,
    }
    dio.write_json(manifest, out / "manifest.json")
    return manifest


def load_feature_dir(features_dir) -> dict[str, dio.FeatureSequence]:
    """Fuse every visual/audio pair found in a features directory.

    An audio file whose video has no visual file (an already-fused file is
    not one) is an error, not a silent drop; so are two files that hold the
    same video's audio, or its visual or fused features.
    """
    root = Path(features_dir)
    if not root.is_dir():
        raise ValidationError(f"features directory not found: {root}")
    # sequences still waiting for their partner; a pair is fused once both
    # are read, so the directory is not resident twice
    visual: dict[str, dio.FeatureSequence] = {}
    audio: dict[str, dio.FeatureSequence] = {}
    fused: dict[str, dio.FeatureSequence] = {}
    files: dict[tuple[str, bool], str] = {}
    for path in sorted(root.glob("*.tslf")):
        seq = dio.load_features(path)
        vid = seq.video_id
        # already-fused files pass straight through, in the visual slot
        is_audio = seq.modality == "audio"
        first = files.setdefault((vid, is_audio), path.name)
        if first != path.name:
            raise ValidationError(
                f"{root}: {first} and {path.name} both hold "
                f"{'audio' if is_audio else 'visual or fused'} features of video "
                f"{vid!r}")
        if seq.modality == "fused":
            fused[vid] = seq
        elif is_audio and vid in visual:
            fused[vid] = dio.fuse_features(visual.pop(vid), seq)
        elif not is_audio and vid in audio:
            fused[vid] = dio.fuse_features(seq, audio.pop(vid))
        else:
            (audio if is_audio else visual)[vid] = seq
    for vid in list(visual):
        fused[vid] = dio.fuse_features(visual.pop(vid), None)
    orphans = sorted(files[vid, True] for vid in audio)
    if orphans:
        raise ValidationError(
            f"{root}: audio files without a visual partner: "
            f"{', '.join(orphans[:5])}")
    return dict(sorted(fused.items()))


def load_dataset(root_dir) -> Dataset:
    root = Path(root_dir)
    fused = load_feature_dir(root / "features")
    anns = dio.load_annotations(root / "annotations.json")
    by_vid = {a.video_id: a for a in anns}
    missing = sorted(set(fused) - set(by_vid))
    if missing:
        raise AnnotationFormatError(
            f"{root}: features without annotations: {', '.join(missing[:5])}")

    manifest_path = root / "manifest.json"
    manifest: dict = {}
    splits: dict[str, list[str]] = {}
    if manifest_path.exists():
        manifest = dio.read_json(manifest_path)
        splits = manifest.get("splits", {}) if isinstance(manifest, dict) else None
        if not (isinstance(splits, dict) and all(
                isinstance(ids, list) and all(type(v) is str for v in ids)
                for ids in splits.values())):
            raise AnnotationFormatError(f"{manifest_path}: must be an object whose "
                                        "splits map names to lists of video ids")
        homes: dict[str, list[str]] = {}
        for name, ids in splits.items():
            for vid in ids:
                homes.setdefault(vid, []).append(name)
        for vid, names in sorted(homes.items()):
            if len(names) > 1:
                raise AnnotationFormatError(
                    f"{manifest_path}: video {vid!r} is listed more than once, "
                    f"in splits {names}")

    class_names = anns[0].class_names if anns else []
    return Dataset(fused=fused, annotations=by_vid, class_names=class_names,
                   splits=splits, manifest=manifest)
