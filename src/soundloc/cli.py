"""Command-line interface: gen-data, train, predict, eval.

Every failure exits nonzero with a single machine-parsable line on stderr:
``error[<code>]: <message>``. Exit codes: 0 ok, 2 validation error,
3 numeric failure, 4 I/O error: a file in a bad format, or an output that
cannot be written (``error[io]``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import data as dio
from . import datasets
from .config import TrainConfig, desk_scale_config, load_config
from .decode import Interval
from .errors import FileFormatError, SoundlocError, UsageError, ValidationError
from .evaluate import mean_ap
from .model import check_checkpoint_shapes, load_checkpoint, predict_intervals
from .train import train


class _Parser(argparse.ArgumentParser):
    """An argument parser, its subcommands' too, that raises UsageError on a
    bad command line instead of printing usage and exiting."""

    def error(self, message: str):
        raise UsageError(message)


def _add_config(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, default=None,
                   help="INI config file; defaults to the desk-scale preset")


def _resolve_config(args) -> TrainConfig:
    return load_config(args.config) if args.config else desk_scale_config()


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="soundloc",
        description="Train and evaluate a temporal sound localization model "
                    "on fused audio-visual feature sequences.")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="write a synthetic dataset")
    g.add_argument("--out", type=Path, required=True)
    g.add_argument("--videos", type=int, default=8)
    g.add_argument("--classes", type=int, default=5)
    g.add_argument("--dim-visual", type=int, default=32)
    g.add_argument("--dim-audio", type=int, default=8)
    g.add_argument("--duration", type=float, default=64.0)
    g.add_argument("--stride", type=float, default=1.0)
    g.add_argument("--snr", type=float, default=5.0)
    g.add_argument("--events", type=int, nargs=2, default=(1, 3),
                   metavar=("MIN", "MAX"))
    g.add_argument("--event-length", type=float, nargs=2, default=(6.0, 16.0),
                   metavar=("MIN", "MAX"))
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--split-counts", type=int, nargs=3, default=None,
                   metavar=("TRAIN", "VAL", "TEST"),
                   help="exact split sizes; default is a 60/20/20 hash split")
    g.add_argument("--force", action="store_true",
                   help="overwrite a non-empty output directory")

    t = sub.add_parser("train", help="train a model on a dataset directory")
    t.add_argument("--data", type=Path, required=True)
    t.add_argument("--out", type=Path, required=True)
    _add_config(t)
    t.add_argument("--seed", type=int, default=None, help="override the seed")

    p = sub.add_parser("predict", help="decode detections for a features dir")
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--features", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    _add_config(p)

    e = sub.add_parser("eval", help="score predictions against annotations")
    e.add_argument("--predictions", type=Path, required=True)
    e.add_argument("--annotations", type=Path, required=True)
    e.add_argument("--out", type=Path, default=None,
                   help="also save the report as JSON")
    return parser


def cmd_gen_data(args) -> int:
    spec = dio.SyntheticSpec(
        num_videos=args.videos,
        duration_sec=args.duration,
        num_classes=args.classes,
        dim_visual=args.dim_visual,
        dim_audio=args.dim_audio,
        stride_sec=args.stride,
        events_per_video=tuple(args.events),
        event_length_sec=tuple(args.event_length),
        signal_to_noise=args.snr,
        seed=args.seed,
    )
    counts = tuple(args.split_counts) if args.split_counts else None
    manifest = datasets.write_dataset(args.out, spec, split_counts=counts,
                                      force=args.force)
    print(f"wrote {manifest['num_videos']} videos to {args.out} "
          f"(train/val/test = {len(manifest['splits']['train'])}/"
          f"{len(manifest['splits']['val'])}/{len(manifest['splits']['test'])})")
    return 0


def cmd_train(args) -> int:
    cfg = _resolve_config(args)
    if args.seed is not None:
        cfg.seed = args.seed
    dataset = datasets.load_dataset(args.data)
    manifest = train(cfg, dataset, args.out)
    last = manifest.epochs[-1]
    print(f"trained {len(manifest.epochs)} epochs in "
          f"{manifest.wall_time_sec:.1f}s; final loss {last['mean_total']:.4f}; "
          f"best val mAP {manifest.best_val_map:.4f}")
    print(f"best checkpoint: {manifest.best_checkpoint}")
    return 0


def cmd_predict(args) -> int:
    dio.check_writable(args.out)
    cfg = _resolve_config(args)
    arrays = load_checkpoint(args.checkpoint)
    check_checkpoint_shapes(arrays, cfg.model)
    fused = datasets.load_feature_dir(args.features)
    preds_by_video: dict[str, list[dict]] = {}
    for vid in sorted(fused):
        intervals = predict_intervals(arrays, cfg.model, fused[vid], cfg.decode)
        preds_by_video[vid] = [
            {"label": iv.label_id, "score": iv.score,
             "start_sec": iv.start_sec, "end_sec": iv.end_sec}
            for iv in intervals
        ]
    dio.write_predictions(preds_by_video, args.out)
    total = sum(len(v) for v in preds_by_video.values())
    print(f"wrote {total} detections for {len(preds_by_video)} videos to {args.out}")
    return 0


def cmd_eval(args) -> int:
    if args.out:
        dio.check_writable(args.out)
    preds_by_video = dio.load_predictions(args.predictions)
    annotations = dio.load_annotations(args.annotations)
    known = {a.video_id for a in annotations}
    unknown = sorted(set(preds_by_video) - known)
    if unknown:
        raise ValidationError(
            f"predictions reference unknown videos: {', '.join(unknown[:5])}")
    class_names = annotations[0].class_names if annotations else []
    unknown = sorted({d["label"] for dets in preds_by_video.values() for d in dets}
                     - set(range(len(class_names))))
    if unknown:
        raise ValidationError(f"predictions use labels that are not annotation "
                              f"classes: {', '.join(map(str, unknown[:5]))}")

    preds = [
        Interval(vid, d["label"], d["score"], d["start_sec"], d["end_sec"])
        for vid, dets in preds_by_video.items() for d in dets
    ]
    gts = [
        Interval(a.video_id, ev.label, 1.0, ev.start_sec, ev.end_sec)
        for a in annotations for ev in a.events
    ]
    report = mean_ap(preds, gts, class_names=class_names)
    print(report.format_table())
    if args.out:
        report.save_json(args.out)
    return 0


_COMMANDS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "predict": cmd_predict,
    "eval": cmd_eval,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except SoundlocError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:   # an output that cannot be written
        print(f"error[io]: {exc}", file=sys.stderr)
        return FileFormatError.exit_code


if __name__ == "__main__":
    sys.exit(main())
