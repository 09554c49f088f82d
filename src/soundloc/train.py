"""Training loop: Adam with decoupled weight decay, warmup + cosine schedule.

One optimization step processes a batch of videos on a single tape: forward
through backbone and heads, target assignment, the combined focal/DIoU
objective normalized by the batch positive count, backward, global-norm
clipping and a parameter update. Everything is seeded, so two runs with the
same config produce identical loss trajectories on the same platform.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from . import autodiff as ad
from . import params as pr
from .config import TrainConfig, config_snapshot
from .datasets import Dataset
from .decode import Interval
from .errors import NumericError, ValidationError
from .evaluate import mean_ap
from .losses import Assignment, assign_targets, loss_sums
from .model import (
    DecodeConfig,
    ModelConfig,
    forward_video,
    init_model_arrays,
    predict_intervals,
    save_checkpoint,
)


class AdamW:
    """Adam with decoupled weight decay; decay skips 1-D parameters."""

    def __init__(self, arrays: dict[str, np.ndarray], weight_decay: float = 0.0,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.weight_decay = weight_decay
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.step_count = 0
        self.m = {k: np.zeros_like(v) for k, v in arrays.items()}
        self.v = {k: np.zeros_like(v) for k, v in arrays.items()}

    def step(self, arrays: dict[str, np.ndarray],
             grads: dict[str, np.ndarray], lr: float) -> None:
        self.step_count += 1
        bc1 = 1.0 - self.beta1 ** self.step_count
        bc2 = 1.0 - self.beta2 ** self.step_count
        for name, p in arrays.items():
            g = grads[name].astype(p.dtype, copy=False)
            m = self.m[name]
            v = self.v[name]
            m += (1.0 - self.beta1) * (g - m)
            v += (1.0 - self.beta2) * (g * g - v)
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            if self.weight_decay and p.ndim >= 2:
                update = update + self.weight_decay * p
            p -= (lr * update).astype(p.dtype, copy=False)


def lr_at(step: int, total_steps: int, warmup_steps: int, base_lr: float) -> float:
    """Linear warmup to base_lr, then cosine decay to zero."""
    if warmup_steps > 0 and step < warmup_steps:
        return base_lr * (step + 1) / warmup_steps
    span = max(1, total_steps - warmup_steps)
    progress = min(1.0, (step - warmup_steps) / span)
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * progress))


@dataclass
class RunManifest:
    """Everything needed to reproduce and audit one training run."""

    config: dict
    code_version: str
    epochs: list[dict] = field(default_factory=list)
    checkpoints: list[str] = field(default_factory=list)
    best_checkpoint: str = ""
    best_val_map: float = -1.0
    final_report: dict = field(default_factory=dict)
    wall_time_sec: float = 0.0

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")


def train_step(arrays: dict[str, np.ndarray], cfg: ModelConfig,
               batch: list[str], dataset: Dataset,
               assignments: dict[str, Assignment],
               lambda_reg: float) -> tuple[dict[str, np.ndarray], dict]:
    """Forward/backward over one batch; returns gradients and loss scalars."""
    tape = ad.Tape(dtype=np.float32)
    bound = pr.bind(tape, arrays)

    cls_total = tape.constant(0.0)
    reg_total = tape.constant(0.0)
    t_plus = 0
    for vid in sorted(batch):
        fused = dataset.fused[vid]
        _, points, head_out = forward_video(bound, cfg, fused.data, tape)
        if vid not in assignments:
            assignments[vid] = assign_targets(
                points, dataset.annotations[vid], fused.stride_sec,
                cfg.num_classes, valid_masks=head_out.valid_masks)
        cls_sum, reg_sum, video_pos = loss_sums(head_out, assignments[vid])
        cls_total = ad.add(cls_total, cls_sum)
        reg_total = ad.add(reg_total, reg_sum)
        t_plus += video_pos

    denom = tape.constant(float(max(t_plus, 1)))
    loss = ad.div(ad.add(cls_total,
                         ad.mul(tape.constant(lambda_reg), reg_total)), denom)
    ad.backward(tape, loss)
    tape.clear()   # no cycle left: reference counting frees the step's tape
    scalars = {
        "total": float(loss.values),
        "l_cls": float(cls_total.values),
        "l_reg": float(reg_total.values),
        "t_plus": t_plus,
    }
    return pr.collect_grads(bound), scalars


def evaluate_on(arrays: dict[str, np.ndarray], cfg: ModelConfig,
                dataset: Dataset, video_ids: list[str],
                decode_cfg: DecodeConfig | None = None):
    """Predict the given videos and score them against their annotations."""
    preds: list[Interval] = []
    gts: list[Interval] = []
    for vid in sorted(video_ids):
        preds.extend(predict_intervals(arrays, cfg, dataset.fused[vid], decode_cfg))
        ann = dataset.annotations[vid]
        for ev in ann.events:
            gts.append(Interval(vid, ev.label, 1.0, ev.start_sec, ev.end_sec))
    return mean_ap(preds, gts, class_names=dataset.class_names), preds


def train(cfg: TrainConfig, dataset: Dataset, out_dir,
          train_split: str = "train", val_split: str = "val") -> RunManifest:
    """Run the full optimization and return the populated manifest.

    Writes per-epoch checkpoints plus ``best.ckpt`` (highest validation mAP)
    and ``manifest.json`` under ``out_dir``.
    """
    cfg.validate()
    t0 = time.perf_counter()
    out = Path(out_dir)
    ckpt_dir = out / "checkpoints"
    ckpt_dir.mkdir(parents=True, exist_ok=True)

    train_ids = dataset.videos(train_split)
    val_ids = dataset.videos(val_split) if val_split in dataset.splits else []
    if not train_ids:
        raise ValidationError("training split is empty")
    for vid in train_ids + val_ids:
        if vid not in dataset.fused:
            raise ValidationError(f"split references unknown video {vid!r}")

    mcfg = cfg.model
    arrays = init_model_arrays(mcfg, cfg.seed)
    optimizer = AdamW(arrays, weight_decay=cfg.weight_decay)
    rng = np.random.default_rng(cfg.seed)

    steps_per_epoch = math.ceil(len(train_ids) / cfg.batch_size)
    total_steps = steps_per_epoch * cfg.epochs
    warmup_steps = steps_per_epoch * cfg.warmup_epochs

    manifest = RunManifest(config=config_snapshot(cfg), code_version=__version__)
    assignments: dict[str, Assignment] = {}
    step = 0
    for epoch in range(cfg.epochs):
        order = list(train_ids)
        rng.shuffle(order)
        epoch_scalars = []
        for bi, batch in enumerate(
                order[i:i + cfg.batch_size]
                for i in range(0, len(order), cfg.batch_size)):
            grads, scalars = train_step(arrays, mcfg, batch, dataset,
                                        assignments, cfg.lambda_reg)
            if not math.isfinite(scalars["total"]):
                raise NumericError(
                    f"non-finite loss at epoch {epoch} batch {bi} "
                    f"(videos: {', '.join(sorted(batch))}): {scalars}")
            pr.clip_by_global_norm(grads, cfg.grad_clip)
            optimizer.step(arrays, grads, lr_at(step, total_steps,
                                                warmup_steps, cfg.learning_rate))
            step += 1
            epoch_scalars.append(scalars)

        val_map = None
        if val_ids:
            report, _ = evaluate_on(arrays, mcfg, dataset, val_ids, cfg.decode)
            val_map = report.average_map

        ckpt_path = ckpt_dir / f"epoch_{epoch:03d}.ckpt"
        save_checkpoint(arrays, ckpt_path)
        manifest.checkpoints.append(str(ckpt_path))
        if val_map is None or val_map >= manifest.best_val_map:
            manifest.best_val_map = -1.0 if val_map is None else val_map
            manifest.best_checkpoint = str(ckpt_dir / "best.ckpt")
            save_checkpoint(arrays, ckpt_dir / "best.ckpt")

        n = len(epoch_scalars)
        manifest.epochs.append({
            "epoch": epoch,
            "mean_total": math.fsum(s["total"] for s in epoch_scalars) / n,
            "mean_cls": math.fsum(s["l_cls"] for s in epoch_scalars) / n,
            "mean_reg": math.fsum(s["l_reg"] for s in epoch_scalars) / n,
            "t_plus": int(sum(s["t_plus"] for s in epoch_scalars)),
            "val_map": val_map,
            "lr": lr_at(step - 1, total_steps, warmup_steps, cfg.learning_rate),
        })

    if val_ids:
        report, _ = evaluate_on(arrays, mcfg, dataset, val_ids, cfg.decode)
        manifest.final_report = report.to_dict()
    manifest.wall_time_sec = time.perf_counter() - t0
    manifest.save(out / "manifest.json")
    return manifest
