"""Training loop: Adam with decoupled weight decay, warmup + cosine schedule.

One optimization step packs its batch of videos into one sequence and
makes one pass of each kind over it: forward through backbone and heads,
target assignment, the combined focal/DIoU objective normalized by the
batch positive count, backward, global-norm clipping and a parameter
update. The tape's length does not grow with the batch size. Parameters,
gradients and AdamW's moments live in flat buffers of one layout
(``params.ParamStore``), so a step copies and allocates none of them, and
clipping and the update are block passes over the buffers. Everything is
seeded, so two runs with the same config produce identical loss
trajectories at one numpy build and one BLAS thread count, which the run
manifest records.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from . import autodiff as ad
from . import data as dio
from . import params as pr
from .config import TrainConfig, save_config
from .datasets import Dataset
from .decode import DecodeConfig, Interval
from .errors import NumericError, ValidationError
from .evaluate import mean_ap
from .losses import (
    assign_targets,
    join_assignments,
    loss_sums,
    objective,
)
from .model import (
    ModelConfig,
    forward_video,
    init_model_arrays,
    predict_intervals,
    save_checkpoint,
)


class AdamW:
    """Adam with decoupled weight decay over a store's flat buffers.

    Decay skips 1-D parameters. Both moments share the store's layout
    (``params.ParamStore``): the decayed parameters, those with two or more
    axes, form one prefix of every buffer, and parameters of equal size sit
    in runs. A step runs the per-array update's elementwise chain, in its
    operation order, over the store's blocks of 2^15 elements with
    block-sized scratch, so every value is what updating the parameters one
    array at a time gives, to the bit.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, store: pr.ParamStore, weight_decay: float = 0.0):
        self.store = store
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = np.zeros_like(store.values)
        self.v = np.zeros_like(store.values)
        width = max((hi - lo for lo, hi, _ in store.blocks), default=0)
        self._scratch = np.empty((2, width), dtype=np.float32)

    def step(self, lr: float) -> None:
        """Update the store's parameters from its gradients."""
        self.step_count += 1
        bc1 = 1.0 - self.beta1 ** self.step_count
        bc2 = 1.0 - self.beta2 ** self.step_count
        values, grad = self.store.values, self.store.grad
        for lo, hi, decayed in self.store.blocks:
            p, g = values[lo:hi], grad[lo:hi]
            m, v = self.m[lo:hi], self.v[lo:hi]
            t, u = self._scratch[:, :hi - lo]
            # m += (1 - beta1) * (g - m)
            np.subtract(g, m, out=t)
            t *= 1.0 - self.beta1
            m += t
            # v += (1 - beta2) * (g * g - v)
            np.multiply(g, g, out=t)
            t -= v
            t *= 1.0 - self.beta2
            v += t
            # update = (m / bc1) / (sqrt(v / bc2) + eps) [+ weight_decay * p]
            np.divide(v, bc2, out=u)
            np.sqrt(u, out=u)
            u += self.eps
            np.divide(m, bc1, out=t)
            t /= u
            if self.weight_decay and decayed:
                t += np.multiply(p, self.weight_decay, out=u)
            # p -= lr * update
            t *= lr
            p -= t


def lr_at(step: int, total_steps: int, warmup_steps: int, base_lr: float) -> float:
    """Linear warmup to base_lr, then cosine decay to zero."""
    if warmup_steps > 0 and step < warmup_steps:
        return base_lr * (step + 1) / warmup_steps
    span = max(1, total_steps - warmup_steps)
    progress = min(1.0, (step - warmup_steps) / span)
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * progress))


def _environment() -> dict:
    """What a run's bytes depend on beyond its config and seed: the numpy
    build and the BLAS thread settings (None when unset)."""
    return {"numpy_version": np.__version__,
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "cpu_count": os.cpu_count()}


@dataclass
class RunManifest:
    """Everything needed to reproduce and audit one training run."""

    config: dict
    code_version: str
    environment: dict = field(default_factory=_environment)
    epochs: list[dict] = field(default_factory=list)
    checkpoints: list[str] = field(default_factory=list)
    best_checkpoint: str = ""
    best_val_map: float = -1.0
    final_report: dict = field(default_factory=dict)
    wall_time_sec: float = 0.0

    def save(self, path) -> None:
        """Write the manifest with checkpoint paths relative to its directory.

        The in-memory paths stay as ``train`` made them, loadable from the
        caller's working directory; on disk they do not depend on ``out_dir``.
        """
        root = Path(path).parent
        doc = asdict(self)
        doc["checkpoints"] = [_relative(p, root) for p in self.checkpoints]
        doc["best_checkpoint"] = _relative(self.best_checkpoint, root)
        dio.write_json(doc, path)


def _relative(path: str, root: Path) -> str:
    return Path(path).relative_to(root).as_posix() if path else path


def train_step(params: dict[str, np.ndarray] | pr.ParamStore, cfg: ModelConfig,
               batch: list[str], dataset: Dataset,
               lambda_reg: float) -> tuple[dict[str, np.ndarray], dict]:
    """Forward/backward over one batch; returns gradients and loss scalars.

    The batch's videos go through the model as one packed sequence, and
    their targets are joined in the same row order for one loss. Given a
    store, the gradients are its gradient views, overwritten by the step.
    """
    tape = ad.Tape(dtype=np.float32)
    bound = pr.bind(tape, params)
    videos = sorted(batch)
    fused = [dataset.fused[vid] for vid in videos]
    points, head_out = forward_video(bound, cfg, [f.data for f in fused], tape)
    targets = [assign_targets(video_points, dataset.annotations[vid],
                              seq.stride_sec, cfg.num_classes)
               for vid, seq, video_points in zip(videos, fused, points)]
    sums = loss_sums(head_out, join_assignments(targets))
    loss, scalars = objective(*sums, lambda_reg)
    ad.backward(tape, loss)
    return pr.collect_grads(bound), scalars


def evaluate_on(arrays: dict[str, np.ndarray], cfg: ModelConfig,
                dataset: Dataset, video_ids: list[str],
                decode_cfg: DecodeConfig | None = None):
    """Predict the given videos and score them against their annotations.
    The decode settings and the video ids are checked first, also when
    there is no video."""
    dc = decode_cfg or DecodeConfig()
    dc.validate()
    for vid in video_ids:
        if vid not in dataset.fused or vid not in dataset.annotations:
            raise ValidationError(f"evaluation references unknown video {vid!r}")
    preds: list[Interval] = []
    gts: list[Interval] = []
    for vid in sorted(video_ids):
        preds.extend(predict_intervals(arrays, cfg, dataset.fused[vid], dc))
        ann = dataset.annotations[vid]
        for ev in ann.events:
            gts.append(Interval(vid, ev.label, 1.0, ev.start_sec, ev.end_sec))
    return mean_ap(preds, gts, class_names=dataset.class_names), preds


def train(cfg: TrainConfig, dataset: Dataset, out_dir) -> RunManifest:
    """Run the full optimization and return the populated manifest.

    Fits the ``train`` split and scores the ``val`` split, if there is one,
    after every epoch. Writes ``config.ini``, per-epoch checkpoints plus
    ``best.ckpt`` (highest validation mAP) and ``manifest.json`` under
    ``out_dir``, and deletes the epoch checkpoints of an earlier, longer run
    there. The config, the splits and the labels are checked first: a
    rejected run writes and deletes nothing.
    """
    cfg.validate()
    t0 = time.perf_counter()
    train_ids = dataset.videos("train")
    val_ids = dataset.videos("val") if "val" in dataset.splits else []
    if not train_ids:
        raise ValidationError("training split is empty")
    mcfg = cfg.model
    for vid in train_ids + val_ids:
        if vid not in dataset.fused:
            raise ValidationError(f"split references unknown video {vid!r}")
        if dataset.fused[vid].dim != mcfg.backbone.input_dim:
            raise ValidationError(
                f"video {vid!r} has feature dim {dataset.fused[vid].dim}, but "
                f"the model has input_dim {mcfg.backbone.input_dim}")
        for ev in dataset.annotations[vid].events:
            if ev.label >= mcfg.num_classes:
                raise ValidationError(
                    f"video {vid!r} has label {ev.label}, but the model has "
                    f"num_classes {mcfg.num_classes}")
    if val_ids and not any(dataset.annotations[vid].events for vid in val_ids):
        raise ValidationError(
            "validation split 'val' holds no ground-truth event, so it "
            "cannot be scored")

    out = Path(out_dir)
    ckpt_dir = out / "checkpoints"
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    ckpt_paths = [ckpt_dir / f"epoch_{e:03d}.ckpt" for e in range(cfg.epochs)]
    for stale in ckpt_dir.glob("epoch_*.ckpt"):
        if stale not in ckpt_paths:   # an earlier, longer run's epoch
            stale.unlink()
    save_config(cfg, out / "config.ini")
    store = pr.ParamStore(init_model_arrays(mcfg, cfg.seed))
    arrays = store.arrays
    optimizer = AdamW(store, weight_decay=cfg.weight_decay)
    rng = np.random.default_rng(cfg.seed)

    steps_per_epoch = math.ceil(len(train_ids) / cfg.batch_size)
    total_steps = steps_per_epoch * cfg.epochs
    warmup_steps = steps_per_epoch * cfg.warmup_epochs

    manifest = RunManifest(config=asdict(cfg), code_version=__version__)
    step = 0
    for epoch in range(cfg.epochs):
        order = list(train_ids)
        rng.shuffle(order)
        epoch_scalars, norms = [], []
        for bi, batch in enumerate(
                order[i:i + cfg.batch_size]
                for i in range(0, len(order), cfg.batch_size)):
            _, scalars = train_step(store, mcfg, batch, dataset, cfg.lambda_reg)
            where = (f"at epoch {epoch} batch {bi} "
                     f"(videos: {', '.join(sorted(batch))})")
            if not math.isfinite(scalars["total"]):
                raise NumericError(f"non-finite loss {where}: {scalars}")
            norm = pr.clip_by_global_norm(store, cfg.grad_clip)
            if not math.isfinite(norm):
                bad = next(n for n in sorted(store.grads)
                           if not np.isfinite(store.grads[n]).all())
                raise NumericError(
                    f"non-finite gradient norm {where}: parameter {bad!r} has "
                    f"a non-finite gradient")
            optimizer.step(lr_at(step, total_steps, warmup_steps,
                                 cfg.learning_rate))
            step += 1
            epoch_scalars.append(scalars)
            norms.append(norm)

        val_map = None
        if val_ids:
            report, _ = evaluate_on(arrays, mcfg, dataset, val_ids, cfg.decode)
            val_map = report.average_map

        save_checkpoint(arrays, ckpt_paths[epoch])
        manifest.checkpoints.append(str(ckpt_paths[epoch]))
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
            "grad_norm_max": max(norms),
            "clipped_steps": sum(norm > cfg.grad_clip for norm in norms),
            "val_map": val_map,
            "lr": lr_at(step - 1, total_steps, warmup_steps, cfg.learning_rate),
        })

    if val_ids:   # the last epoch scored the final weights
        manifest.final_report = report.to_dict()
    manifest.wall_time_sec = time.perf_counter() - t0
    manifest.save(out / "manifest.json")
    return manifest
