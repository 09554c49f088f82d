"""Training configuration and its INI-style config file format.

The file mirrors the config dataclasses: flat ``key = value`` pairs inside
``[train]``, ``[model]``, ``[backbone]`` and ``[decode]`` sections. Unknown
sections or keys are rejected so typos cannot silently fall back to defaults.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path

from .backbone import BackboneConfig
from .data import atomic_write
from .decode import DecodeConfig
from .errors import ConfigError, check_numbers
from .model import ModelConfig


@dataclass
class TrainConfig:
    """Optimization settings; defaults follow the full-scale recipe."""

    learning_rate: float = 1e-4
    batch_size: int = 2
    epochs: int = 35
    warmup_epochs: int = 5
    weight_decay: float = 0.05
    grad_clip: float = 1.0
    seed: int = 0
    lambda_reg: float = 1.0
    model: ModelConfig = field(default_factory=ModelConfig)
    decode: DecodeConfig = field(default_factory=DecodeConfig)

    def validate(self) -> None:
        check_numbers(self, reals=("learning_rate", "weight_decay", "grad_clip",
                                   "lambda_reg"),
                      counts=("batch_size", "epochs", "warmup_epochs", "seed"))
        # written as `not (ok)` so that NaN fails every check
        for key in ("learning_rate", "weight_decay", "lambda_reg"):
            value = getattr(self, key)
            if not 0 <= value < math.inf:
                raise ConfigError(f"{key} must be finite and >= 0, got {value}")
        if not 0 < self.grad_clip < math.inf:   # 0 would zero every update
            raise ConfigError(
                f"grad_clip must be finite and > 0, got {self.grad_clip}")
        if min(self.batch_size, self.epochs) < 1 or min(self.warmup_epochs, self.seed) < 0:
            raise ConfigError(
                "batch_size and epochs must be >= 1, warmup_epochs and seed >= 0")
        if self.epochs < self.warmup_epochs:
            raise ConfigError(
                f"epochs ({self.epochs}) must cover warmup_epochs "
                f"({self.warmup_epochs})")
        self.model.validate()
        self.decode.validate()


def desk_scale_config() -> TrainConfig:
    """Small configuration that trains in minutes on one CPU core."""
    backbone = BackboneConfig(
        input_dim=40,            # 32 visual + 8 audio
        d_model=64,
        num_blocks=5,
        window=11,
        num_heads=4,
        stride_schedule=(1, 1, 2, 2, 2),
    )
    model = ModelConfig(backbone=backbone, num_classes=5)
    return TrainConfig(
        learning_rate=2e-3,
        batch_size=2,
        epochs=20,
        warmup_epochs=2,
        model=model,
    )


def _sections(cfg: TrainConfig) -> dict:
    """The config object behind each section of the file, in file order."""
    return {"train": cfg, "model": cfg.model, "backbone": cfg.model.backbone,
            "decode": cfg.decode}


def _values(obj) -> dict:
    """A section's keys and values: its object's fields but the sections."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)
            if not is_dataclass(getattr(obj, f.name))}


def _coerce(raw: str, current):
    if isinstance(current, int):
        return int(raw)
    if isinstance(current, float):
        return float(raw)
    if isinstance(current, tuple):
        return tuple(int(x) for x in raw.replace(",", " ").split())
    return raw


def load_config(path) -> TrainConfig:
    # no header can name "\n", so [DEFAULT] is an unknown section, not defaults
    parser = configparser.ConfigParser(default_section="\n")
    try:
        parser.read_string(Path(path).read_text(encoding="utf-8"), str(path))
        sections = {name: parser.items(name) for name in parser.sections()}
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except (OSError, UnicodeDecodeError, configparser.Error) as exc:
        detail = " ".join(str(exc).split())   # one line, as the CLI prints it
        raise ConfigError(f"{path}: unreadable config file: {detail}") from exc

    cfg = TrainConfig()
    targets = _sections(cfg)
    for section, items in sections.items():
        if section not in targets:
            raise ConfigError(f"{path}: unknown config section [{section}]")
        target = targets[section]
        for key, raw in items:
            if (section, key) == ("backbone", "msa_residual"):
                # retired: every block adds the attention branch's input, and
                # the files saved while this was a flag hold `true`
                if raw.lower() not in ("1", "true", "yes", "on"):
                    raise ConfigError(
                        f"{path}: msa_residual = {raw} in [backbone] "
                        f"is no longer accepted: the block recurrence without "
                        f"the attention residual does not train; remove the "
                        f"key")
                continue
            if key not in _values(target):
                raise ConfigError(f"{path}: unknown key {key!r} in [{section}]")
            try:
                setattr(target, key, _coerce(raw, getattr(target, key)))
            except ValueError as exc:
                raise ConfigError(
                    f"{path}: bad value for {key!r} in [{section}]: {exc}") from exc
    cfg.validate()
    return cfg


def save_config(cfg: TrainConfig, path) -> None:
    parser = configparser.ConfigParser()
    for name, obj in _sections(cfg).items():
        parser[name] = {
            k: " ".join(str(x) for x in v) if isinstance(v, tuple) else str(v)
            for k, v in _values(obj).items()
        }
    with atomic_write(path, "w") as fh:
        parser.write(fh)
