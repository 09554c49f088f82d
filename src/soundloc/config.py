"""Training configuration and its INI-style config file format.

The file mirrors the config dataclasses: flat ``key = value`` pairs inside
``[train]``, ``[model]``, ``[backbone]`` and ``[decode]`` sections. Unknown
sections or keys are rejected so typos cannot silently fall back to defaults.
"""

from __future__ import annotations

import configparser
from dataclasses import asdict, dataclass, field

from .backbone import BackboneConfig
from .errors import ConfigError
from .model import DecodeConfig, ModelConfig


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
        if min(self.learning_rate, self.weight_decay, self.grad_clip) < 0:
            raise ConfigError("learning_rate, weight_decay and grad_clip must be >= 0")
        if min(self.batch_size, self.epochs) < 1 or self.warmup_epochs < 0:
            raise ConfigError("batch_size and epochs must be positive")
        if self.epochs < self.warmup_epochs:
            raise ConfigError(
                f"epochs ({self.epochs}) must cover warmup_epochs "
                f"({self.warmup_epochs})")
        if self.lambda_reg < 0:
            raise ConfigError("lambda_reg must be >= 0")
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
        msa_residual=True,       # keep an identity path through the stack
    )
    model = ModelConfig(backbone=backbone, num_classes=5)
    return TrainConfig(
        learning_rate=2e-3,
        batch_size=2,
        epochs=20,
        warmup_epochs=2,
        model=model,
    )


_SECTIONS = ("train", "model", "backbone", "decode")


def _coerce(raw: str, current):
    if isinstance(current, bool):
        low = raw.strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"expected a boolean, got {raw!r}")
    if isinstance(current, int):
        return int(raw)
    if isinstance(current, float):
        return float(raw)
    if isinstance(current, tuple):
        return tuple(int(x) for x in raw.replace(",", " ").split())
    return raw


def load_config(path) -> TrainConfig:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")

    cfg = TrainConfig()
    targets = {
        "train": cfg,
        "model": cfg.model,
        "backbone": cfg.model.backbone,
        "decode": cfg.decode,
    }
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"{path}: unknown config section [{section}]")
        target = targets[section]
        for key, raw in parser.items(section):
            if not hasattr(target, key) or key in ("model", "decode", "backbone"):
                raise ConfigError(f"{path}: unknown key {key!r} in [{section}]")
            try:
                setattr(target, key, _coerce(raw, getattr(target, key)))
            except (ValueError, ConfigError) as exc:
                raise ConfigError(
                    f"{path}: bad value for {key!r} in [{section}]: {exc}") from exc
    cfg.validate()
    return cfg


def save_config(cfg: TrainConfig, path) -> None:
    parser = configparser.ConfigParser()
    sections = {
        "train": {k: v for k, v in asdict(cfg).items()
                  if k not in ("model", "decode")},
        "model": {k: v for k, v in asdict(cfg.model).items() if k != "backbone"},
        "backbone": asdict(cfg.model.backbone),
        "decode": asdict(cfg.decode),
    }
    for name, values in sections.items():
        parser[name] = {
            k: " ".join(str(x) for x in v) if isinstance(v, tuple) else str(v)
            for k, v in values.items()
        }
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)


def config_snapshot(cfg: TrainConfig) -> dict:
    """JSON-friendly dump of the full configuration."""
    return asdict(cfg)
