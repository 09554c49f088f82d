"""Helpers for parameter stores: plain dicts of named numpy arrays."""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple

import numpy as np

from .autodiff import Tape, Tensor


class ParamSpec(NamedTuple):
    """One parameter's shape and initial values: N(0, std^2) draws, or fill."""

    shape: tuple[int, ...]
    std: float | None = None
    fill: float = 0.0


def init_params(specs: Mapping[str, ParamSpec],
                rng: np.random.Generator) -> dict[str, np.ndarray]:
    """float32 arrays in table order, which is the order of the draws."""
    return {
        name: (np.full(s.shape, s.fill, dtype=np.float32) if s.std is None else
               rng.normal(0.0, s.std, size=s.shape).astype(np.float32))
        for name, s in specs.items()
    }


def bind(tape: Tape, arrays: Mapping[str, np.ndarray]) -> dict[str, Tensor]:
    """Register every parameter array as a differentiable leaf on ``tape``."""
    return {name: tape.leaf(arr) for name, arr in arrays.items()}


def collect_grads(bound: Mapping[str, Tensor]) -> dict[str, np.ndarray]:
    """Gradients after backward; parameters not touched get zeros."""
    return {
        name: (t.grad if t.grad is not None else np.zeros_like(t.values))
        for name, t in bound.items()
    }


def global_norm(grads: Mapping[str, np.ndarray]) -> float:
    total = 0.0
    for g in grads.values():
        total += float(np.sum(np.square(g, dtype=np.float64)))
    return float(np.sqrt(total))


def clip_by_global_norm(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients in place so their joint norm is at most max_norm.

    Returns the norm before clipping. A non-finite norm leaves the gradients
    as they are, for the caller to reject.
    """
    norm = global_norm(grads)
    if norm > max_norm and 0 < norm < math.inf:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return norm
