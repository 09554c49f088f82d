"""Per-array AdamW and global-norm clipping, the oracles of the flat store.

Training used to update and clip its parameters one array at a time, about
sixteen numpy calls per parameter for AdamW and three for the norm. It now
runs both as block passes over ``params.ParamStore``'s flat buffers; these
are the per-array versions, which the store must match to the bit.
"""

import math

import numpy as np


class AdamW:
    """Adam with decoupled weight decay; decay skips 1-D parameters."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, arrays, weight_decay=0.0):
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = {k: np.zeros_like(v) for k, v in arrays.items()}
        self.v = {k: np.zeros_like(v) for k, v in arrays.items()}

    def step(self, arrays, grads, lr):
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


def global_norm(grads):
    total = 0.0
    for g in grads.values():
        total += float(np.sum(np.square(g, dtype=np.float64)))
    return float(np.sqrt(total))


def clip_by_global_norm(grads, max_norm):
    """Scale all gradients in place so their joint norm is at most max_norm;
    returns the norm before clipping, and a non-finite one scales nothing."""
    norm = global_norm(grads)
    if norm > max_norm and 0 < norm < math.inf:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return norm
