"""Parameter stores: dicts of named numpy arrays, and the flat training store.

Inference and checkpoints see a model as a plain ``{name: array}`` dict.
Training keeps the same arrays as views of one flat float32 buffer, beside a
gradient buffer of the same layout (:class:`ParamStore`), so that the
optimizer and gradient clipping run a few block passes over the buffers
instead of a dozen numpy calls per parameter.
"""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple

import numpy as np

from .autodiff import _BLOCK, Tape, Tensor


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


class ParamStore:
    """Parameters and their gradients as views of two flat float32 buffers.

    Both buffers share one layout: the parameters with two or more axes,
    which weight decay applies to, form a prefix of ``decayed`` elements,
    and within the prefix and the rest, parameters of equal size sit in
    runs (sorted by size, then in name order). ``arrays`` and ``grads`` map
    each name, in the order given, to its view of ``values`` and ``grad``;
    ``arrays`` serves everything that takes a parameter dict. ``blocks``
    cuts the buffers into pieces of at most ``2^15`` elements that do not
    cross the end of the prefix, for elementwise passes with block-sized
    scratch.
    """

    def __init__(self, arrays: Mapping[str, np.ndarray]):
        names = list(arrays)
        shapes = [np.shape(arrays[n]) for n in names]
        sizes = [math.prod(s) for s in shapes]
        layout = sorted(range(len(names)),
                        key=lambda i: (len(shapes[i]) < 2, sizes[i], i))
        self.values = np.empty(sum(sizes), dtype=np.float32)
        self.grad = np.zeros_like(self.values)
        self.decayed = sum(sizes[i] for i in layout if len(shapes[i]) >= 2)
        offset, rank, lo = [0] * len(names), [0] * len(names), 0
        for pos, i in enumerate(layout):
            offset[i], rank[i] = lo, pos
            lo += sizes[i]
        self.arrays = {}
        self.grads = {}
        for i, name in enumerate(names):
            span = slice(offset[i], offset[i] + sizes[i])
            self.arrays[name] = self.values[span].reshape(shapes[i])
            self.arrays[name][...] = arrays[name]
            self.grads[name] = self.grad[span].reshape(shapes[i])
        # (start, end, decayed) of each block
        self.blocks = [(lo, min(lo + _BLOCK, end), decayed)
                       for start, end, decayed in (
                           (0, self.decayed, True),
                           (self.decayed, self.values.size, False))
                       for lo in range(start, end, _BLOCK)]

        # clipping: each chunk is up to a scratch's worth of rows from one
        # same-size run, (buffer offset, rows, size, first layout position)
        self._square = np.empty(max([_BLOCK, *sizes]), dtype=np.float64)
        self._sums = np.empty(len(names), dtype=np.float64)
        self._chunks = []
        pos = 0
        while pos < len(layout):
            n = sizes[layout[pos]]
            rows = 1
            while (pos + rows < len(layout) and sizes[layout[pos + rows]] == n
                   and rows * n + n <= self._square.size):
                rows += 1
            self._chunks.append((offset[layout[pos]], rows, n, pos))
            pos += rows
        self._name_order = rank   # each name's layout position


def bind(tape: Tape, arrays: Mapping[str, np.ndarray] | ParamStore
         ) -> dict[str, Tensor]:
    """Register every parameter array as a differentiable leaf on ``tape``.

    A store's leaves take its gradient views as ``.grad``, after the buffer
    is zeroed, so backward adds every gradient into the store's buffer.
    """
    if not isinstance(arrays, ParamStore):
        return {name: tape.leaf(arr) for name, arr in arrays.items()}
    arrays.grad.fill(0.0)
    bound = {}
    for name, arr in arrays.arrays.items():
        bound[name] = leaf = tape.leaf(arr)
        leaf.grad = arrays.grads[name]
    return bound


def collect_grads(bound: Mapping[str, Tensor]) -> dict[str, np.ndarray]:
    """Gradients after backward; parameters not touched get zeros."""
    return {
        name: (t.grad if t.grad is not None else np.zeros_like(t.values))
        for name, t in bound.items()
    }


def clip_by_global_norm(store: ParamStore, max_norm: float) -> float:
    """Scale the store's gradients in place so their joint norm is at most
    max_norm.

    Returns the norm before clipping. Each parameter's sum of squares is
    its own pairwise float64 sum, one row of a same-size run's reduction,
    and the sums are added in name order: the norm is what summing the
    arrays one by one gives, to the bit. A non-finite norm leaves the
    gradients as they are, for the caller to reject.
    """
    grad, square, sums = store.grad, store._square, store._sums
    for lo, rows, n, pos in store._chunks:
        block = square[:rows * n].reshape(rows, n)
        np.square(grad[lo:lo + rows * n].reshape(rows, n), out=block,
                  dtype=np.float64)
        np.add.reduce(block, axis=1, out=sums[pos:pos + rows])
    per_param = sums.tolist()
    total = 0.0
    for pos in store._name_order:
        total += per_param[pos]
    norm = math.sqrt(total)
    if norm > max_norm and 0 < norm < math.inf:
        store.grad *= max_norm / norm
    return norm
