"""Reverse-mode automatic differentiation over dense numpy arrays.

Eager, tape-based: every operation computes its value immediately and appends
a backward closure to the owning :class:`Tape`. :func:`backward` replays the
tape in exact reverse order, so gradients are exact up to floating point.
A tape made with ``record=False`` keeps no closures, for inference.
A tape and its tensors belong to a single thread; independent tapes may run
concurrently because there is no shared mutable state.

Besides elementwise ops, reductions and shape ops, the network primitives
include :func:`local_attention`: windowed multi-head attention computed on a
band of key offsets, linear in sequence length, with a hand-written backward.

Values are float32 by default; gradient checking always runs in float64.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, EmptyInputError, ShapeError

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


class Tensor:
    """Dense array (rank <= 3) tracked on a tape.

    Leaves created with ``requires_grad=True`` receive accumulated gradients
    in ``.grad`` after :func:`backward`; intermediate results do not retain
    gradients.
    """

    __slots__ = ("values", "grad", "tape", "node_id", "is_leaf", "requires_grad")

    def __init__(self, values: np.ndarray, tape: "Tape", node_id: int,
                 is_leaf: bool, requires_grad: bool):
        if values.ndim > 3:
            raise ShapeError(f"tensors are limited to rank 3, got shape {values.shape}")
        self.values = values
        self.grad: Optional[np.ndarray] = None
        self.tape = tape
        self.node_id = node_id
        self.is_leaf = is_leaf
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple:
        return self.values.shape

    def item(self) -> float:
        return float(self.values)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.values.shape}, leaf={self.is_leaf})"

    # operator sugar; scalars and arrays are coerced to constants on the tape
    def __add__(self, other):
        return add(self, self.tape.as_tensor(other))

    def __radd__(self, other):
        return add(self.tape.as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, self.tape.as_tensor(other))

    def __rsub__(self, other):
        return sub(self.tape.as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, self.tape.as_tensor(other))

    def __rmul__(self, other):
        return mul(self.tape.as_tensor(other), self)

    def __truediv__(self, other):
        return div(self, self.tape.as_tensor(other))

    def __rtruediv__(self, other):
        return div(self.tape.as_tensor(other), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


class Tape:
    """Ordered record of executed operations.

    Topological order holds by construction: an op's inputs were produced by
    earlier ops or are leaves, and :func:`backward` walks the record in exact
    reverse order.

    A tape made with ``record=False`` serves a forward pass that needs no
    gradients: every op still computes its value and goes through
    :meth:`record`, which keeps no backward closure, so the pass holds no
    intermediate arrays and no reference cycles. :func:`backward` refuses
    such a tape.
    """

    def __init__(self, dtype=np.float32, record: bool = True):
        self.dtype = np.dtype(dtype)
        self.recording = record
        self._nodes: list[tuple[Tensor, Callable]] = []
        self._next_id = 0

    def _new_tensor(self, values: np.ndarray, is_leaf: bool, requires_grad: bool) -> Tensor:
        t = Tensor(values, self, self._next_id, is_leaf, requires_grad)
        self._next_id += 1
        return t

    def leaf(self, values, requires_grad: bool = True) -> Tensor:
        """Register a leaf (input or parameter) on this tape."""
        arr = np.asarray(values, dtype=self.dtype)
        return self._new_tensor(arr, is_leaf=True, requires_grad=requires_grad)

    def constant(self, values) -> Tensor:
        """Register a non-differentiable constant."""
        return self.leaf(values, requires_grad=False)

    def as_tensor(self, value) -> Tensor:
        if isinstance(value, Tensor):
            if value.tape is not self:
                raise ShapeError("tensors from different tapes cannot be combined")
            return value
        return self.constant(value)

    def record(self, out_values: np.ndarray, bwd: Callable) -> Tensor:
        out = self._new_tensor(out_values, is_leaf=False, requires_grad=True)
        if self.recording:
            self._nodes.append((out, bwd))
        return out

    def clear(self) -> None:
        """Drop every record; the tensors keep their values.

        Records and tensors refer to each other, so a used tape is cyclic
        garbage that waits for the cyclic collector. Clearing it after the
        backward pass lets reference counting free it at once.
        """
        self._nodes.clear()


def backward(tape: Tape, loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into every leaf's ``.grad``.

    ``loss`` must be a scalar on ``tape``. Repeated calls without clearing
    leaf grads accumulate (gradients add linearly).
    """
    if not tape.recording:
        raise ShapeError("backward needs a recording tape; this one was made "
                         "with record=False")
    if loss.tape is not tape:
        raise ShapeError("loss does not belong to this tape")
    if loss.values.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.values.shape}")

    # transient grads for intermediates, keyed by node id
    pending: dict[int, np.ndarray] = {loss.node_id: np.ones_like(loss.values)}

    def accumulate(t: Tensor, g: np.ndarray) -> None:
        if t.is_leaf:
            if t.requires_grad:
                if t.grad is None:
                    t.grad = np.zeros_like(t.values)
                t.grad += g
        else:
            if t.node_id in pending:
                pending[t.node_id] = pending[t.node_id] + g
            else:
                pending[t.node_id] = np.array(g, copy=True)

    if loss.is_leaf:
        # d(loss)/d(loss) = 1 even for a bare leaf
        accumulate(loss, np.ones_like(loss.values))
        return

    for out, bwd in reversed(tape._nodes):
        g = pending.pop(out.node_id, None)
        if g is None:
            continue
        bwd(g, accumulate)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient over broadcast dimensions back to `shape`."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def _same_tape(*tensors: Tensor) -> Tape:
    tape = tensors[0].tape
    for t in tensors[1:]:
        if t.tape is not tape:
            raise ShapeError("tensors from different tapes cannot be combined")
    return tape


# ---------------------------------------------------------------------------
# elementwise ops (broadcasting per numpy rules)

def add(a: Tensor, b: Tensor) -> Tensor:
    tape = _same_tape(a, b)
    out = a.values + b.values

    def bwd(g, acc):
        acc(a, _unbroadcast(g, a.values.shape))
        acc(b, _unbroadcast(g, b.values.shape))

    return tape.record(out, bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    tape = _same_tape(a, b)
    out = a.values - b.values

    def bwd(g, acc):
        acc(a, _unbroadcast(g, a.values.shape))
        acc(b, _unbroadcast(-g, b.values.shape))

    return tape.record(out, bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    tape = _same_tape(a, b)
    out = a.values * b.values

    def bwd(g, acc):
        acc(a, _unbroadcast(g * b.values, a.values.shape))
        acc(b, _unbroadcast(g * a.values, b.values.shape))

    return tape.record(out, bwd)


def div(a: Tensor, b: Tensor) -> Tensor:
    tape = _same_tape(a, b)
    out = a.values / b.values

    def bwd(g, acc):
        acc(a, _unbroadcast(g / b.values, a.values.shape))
        acc(b, _unbroadcast(-g * a.values / (b.values * b.values), b.values.shape))

    return tape.record(out, bwd)


def neg(a: Tensor) -> Tensor:
    def bwd(g, acc):
        acc(a, -g)

    return a.tape.record(-a.values, bwd)


def minimum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise min; ties route the gradient to the first argument."""
    tape = _same_tape(a, b)
    take_a = a.values <= b.values
    out = np.where(take_a, a.values, b.values)

    def bwd(g, acc):
        acc(a, _unbroadcast(g * take_a, a.values.shape))
        acc(b, _unbroadcast(g * ~take_a, b.values.shape))

    return tape.record(out, bwd)


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise max; ties route the gradient to the first argument."""
    tape = _same_tape(a, b)
    take_a = a.values >= b.values
    out = np.where(take_a, a.values, b.values)

    def bwd(g, acc):
        acc(a, _unbroadcast(g * take_a, a.values.shape))
        acc(b, _unbroadcast(g * ~take_a, b.values.shape))

    return tape.record(out, bwd)


def relu(a: Tensor) -> Tensor:
    keep = a.values > 0

    def bwd(g, acc):
        acc(a, g * keep)

    return a.tape.record(a.values * keep, bwd)


def gelu(a: Tensor) -> Tensor:
    """Tanh approximation, so independent builds agree to ~1e-6."""
    x = a.values
    inner = _GELU_C * (x + _GELU_A * (x * x * x))   # x ** 3 is slow on float32
    th = np.tanh(inner)
    out = 0.5 * x * (1.0 + th)

    def bwd(g, acc):
        sech2 = 1.0 - th * th
        d_inner = _GELU_C * (1.0 + 3.0 * _GELU_A * x * x)
        acc(a, g * (0.5 * (1.0 + th) + 0.5 * x * sech2 * d_inner))

    return a.tape.record(out, bwd)


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(a: Tensor) -> Tensor:
    s = _stable_sigmoid(a.values)

    def bwd(g, acc):
        acc(a, g * s * (1.0 - s))

    return a.tape.record(s, bwd)


def softplus(a: Tensor) -> Tensor:
    """log(1 + e^x), computed as logaddexp(0, x) for stability."""
    out = np.logaddexp(np.zeros_like(a.values), a.values)

    def bwd(g, acc):
        acc(a, g * _stable_sigmoid(a.values))

    return a.tape.record(out, bwd)


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.values)

    def bwd(g, acc):
        acc(a, g * out)

    return a.tape.record(out, bwd)


def log(a: Tensor) -> Tensor:
    """Natural log; the domain restriction (x > 0) is the caller's contract."""
    def bwd(g, acc):
        acc(a, g / a.values)

    return a.tape.record(np.log(a.values), bwd)


def pow_const(a: Tensor, p: float) -> Tensor:
    """a ** p for a fixed real exponent."""
    out = a.values ** p

    def bwd(g, acc):
        acc(a, g * p * a.values ** (p - 1.0))

    return a.tape.record(out, bwd)


def square(a: Tensor) -> Tensor:
    def bwd(g, acc):
        acc(a, g * 2.0 * a.values)

    return a.tape.record(a.values * a.values, bwd)


# ---------------------------------------------------------------------------
# reductions and shape ops

def sum_all(a: Tensor) -> Tensor:
    out = np.asarray(a.values.sum(), dtype=a.values.dtype)

    def bwd(g, acc):
        acc(a, np.full_like(a.values, float(g)))

    return a.tape.record(out, bwd)


def mean_all(a: Tensor) -> Tensor:
    n = a.values.size
    out = np.asarray(a.values.mean(), dtype=a.values.dtype)

    def bwd(g, acc):
        acc(a, np.full_like(a.values, float(g) / n))

    return a.tape.record(out, bwd)


def transpose(a: Tensor) -> Tensor:
    if a.values.ndim != 2:
        raise ShapeError(f"transpose expects a matrix, got shape {a.values.shape}")

    def bwd(g, acc):
        acc(a, g.T)

    return a.tape.record(np.ascontiguousarray(a.values.T), bwd)


def reshape(a: Tensor, shape) -> Tensor:
    def bwd(g, acc):
        acc(a, g.reshape(a.values.shape))

    return a.tape.record(a.values.reshape(shape).copy(), bwd)


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    if a.values.ndim != 2:
        raise ShapeError(f"slice_cols expects a matrix, got shape {a.values.shape}")

    def bwd(g, acc):
        full = np.zeros_like(a.values)
        full[:, start:stop] = g
        acc(a, full)

    return a.tape.record(a.values[:, start:stop].copy(), bwd)


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    if not parts:
        raise EmptyInputError("concat_cols needs at least one tensor")
    tape = _same_tape(*parts)
    widths = [p.values.shape[1] for p in parts]
    out = np.concatenate([p.values for p in parts], axis=1)

    def bwd(g, acc):
        col = 0
        for p, w in zip(parts, widths):
            acc(p, g[:, col:col + w])
            col += w

    return tape.record(out, bwd)


# ---------------------------------------------------------------------------
# linear algebra / network primitives

def matmul(a: Tensor, b: Tensor) -> Tensor:
    tape = _same_tape(a, b)
    if a.values.ndim != 2 or b.values.ndim != 2 or a.values.shape[1] != b.values.shape[0]:
        raise ShapeError(
            f"matmul shape mismatch: {a.values.shape} x {b.values.shape}")
    out = a.values @ b.values

    def bwd(g, acc):
        acc(a, g @ b.values.T)
        acc(b, a.values.T @ g)

    return tape.record(out, bwd)


def conv1d(x: Tensor, kernel: Tensor, stride: int = 1) -> Tensor:
    """1D convolution over time with symmetric zero padding ("same").

    ``x`` is (T, C_in), ``kernel`` is (k, C_in, C_out) with odd k, stride is
    1 or 2. Output length is ceil(T / stride); output position i is centred
    on input position i * stride.
    """
    tape = _same_tape(x, kernel)
    if x.values.ndim != 2:
        raise ShapeError(f"conv1d input must be (T, C_in), got {x.values.shape}")
    if kernel.values.ndim != 3:
        raise ShapeError(f"conv1d kernel must be (k, C_in, C_out), got {kernel.values.shape}")
    k, c_in, c_out = kernel.values.shape
    t_in, x_c = x.values.shape
    if k % 2 == 0:
        raise ConfigError(f"conv1d kernel width must be odd, got {k}")
    if stride not in (1, 2):
        raise ConfigError(f"conv1d stride must be 1 or 2, got {stride}")
    if t_in == 0:
        raise EmptyInputError("conv1d input has zero timesteps")
    if x_c != c_in:
        raise ShapeError(f"conv1d channel mismatch: input {x_c}, kernel expects {c_in}")

    pad = k // 2
    t_out = -(-t_in // stride)  # ceil division
    x_pad = np.zeros((t_in + 2 * pad, c_in), dtype=x.values.dtype)
    x_pad[pad:pad + t_in] = x.values
    # gather windows: cols[i, j, :] = x_pad[i*stride + j, :]
    idx = (np.arange(t_out) * stride)[:, None] + np.arange(k)[None, :]
    cols = x_pad[idx]                                    # (t_out, k, c_in)
    cols2d = cols.reshape(t_out, k * c_in)
    w2d = kernel.values.reshape(k * c_in, c_out)
    out = cols2d @ w2d

    def bwd(g, acc):
        acc(kernel, (cols2d.T @ g).reshape(k, c_in, c_out))
        d_cols = (g @ w2d.T).reshape(t_out, k, c_in)
        d_pad = np.zeros_like(x_pad)
        np.add.at(d_pad, idx, d_cols)
        acc(x, d_pad[pad:pad + t_in])

    return tape.record(out, bwd)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-timestep normalization over features, population variance."""
    tape = _same_tape(x, gamma, beta)
    if x.values.ndim != 2:
        raise ShapeError(f"layer_norm input must be (T, D), got {x.values.shape}")
    d = x.values.shape[1]
    if gamma.values.shape != (d,) or beta.values.shape != (d,):
        raise ShapeError(
            f"layer_norm affine params must have shape ({d},), got "
            f"{gamma.values.shape} and {beta.values.shape}")
    if eps <= 0:
        raise ConfigError(f"layer_norm eps must be positive, got {eps}")

    mu = x.values.mean(axis=1, keepdims=True)
    centered = x.values - mu
    var = (centered * centered).mean(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    out = xhat * gamma.values + beta.values

    def bwd(g, acc):
        acc(beta, g.sum(axis=0))
        acc(gamma, (g * xhat).sum(axis=0))
        gx = g * gamma.values
        acc(x, inv_std * (gx - gx.mean(axis=1, keepdims=True)
                          - xhat * (gx * xhat).mean(axis=1, keepdims=True)))

    return tape.record(out, bwd)


def softmax_lastdim(x: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
    """Softmax over the last axis; masked-out entries are exactly zero.

    ``mask`` is a boolean array broadcastable to x's shape, True = keep.
    A row with no surviving entry signals a malformed attention window.
    """
    v = x.values
    if mask is not None:
        mask = np.broadcast_to(np.asarray(mask, dtype=bool), v.shape)
        if not mask.any(axis=-1).all():
            raise ShapeError("softmax row has every entry masked")
        shifted = np.where(mask, v, -np.inf)
    else:
        shifted = v
    m = shifted.max(axis=-1, keepdims=True)
    e = np.exp(shifted - m)
    if mask is not None:
        e = np.where(mask, e, 0.0)
    y = e / e.sum(axis=-1, keepdims=True)

    def bwd(g, acc):
        dot = (g * y).sum(axis=-1, keepdims=True)
        acc(x, y * (g - dot))

    return x.tape.record(y, bwd)


def local_attention(q: Tensor, k: Tensor, v: Tensor, window: int,
                    valid: np.ndarray, num_heads: int) -> Tensor:
    """Multi-head scaled dot-product attention within a sliding window.

    ``q``, ``k`` and ``v`` are (T, D); head h owns columns
    [h * D/H, (h + 1) * D/H). Query i attends key j = i + o - window // 2,
    o in [0, window), when 0 <= j < T and ``valid[j]``; it always attends
    itself, so no row is ever fully masked. Scores, softmax weights and the
    weighted sum live on a (w, T, H) band, one slice per key offset, and the
    backward pass reuses it: time and memory grow linearly in T, and the
    whole attention is one tape record.
    """
    tape = _same_tape(q, k, v)
    if window < 1 or window % 2 == 0:
        raise ConfigError(f"attention window must be odd and positive, got {window}")
    if q.values.ndim != 2 or k.values.shape != q.values.shape \
            or v.values.shape != q.values.shape:
        raise ShapeError(
            f"local_attention needs equal (T, D) inputs, got {q.values.shape}, "
            f"{k.values.shape} and {v.values.shape}")
    t, d = q.values.shape
    if t == 0:
        raise EmptyInputError("local_attention input has zero timesteps")
    if num_heads < 1 or d % num_heads != 0:
        raise ConfigError(f"width {d} not divisible by {num_heads} heads")
    valid = np.asarray(valid, dtype=bool)
    if valid.shape != (t,):
        raise ShapeError(f"valid mask must have shape ({t},), got {valid.shape}")

    heads = (t, num_heads, d // num_heads)
    r = min(window // 2, t - 1)   # farther offsets reach no key
    w = 2 * r + 1
    dt = np.result_type(q.values, k.values, v.values)
    scale = dt.type(1.0 / np.sqrt(heads[2]))
    q3 = q.values.reshape(heads)
    k_pad = np.zeros((t + 2 * r,) + heads[1:], dtype=dt)
    k_pad[r:r + t] = k.values.reshape(heads)
    v_pad = np.zeros((t + 2 * r,) + heads[1:], dtype=dt)
    v_pad[r:r + t] = v.values.reshape(heads)
    # keep[o, i]: query i may attend key i + o - r
    ok = np.zeros(t + 2 * r, dtype=bool)
    ok[r:r + t] = valid
    keep = np.lib.stride_tricks.sliding_window_view(ok, t).copy()
    keep[r] = True
    keep = keep[:, :, None]

    scores = np.empty((w, t, num_heads), dtype=dt)
    for o in range(w):
        np.einsum("thd,thd->th", q3, k_pad[o:o + t], out=scores[o])
    shifted = np.where(keep, scores * scale, -np.inf)
    e = np.exp(shifted - shifted.max(axis=0))
    y = e / e.sum(axis=0)
    out = np.zeros(heads, dtype=dt)
    for o in range(w):
        out += y[o][:, :, None] * v_pad[o:o + t]

    def bwd(g, acc):
        g3 = g.reshape(heads)
        gt = np.result_type(g3, dt)
        dy = np.empty(y.shape, dtype=gt)
        d_v = np.zeros(v_pad.shape, dtype=gt)
        for o in range(w):
            np.einsum("thd,thd->th", g3, v_pad[o:o + t], out=dy[o])
            d_v[o:o + t] += y[o][:, :, None] * g3
        ds = y * (dy - (dy * y).sum(axis=0)) * scale
        d_q = np.zeros(heads, dtype=gt)
        d_k = np.zeros(k_pad.shape, dtype=gt)
        for o in range(w):
            ds_o = ds[o][:, :, None]
            d_q += ds_o * k_pad[o:o + t]
            d_k[o:o + t] += ds_o * q3
        acc(q, d_q.reshape(t, d))
        acc(k, d_k[r:r + t].reshape(t, d))
        acc(v, d_v[r:r + t].reshape(t, d))

    return tape.record(out.reshape(t, d), bwd)


# ---------------------------------------------------------------------------
# gradient checking

def grad_check(f: Callable[[Tensor], Tensor], x, h: float = 1e-5) -> float:
    """Max relative error between reverse-mode and central-difference grads.

    ``f`` maps one tensor to a scalar tensor and must build its graph on the
    tape of its argument. Runs entirely in float64. The error measure is
    |analytic - numeric| / max(1, |analytic|), maximized over coordinates.
    """
    x0 = np.asarray(x, dtype=np.float64)

    tape = Tape(dtype=np.float64)
    leaf = tape.leaf(x0)
    out = f(leaf)
    backward(tape, out)
    analytic = leaf.grad if leaf.grad is not None else np.zeros_like(x0)

    def value_at(arr: np.ndarray) -> float:
        t = Tape(dtype=np.float64)
        return float(f(t.leaf(arr)).values)

    worst = 0.0
    flat = x0.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = value_at(x0)
        flat[i] = orig - h
        down = value_at(x0)
        flat[i] = orig
        numeric = (up - down) / (2.0 * h)
        a = analytic.reshape(-1)[i]
        worst = max(worst, abs(a - numeric) / max(1.0, abs(a)))
    return worst
