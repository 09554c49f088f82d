"""Reverse-mode automatic differentiation over dense numpy arrays.

Eager, tape-based: every operation computes its value immediately and appends
a backward closure to the owning :class:`Tape`. :func:`backward` replays the
tape in exact reverse order, so gradients are exact up to floating point.
It consumes the tape: each record, with the arrays its closure saved, is
freed as soon as the closure has run, so a record serves one backward pass.
A tape made with ``record=False`` keeps no closures, for inference.
A tape and its tensors belong to a single thread; independent tapes may run
concurrently because there is no shared mutable state.

Besides elementwise ops, reductions and shape ops, the network primitives
include :func:`local_attention`: windowed multi-head attention computed on a
band of key offsets, linear in sequence length, with a hand-written backward.
Every offset is handled by the same array op: the keys and values of the
whole band are gathered into one array, and each product is one einsum
over it, forward and backward.
:func:`matmul` and :func:`conv1d` take an optional bias, so a layer is one
record, and compute no gradient for an operand that is a constant leaf (such
as the input features under the first convolution).

The two windowed primitives, :func:`conv1d` and :func:`local_attention`,
take ``segments``: several sequences packed end to end, given by their row
counts. No window crosses a segment boundary, so a batch of sequences (or
the levels of a pyramid) costs one record per layer, whatever its size.
Where every window falls comes from one cached plan: per offset, the strided
slices of rows it reads and the rows it must leave at zero. The plans are
shared by every call with the same segments, so their arrays are read-only.

An op allocates its output and what backward keeps; every other temporary
is at most one block. Fresh arrays above glibc's mmap threshold (128 KiB
and up) come from the allocator as new pages, and the page faults on first
touch cost more than the arithmetic on them; a block-sized scratch is
reused from the heap and stays in cache. So temporaries are computed in
place (``out=``, ``+=``, ``*=``), and :func:`gelu` runs its elementwise
chain over blocks of ``_BLOCK`` elements, in the original operation order,
so values are bit-identical to the plain expressions.

GEMM-led work runs in row blocks by one rule, :func:`row_blocks`: on a
``record=False`` tape, the fewest balanced blocks of at most ``_GEMM_ROWS``
(512) rows. :func:`conv1d` gathers the windows of one block of output rows
into one scratch and multiplies it into that block of its output, and
:func:`in_row_blocks` runs a row-local chain (the MLP) a block at a time.
Row-block bits are a property of the BLAS build, not of numpy: on the
OpenBLAS build measured (0.3.31, AVX-512 kernels), a block's GEMM gives
the whole GEMM's bits for output widths that are multiples of 16 from 64
up, and not for other widths (nor for a one-row block, which takes BLAS's
matrix-vector path). So a GEMM of another width, such as the heads' 2- and
C-wide output convolutions, stays whole, and outputs do not depend on the
blocks. A recording tape runs one block, since backward keeps the whole
window matrix; its records are those of the whole op.
Without a record, :func:`local_attention` gathers its band ``_BAND_ROWS``
(128) query rows at a time; a recording tape runs one block and keeps the
(w, T, H) weights for backward.

Values are float32 by default; gradient checking always runs in float64.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, EmptyInputError, ShapeError

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715
# elements per block of gelu's temporaries: 128 KiB of float32, so a desk
# step's (128, 256) hidden layer is one block; over 2^12..2^20, gelu's self
# time in T=2048 predict was lowest at 2^15 and 2^16
_BLOCK = 1 << 15
# rows per block of inference's row-blocked GEMMs (row_blocks). A GEMM cut
# into row blocks of 33 to 1,024 rows gives the whole GEMM's bits on the
# OpenBLAS build these figures come from (0.3.31, AVX-512 kernels), for
# output widths that are multiples of 16 from 64 up; blocks or tails of 1, 2
# or 8 rows, and widths such as 2, 5, 8, 17, 24 or 65, do not. Balanced
# blocks of at most 512 rows are never shorter than 256. Of 128, 256, 512
# and 1,024 rows, 128 and 256 made T=2048 predict slower than whole GEMMs;
# 512 did not, at d_model 64 or 512.
_GEMM_ROWS = 512
# query rows per block of local_attention's gathered band on a record=False
# tape. Over 64, 128, 192, 256 and 512 rows and the whole band, 128 to 256
# were the fastest, within the host's noise, at T=2048 and T=8192 and in
# T=2048 desk predict; the whole band took 1.6 to 2 times as long at
# T=8192. Of those, 128 holds the fewest gathered rows.
_BAND_ROWS = 128


class Tensor:
    """Dense array (rank <= 3) tracked on a tape.

    Leaves created with ``requires_grad=True`` receive accumulated gradients
    in ``.grad`` after :func:`backward`; intermediate results do not retain
    gradients.
    """

    __slots__ = ("values", "grad", "tape", "is_leaf", "requires_grad")

    def __init__(self, values: np.ndarray, tape: "Tape", is_leaf: bool,
                 requires_grad: bool):
        if values.ndim > 3:
            raise ShapeError(f"tensors are limited to rank 3, got shape {values.shape}")
        self.values = values
        self.grad: Optional[np.ndarray] = None
        self.tape = tape
        self.is_leaf = is_leaf
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple:
        return self.values.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.values.shape}, leaf={self.is_leaf})"


class Tape:
    """Ordered record of executed operations, each for one backward pass.

    Topological order holds by construction: an op's inputs were produced by
    earlier ops or are leaves, and :func:`backward` walks the record in exact
    reverse order, removing each record as it runs it. Until then a record
    and the tensors it refers to form a reference cycle through the tape;
    once :func:`backward` returns, reference counting frees them all.

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

    def leaf(self, values, requires_grad: bool = True) -> Tensor:
        """Register a leaf (input or parameter) on this tape."""
        arr = np.asarray(values, dtype=self.dtype)
        return Tensor(arr, self, is_leaf=True, requires_grad=requires_grad)

    def constant(self, values) -> Tensor:
        """Register a non-differentiable constant."""
        return self.leaf(values, requires_grad=False)

    def record(self, out_values: np.ndarray, bwd: Callable) -> Tensor:
        out = Tensor(out_values, self, is_leaf=False, requires_grad=True)
        if self.recording:
            self._nodes.append((out, bwd))
        return out


def backward(tape: Tape, loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into every leaf's ``.grad``.

    ``loss`` must be a scalar on ``tape``. The pass consumes the tape's
    records, releasing each closure and the arrays it saved once it has
    run, so a tape with no records left is refused; records made after a
    pass serve the next one.
    """
    if not tape.recording:
        raise ShapeError("backward needs a recording tape; this one was made "
                         "with record=False")
    if loss.tape is not tape:
        raise ShapeError("loss does not belong to this tape")
    if loss.values.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.values.shape}")
    nodes = tape._nodes
    if not nodes:
        raise ShapeError("backward found no records on this tape; a backward "
                         "pass consumes the records it runs")

    # transient grads for intermediates
    pending: dict[Tensor, np.ndarray] = {}

    def accumulate(t: Tensor, g: np.ndarray) -> None:
        if t.is_leaf:
            if t.requires_grad:
                if t.grad is None:
                    t.grad = np.zeros_like(t.values)
                t.grad += g
        else:
            # no copy: a closure never writes to an array after passing it
            # on, and a second arrival makes a new array, never ``+=``
            if t in pending:
                pending[t] = pending[t] + g
            else:
                pending[t] = g

    # d(loss)/d(loss) = 1, also for a bare leaf
    accumulate(loss, np.ones_like(loss.values))
    while nodes:
        out, bwd = nodes.pop()
        g = pending.pop(out, None)
        if g is not None:
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
    """Tanh approximation, so independent builds agree to ~1e-6.

    The elementwise chain runs over blocks of ``_BLOCK`` elements, so an
    op allocates its output and what backward keeps, and every other
    temporary is at most one block. A recording tape keeps the full tanh
    term ``th`` for backward, written block by block; without a record it
    lives in one block-sized scratch, so the output is the only full-size
    array. Fresh arrays above glibc's mmap threshold page-fault on first
    touch; the scratch does not.
    """
    x = a.values
    flat = x.reshape(-1)
    out = np.empty_like(flat)
    th = np.empty_like(flat) if a.tape.recording else None
    scratch = np.empty_like(flat[:_BLOCK])
    for lo in range(0, flat.size, _BLOCK):
        xb = flat[lo:lo + _BLOCK]
        one_th = scratch[:xb.size]   # 1 + th; doubles as th with no record
        tb = one_th if th is None else th[lo:lo + _BLOCK]
        # tb = tanh(_GELU_C * (x + _GELU_A * x*x*x)); x ** 3 is slow on float32
        np.multiply(xb, xb, out=tb)
        tb *= xb
        tb *= _GELU_A
        tb += xb
        tb *= _GELU_C
        np.tanh(tb, out=tb)
        ob = out[lo:lo + _BLOCK]
        np.multiply(xb, 0.5, out=ob)
        ob *= np.add(1.0, tb, out=one_th)
    out = out.reshape(x.shape)
    if th is not None:
        th = th.reshape(x.shape)

    def bwd(g, acc):
        sech2 = 1.0 - th * th
        d_inner = _GELU_C * (1.0 + 3.0 * _GELU_A * x * x)
        acc(a, g * (0.5 * (1.0 + th) + 0.5 * x * sech2 * d_inner))

    return a.tape.record(out, bwd)


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(a: Tensor) -> Tensor:
    s = stable_sigmoid(a.values)

    def bwd(g, acc):
        acc(a, g * s * (1.0 - s))

    return a.tape.record(s, bwd)


def softplus(a: Tensor) -> Tensor:
    """log(1 + e^x), computed as logaddexp(0, x) for stability."""
    out = np.logaddexp(np.zeros_like(a.values), a.values)

    def bwd(g, acc):
        acc(a, g * stable_sigmoid(a.values))

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
    """Join matrices of one height side by side, in order."""
    _check_concat(parts, axis=1)
    ends = np.cumsum([p.values.shape[1] for p in parts])[:-1]

    def bwd(g, acc):
        for p, piece in zip(parts, np.split(g, ends, axis=1)):
            acc(p, piece)

    return parts[0].tape.record(
        np.concatenate([p.values for p in parts], axis=1), bwd)


def concat_rows(parts: Sequence[Tensor],
                segments: Optional[Sequence[Sequence[int]]] = None) -> Tensor:
    """Stack matrices of one width on top of each other, in order.

    With ``segments``, part i is a run of row groups of the lengths
    ``segments[i]``, every part holding as many groups, and the result
    interleaves them: group 0 of every part in order, then group 1 of every
    part, and so on. This joins pyramid levels that each hold several
    videos into one sequence, video after video.
    """
    _check_concat(parts, axis=0)
    if segments is None:
        segments = [None] * len(parts)
    if len(segments) == len(parts):
        segments = [segment_lengths(s, p.values.shape[0], "concat_rows")
                    for p, s in zip(parts, segments)]
    if len(segments) != len(parts) or len({len(s) for s in segments}) != 1:
        raise ShapeError(f"concat_rows needs one group count for every part, "
                         f"got {segments} for {len(parts)} parts")
    # (part, first row, last row) of every output block, in output order
    starts = [np.cumsum(s) - s for s in segments]
    blocks = [(i, int(starts[i][v]), int(starts[i][v] + segments[i][v]))
              for v in range(len(segments[0])) for i in range(len(parts))]
    out = np.concatenate([parts[i].values[a:b] for i, a, b in blocks])
    ends = np.cumsum([b - a for _, a, b in blocks])

    def bwd(g, acc):
        pieces: list[list[np.ndarray]] = [[] for _ in parts]
        for (i, _, _), piece in zip(blocks, np.split(g, ends[:-1])):
            pieces[i].append(piece)
        for p, own in zip(parts, pieces):
            acc(p, own[0] if len(own) == 1 else np.concatenate(own))

    return parts[0].tape.record(out, bwd)


def _check_concat(parts: Sequence[Tensor], axis: int) -> None:
    if not parts:
        raise EmptyInputError("concatenation needs at least one tensor")
    _same_tape(*parts)
    shapes = [p.values.shape for p in parts]
    if any(len(s) != 2 or s[1 - axis] != shapes[0][1 - axis] for s in shapes):
        raise ShapeError(f"cannot join shapes {shapes} along axis {axis}")


# ---------------------------------------------------------------------------
# segments: several sequences packed end to end into one

def segment_lengths(segments: Optional[Sequence[int]], rows: int,
                     op: str) -> tuple[int, ...]:
    """The row counts of the sequences packed into ``rows`` rows, checked.

    ``None`` means one sequence of all rows. A window never reaches across
    a segment boundary: there it sees zeros, as at either end of a lone
    sequence.
    """
    if segments is None:
        return (rows,)
    seg = tuple(int(n) for n in segments)
    if not seg or min(seg) < 1 or sum(seg) != rows:
        raise ShapeError(f"{op} segments {list(seg)} must be positive row "
                         f"counts that sum to the {rows} input rows")
    return seg


def _ranges(begin: np.ndarray, end: np.ndarray) -> np.ndarray:
    """The integers of every ``[begin[i], end[i])``, end to end."""
    counts = end - begin
    return (np.repeat(begin - (np.cumsum(counts) - counts), counts)
            + np.arange(counts.sum()))


@functools.lru_cache(maxsize=256)
def _window_plan(segments: tuple[int, ...], reach: int, stride: int):
    """Where the windows of a segmented, strided sliding op fall.

    Segment s of n rows gives ceil(n / stride) output rows, the i-th centered
    on the segment's own row i * stride. Returns ``(rows_out, reads, edges)``
    for the offsets ``o - reach`` in ``-reach..reach``: ``reads[o]`` holds
    slice pairs ``(out, src)``, output rows ``out`` reading input rows
    ``src`` (strided, clipped to the input), one pair per run of segments
    whose windows continue one stride apart, so a lone sequence gets one;
    ``edges[o]`` lists the output rows whose window position falls outside
    their own segment (every row no pair reads for among them), as integer
    row indices. The plans are cached and shared, so their arrays are
    read-only.
    """
    n = np.array(segments, dtype=np.int64)
    n_out = -(-n // stride)
    first_out = np.cumsum(n_out) - n_out
    first_in = np.cumsum(n) - n
    t_in, t_out = int(n.sum()), int(n_out.sum())
    # runs of segments, cut after every length that is not whole strides;
    # output row i of a run reads input row base + i * stride + off
    cut = np.r_[0, np.flatnonzero(n[:-1] % stride) + 1]
    runs = list(zip(first_out[cut].tolist(),
                    np.append(first_out[cut[1:]], t_out).tolist(),
                    (first_in - stride * first_out)[cut].tolist()))
    reads, edges = [], []
    for off in range(-reach, reach + 1):
        pairs = []
        for first, end, base in runs:
            at = base + off
            lo, hi = max(first, -(at // stride)), min(end, -((at - t_in) // stride))
            if hi > lo:
                pairs.append((slice(lo, hi),
                              slice(at + lo * stride, at + hi * stride, stride)))
        reads.append(tuple(pairs))
        if off < 0:   # the first ceil(-off / stride) rows reach before
            lead = np.minimum(n_out, -(off // stride))
            edges.append(_ranges(first_out, first_out + lead))
        else:         # rows from ceil((n - off) / stride) on reach past
            keep = np.clip(-((off - n) // stride), 0, n_out)
            edges.append(_ranges(first_out + keep, first_out + n_out))
        edges[-1].flags.writeable = False
    return t_out, tuple(reads), tuple(edges)


@functools.lru_cache(maxsize=256)
def _band_mask(segments: tuple[int, ...], reach: int) -> np.ndarray:
    """The (offset, query) pairs of :func:`local_attention` that may not
    attend: ``mask[o, i]`` is True where key ``i + o - reach`` lies outside
    query i's segment, the rows ``_window_plan``'s edges list for offset o.
    Cached, shared and read-only.
    """
    t, _, edges = _window_plan(segments, reach, 1)
    mask = np.zeros((2 * reach + 1, t), dtype=bool)
    mask[np.repeat(np.arange(len(edges)), [len(e) for e in edges]),
         np.concatenate(edges)] = True
    mask.flags.writeable = False
    return mask


# ---------------------------------------------------------------------------
# row blocks: inference's row-local work in pieces of fixed size

def row_blocks(tape: Tape, rows: int,
               gemm_cols: Sequence[int]) -> list[tuple[int, int]]:
    """The ``(lo, hi)`` row ranges that GEMM-led work on ``rows`` rows runs
    in, given the output widths of its GEMMs.

    A recording tape runs one block, so its records, and what backward
    keeps, are those of the whole; so does a GEMM width whose row blocks
    would not give the whole GEMM's bits (see ``_GEMM_ROWS``). Otherwise
    the rows are cut into the fewest blocks of at most ``_GEMM_ROWS`` rows,
    balanced, so that their sizes differ by at most one; the first block
    is among the largest.
    """
    if tape.recording or rows <= _GEMM_ROWS or \
            not all(c >= 64 and c % 16 == 0 for c in gemm_cols):
        return [(0, rows)]
    n = -(-rows // _GEMM_ROWS)
    q, r = divmod(rows, n)   # the first r blocks take one row more
    return [(i * q + min(i, r), (i + 1) * q + min(i + 1, r)) for i in range(n)]


def in_row_blocks(fn: Callable[[Tensor], Tensor], x: Tensor,
                  gemm_cols: Sequence[int]) -> Tensor:
    """``fn(x)`` for a row-local ``fn`` whose GEMMs have the output widths
    ``gemm_cols``, run over :func:`row_blocks`.

    Row i of the result depends on row i of ``x`` alone, so each block runs
    ``fn`` on a view of its rows and writes into one output; ``fn``'s
    temporaries are block-sized. With one block (a recording tape among
    others) this is ``fn(x)`` itself, records and all.
    """
    blocks = row_blocks(x.tape, x.shape[0], gemm_cols)
    if len(blocks) == 1:
        return fn(x)
    out = None
    for lo, hi in blocks:
        y = fn(x.tape.constant(x.values[lo:hi])).values
        if out is None:
            out = np.empty((x.shape[0],) + y.shape[1:], dtype=y.dtype)
        out[lo:hi] = y
    return x.tape.record(out, None)   # no record: the tape does not record


def _plan_rows(reads, edges, lo: int, hi: int, stride: int):
    """A window plan cut to output rows ``lo..hi``, renumbered from 0."""
    cut_reads = []
    for pairs in reads:
        cut = []
        for rows, src in pairs:
            a, b = max(rows.start, lo), min(rows.stop, hi)
            if b > a:
                at = src.start + (a - rows.start) * stride
                cut.append((slice(a - lo, b - lo),
                            slice(at, at + (b - a) * stride, stride)))
        cut_reads.append(cut)
    cut_edges = []
    for rows in edges:
        a, b = np.searchsorted(rows, (lo, hi))
        cut_edges.append(rows[a:b] - lo)
    return cut_reads, cut_edges


# ---------------------------------------------------------------------------
# linear algebra / network primitives

def _bias_values(bias: Tensor, c_out: int, op: str) -> np.ndarray:
    if bias.values.shape != (c_out,):
        raise ShapeError(
            f"{op} bias must have shape ({c_out},), got {bias.values.shape}")
    return bias.values


def matmul(a: Tensor, b: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """``a @ b``, plus ``bias`` on every row when given."""
    tape = _same_tape(a, b) if bias is None else _same_tape(a, b, bias)
    if a.values.ndim != 2 or b.values.ndim != 2 or a.values.shape[1] != b.values.shape[0]:
        raise ShapeError(
            f"matmul shape mismatch: {a.values.shape} x {b.values.shape}")
    out = a.values @ b.values
    if bias is not None:
        out += _bias_values(bias, out.shape[1], "matmul")

    def bwd(g, acc):
        if bias is not None:
            acc(bias, g.sum(axis=0))
        if a.requires_grad:
            acc(a, g @ b.values.T)
        if b.requires_grad:
            acc(b, a.values.T @ g)

    return tape.record(out, bwd)


def conv1d(x: Tensor, kernel: Tensor, stride: int = 1,
           bias: Optional[Tensor] = None,
           segments: Optional[Sequence[int]] = None) -> Tensor:
    """1D convolution over time with symmetric zero padding ("same").

    ``x`` is (T, C_in), ``kernel`` is (k, C_in, C_out) with odd k, stride is
    1 or 2, and ``bias``, when given, is (C_out,). Output length is
    ceil(T / stride); output position i is centered on input position
    i * stride.

    ``segments`` packs several sequences end to end: their row counts, in
    order, summing to T. Each is convolved on its own, with zero padding at
    its own ends, and gives ceil(n / stride) output rows, in order; a tap
    that would read another segment reads zero.

    The windows are gathered over :func:`row_blocks`: without a record,
    one block of output rows at a time into one block-sized scratch, the
    window plan cut to the block, so the (T_out, k * C_in) window matrix is
    never whole. A recording tape gathers it whole, for the kernel's
    gradient.
    """
    tape = _same_tape(x, kernel) if bias is None else _same_tape(x, kernel, bias)
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

    t_out, reads, edges = _window_plan(
        segment_lengths(segments, t_in, "conv1d"), k // 2, stride)
    w2d = kernel.values.reshape(k * c_in, c_out)
    blocks = row_blocks(tape, t_out, (c_out,))
    out = np.empty((t_out, c_out), dtype=np.result_type(x.values, w2d))
    # gather windows: cols[i, j, :] is the row tap j of window i reads, or
    # zero where that row lies outside row i's segment; one block of rows
    # at a time, into one scratch
    cols = np.empty((blocks[0][1], k, c_in), dtype=x.values.dtype)
    for lo, hi in blocks:
        block_reads, block_edges = (reads, edges) if len(blocks) == 1 else \
            _plan_rows(reads, edges, lo, hi, stride)
        for j in range(k):
            for rows, src in block_reads[j]:
                cols[rows, j] = x.values[src]
            cols[block_edges[j], j] = 0.0
        cols2d = cols[:hi - lo].reshape(hi - lo, k * c_in)
        np.matmul(cols2d, w2d, out=out[lo:hi])
    # with a record there is one block: cols2d is every window, for backward
    if bias is not None:
        out += _bias_values(bias, c_out, "conv1d")

    def bwd(g, acc):
        if bias is not None:
            acc(bias, g.sum(axis=0))
        if kernel.requires_grad:
            acc(kernel, (cols2d.T @ g).reshape(k, c_in, c_out))
        if not x.requires_grad:
            return
        d_cols = (g @ w2d.T).reshape(t_out, k, c_in)
        # walking the taps from the last down adds each input row's terms
        # in the order a scatter-add over the windows (np.add.at) would; a
        # tap that read zero passes nothing on
        d_x = np.zeros((t_in, c_in), dtype=x.values.dtype)
        for j in range(k - 1, -1, -1):
            d_cols[edges[j], j] = 0.0
            for rows, src in reads[j]:
                d_x[src] += d_cols[rows, j]
        acc(x, d_x)

    return tape.record(out, bwd)


def _row_mean(v: np.ndarray) -> np.ndarray:
    """``v.mean(axis=1, keepdims=True)`` to the bit, without np.mean's
    Python-level wrapper: the same pairwise sum, divided in place."""
    m = np.add.reduce(v, axis=1, keepdims=True)
    m /= v.shape[1]
    return m


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
    if not 0 < eps < math.inf:
        raise ConfigError(f"layer_norm eps must be positive and finite, got {eps}")

    mu = _row_mean(x.values)
    xhat = x.values - mu
    out = xhat * xhat
    var = _row_mean(out)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat *= inv_std
    np.multiply(xhat, gamma.values, out=out)
    out += beta.values

    def bwd(g, acc):
        acc(beta, g.sum(axis=0))
        acc(gamma, (g * xhat).sum(axis=0))
        gx = g * gamma.values
        acc(x, inv_std * (gx - _row_mean(gx) - xhat * _row_mean(gx * xhat)))

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
                    num_heads: int,
                    segments: Optional[Sequence[int]] = None) -> Tensor:
    """Multi-head scaled dot-product attention within a sliding window.

    ``q``, ``k`` and ``v`` are (T, D); head h owns columns
    [h * D/H, (h + 1) * D/H). Query i attends key j = i + o - window // 2,
    o in [0, window), when 0 <= j < T; offset o = window // 2 is the query
    itself, so no row is ever fully masked. Scores, softmax weights and the
    weighted sum live on a (w, T, H) band: the keys and values of every
    offset are gathered into one (w, T, H, D/H) array and each product is
    one einsum over it, summed over the offsets in offset order. Time and
    memory grow linearly in T, and the whole attention is one tape record.

    ``segments`` packs several sequences end to end: their row counts, in
    order, summing to T. A query attends only keys of its own segment: the
    pairs whose key lies outside it are masked, by a cached plan built from
    the window plan conv1d uses.

    A recording tape runs one block of rows and keeps the (w, T, H) weights
    for backward, which gathers the band again, and gathers by key for the
    key and value gradients. Without a record the band is gathered
    ``_BAND_ROWS`` query rows at a time, so it is never whole; the blocks
    give the whole op's bits.
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

    seg = segment_lengths(segments, t, "local_attention")
    heads = (t, num_heads, d // num_heads)
    r = min(window // 2, max(seg) - 1)   # farther offsets reach no key
    w = 2 * r + 1
    masked = _band_mask(seg, r)
    dt = np.result_type(q.values, k.values, v.values)
    scale = dt.type(1.0 / np.sqrt(heads[2]))
    q3 = q.values.reshape(heads)
    k3 = k.values.reshape(heads)
    v3 = v.values.reshape(heads)

    rows = t if tape.recording else min(t, _BAND_ROWS)
    # (offset o, query i) meets key row i + o - r, here for a block from
    # row 0, wrapped round the ends: every pair whose key lies outside
    # 0..T-1 is masked, so the row it reads there is never used
    shift = np.arange(-r, r + 1)[:, None] + np.arange(rows)
    out = np.empty(heads, dtype=dt)
    for lo in range(0, t, rows):
        n = min(rows, t - lo)
        keys = shift[:, :n] + lo
        keys %= t
        # the scores become the softmax weights y in place; with a record
        # there is one block, and y is every weight, for backward
        y = np.einsum("thd,wthd->wth", q3[lo:lo + n], k3.take(keys, axis=0))
        y[masked[:, lo:lo + n]] = -np.inf
        y *= scale
        y -= y.max(axis=0)
        np.exp(y, out=y)
        y /= y.sum(axis=0)
        np.einsum("wth,wthd->thd", y, v3.take(keys, axis=0), out=out[lo:lo + n])

    def bwd(g, acc):
        g3 = g.reshape(heads)
        dy = np.einsum("thd,wthd->wth", g3, v3.take(keys, axis=0))
        ds = y * (dy - (dy * y).sum(axis=0)) * scale
        d_q = np.einsum("wth,wthd->thd", ds, k3.take(keys, axis=0))
        # by key: at offset o, key j met query j + r - o, wrapped as the keys
        # are; a pair that wraps is masked, so its weight and ds are 0
        queries = keys[::-1]
        at = queries + np.arange(0, w * t, t)[:, None]   # rows of (w * T, H)
        y_k = y.reshape(w * t, num_heads).take(at, axis=0)
        d_v = np.einsum("wth,wthd->thd", y_k, g3.take(queries, axis=0))
        ds_k = ds.reshape(w * t, num_heads).take(at, axis=0)
        d_k = np.einsum("wth,wthd->thd", ds_k, q3.take(queries, axis=0))
        acc(q, d_q.reshape(t, d))
        acc(k, d_k.reshape(t, d))
        acc(v, d_v.reshape(t, d))

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
