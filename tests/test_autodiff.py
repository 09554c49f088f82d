"""Tests for the reverse-mode autodiff engine."""

import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soundloc import autodiff as ad
from soundloc import backbone, config, model
from soundloc import params as pr
from soundloc.data import FeatureSequence, SyntheticSpec, load_features, save_features
from soundloc.datasets import load_feature_dir, write_dataset
from soundloc.errors import ConfigError, EmptyInputError, ShapeError


def scalar_tape():
    return ad.Tape(dtype=np.float64)


class TestForwardBasics:
    def test_matmul_identity(self):
        t = scalar_tape()
        eye = t.leaf(np.eye(2))
        m = t.leaf([[1.0, 2.0], [3.0, 4.0]])
        out = ad.matmul(eye, m)
        np.testing.assert_array_equal(out.values, [[1.0, 2.0], [3.0, 4.0]])

    def test_matmul_dot_product(self):
        t = scalar_tape()
        a = t.leaf([[1.0, 2.0]])
        b = t.leaf([[3.0], [4.0]])
        assert ad.matmul(a, b).values.tolist() == [[11.0]]

    def test_matmul_shape_mismatch_names_both_shapes(self):
        t = scalar_tape()
        a = t.leaf(np.zeros((2, 3)))
        b = t.leaf(np.zeros((2, 3)))
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(a, b)

    def test_conv1d_hand_summed(self):
        # x=[1,2,3,4], kernel=[1,1,1], stride 1, zero padded windows
        t = scalar_tape()
        x = t.leaf(np.array([1.0, 2.0, 3.0, 4.0]).reshape(4, 1))
        k = t.leaf(np.ones((3, 1, 1)))
        out = ad.conv1d(x, k, stride=1)
        np.testing.assert_allclose(out.values.ravel(), [3.0, 6.0, 9.0, 7.0])

    def test_conv1d_stride2_length(self):
        t = scalar_tape()
        x = t.leaf(np.arange(5.0).reshape(5, 1))
        k = t.leaf(np.ones((3, 1, 2)))
        assert ad.conv1d(x, k, stride=2).values.shape == (3, 2)

    def test_conv1d_identity_kernel_bit_exact(self):
        t = scalar_tape()
        rng = np.random.default_rng(0)
        x = t.leaf(rng.normal(size=(9, 4)))
        kernel = np.zeros((3, 4, 4))
        kernel[1] = np.eye(4)
        out = ad.conv1d(x, t.leaf(kernel), stride=1)
        assert np.array_equal(out.values, x.values)

    def test_conv1d_even_kernel_rejected(self):
        t = scalar_tape()
        with pytest.raises(ConfigError):
            ad.conv1d(t.leaf(np.zeros((4, 1))), t.leaf(np.zeros((2, 1, 1))))

    def test_conv1d_empty_input_rejected(self):
        t = scalar_tape()
        with pytest.raises(EmptyInputError):
            ad.conv1d(t.leaf(np.zeros((0, 1))), t.leaf(np.zeros((3, 1, 1))))

    def test_layer_norm_constant_row(self):
        t = scalar_tape()
        x = t.leaf([[5.0, 5.0]])
        out = ad.layer_norm(x, t.leaf([1.0, 1.0]), t.leaf([0.0, 0.0]))
        np.testing.assert_allclose(out.values, [[0.0, 0.0]], atol=1e-4)

    def test_layer_norm_two_values(self):
        # row [1, 3]: mean 2, population std 1
        t = scalar_tape()
        x = t.leaf([[1.0, 3.0]])
        out = ad.layer_norm(x, t.leaf([1.0, 1.0]), t.leaf([0.0, 0.0]), eps=1e-12)
        np.testing.assert_allclose(out.values, [[-1.0, 1.0]], atol=1e-5)

    def test_layer_norm_affine_override(self):
        t = scalar_tape()
        x = t.leaf(np.random.default_rng(1).normal(size=(3, 2)))
        out = ad.layer_norm(x, t.leaf([0.0, 0.0]), t.leaf([7.0, 7.0]))
        np.testing.assert_allclose(out.values, np.full((3, 2), 7.0))

    def test_gelu_float32_cube_within_pinned_tolerance(self):
        x = np.random.default_rng(4).normal(scale=3.0, size=(64, 256))
        x = x.astype(np.float32)
        got = ad.gelu(ad.Tape(dtype=np.float32).leaf(x)).values
        x64 = x.astype(np.float64)
        want = 0.5 * x64 * (1.0 + np.tanh(
            math.sqrt(2.0 / math.pi) * (x64 + 0.044715 * x64 ** 3)))
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)

    def test_softmax_symmetry(self):
        t = scalar_tape()
        out = ad.softmax_lastdim(t.leaf([0.0, 0.0]))
        np.testing.assert_allclose(out.values, [0.5, 0.5])

    def test_softmax_log3(self):
        t = scalar_tape()
        out = ad.softmax_lastdim(t.leaf([0.0, math.log(3.0)]))
        np.testing.assert_allclose(out.values, [0.25, 0.75], rtol=1e-12)

    def test_softmax_single_survivor(self):
        t = scalar_tape()
        out = ad.softmax_lastdim(t.leaf([5.0, 9.0]), mask=np.array([True, False]))
        np.testing.assert_array_equal(out.values, [1.0, 0.0])

    def test_softmax_fully_masked_row_errors(self):
        t = scalar_tape()
        with pytest.raises(ShapeError):
            ad.softmax_lastdim(t.leaf([1.0, 2.0]), mask=np.array([False, False]))

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        t = scalar_tape()
        x = t.leaf(rng.normal(size=(6, 9)) * 10)
        mask = rng.random((6, 9)) > 0.3
        mask[:, 0] = True
        y = ad.softmax_lastdim(x, mask=mask).values
        np.testing.assert_allclose(y.sum(axis=-1), np.ones(6), atol=1e-9)
        assert ((y >= 0) & (y <= 1)).all()
        assert (y[~mask] == 0).all()


class TestBackward:
    def test_sum_grad_is_ones(self):
        t = scalar_tape()
        x = t.leaf(np.random.default_rng(0).normal(size=(3, 4)))
        ad.backward(t, ad.sum_all(x))
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_sigmoid_grad_at_zero(self):
        t = scalar_tape()
        x = t.leaf(0.0)
        ad.backward(t, ad.sigmoid(x))
        np.testing.assert_allclose(x.grad, 0.25)

    def test_product_rule(self):
        t = scalar_tape()
        x = t.leaf(2.0)
        y = t.leaf(3.0)
        ad.backward(t, ad.mul(x, y))
        assert float(x.grad) == 3.0 and float(y.grad) == 2.0

    def test_backward_requires_scalar(self):
        t = scalar_tape()
        x = t.leaf(np.ones(3))
        with pytest.raises(ShapeError):
            ad.backward(t, ad.relu(x))

    def test_backward_empties_the_tape_and_refuses_a_second_pass(self):
        t = scalar_tape()
        x = t.leaf(np.array([1.0, 2.0]))
        loss = ad.sum_all(ad.square(x))
        ad.backward(t, loss)
        assert t._nodes == []
        first = x.grad.copy()
        with pytest.raises(ShapeError, match="no records"):
            ad.backward(t, loss)
        np.testing.assert_array_equal(x.grad, first)

    def test_saved_arrays_die_as_their_closure_finishes(self):
        # two records: the last saves an array no one else holds; by the
        # time the first record's closure runs, that array is gone
        t = scalar_tape()
        x = t.leaf(np.array([1.0, 2.0]))
        seen = []

        def first_bwd(g, acc):
            seen.append(ref() is None)
            acc(x, g)

        h = t.record(x.values.copy(), first_bwd)
        saved = np.array([3.0, 4.0])
        ref = weakref.ref(saved)

        def last_bwd(g, acc, saved=saved):
            acc(h, g * saved)

        loss = t.record(np.asarray(h.values @ saved), last_bwd)
        del saved, last_bwd
        ad.backward(t, loss)
        assert seen == [True]
        np.testing.assert_array_equal(x.grad, [3.0, 4.0])

    def test_backward_linearity(self):
        rng = np.random.default_rng(7)
        x0 = rng.normal(size=(4, 3))

        def run(combine):
            t = ad.Tape(dtype=np.float64)
            x = t.leaf(x0)
            l1 = ad.sum_all(ad.square(x))
            l2 = ad.sum_all(ad.sigmoid(x))
            ad.backward(t, combine(t, x, l1, l2))
            return x.grad

        combined = run(lambda t, x, l1, l2: ad.add(l1, l2))

        t = ad.Tape(dtype=np.float64)
        x = t.leaf(x0)
        ad.backward(t, ad.sum_all(ad.square(x)))
        ad.backward(t, ad.sum_all(ad.sigmoid(x)))
        np.testing.assert_allclose(x.grad, combined, atol=1e-12)

    def test_broadcast_add_unbroadcasts(self):
        t = scalar_tape()
        x = t.leaf(np.ones((4, 3)))
        b = t.leaf(np.zeros(3))
        ad.backward(t, ad.sum_all(ad.add(x, b)))
        np.testing.assert_array_equal(b.grad, np.full(3, 4.0))


def _shape_for(op_name):
    return {"matmul": (5, 4)}.get(op_name, (4, 8))


UNARY_OPS = {
    "relu": ad.relu,
    "gelu": ad.gelu,
    "sigmoid": ad.sigmoid,
    "softplus": ad.softplus,
    "exp": ad.exp,
    "square": ad.square,
    "neg": ad.neg,
    "softmax": lambda x: ad.softmax_lastdim(x),
}


class TestGradCheck:
    def test_sum_of_squares_tight(self):
        rng = np.random.default_rng(0)
        err = ad.grad_check(lambda x: ad.sum_all(ad.square(x)), rng.normal(size=(3, 5)))
        assert err <= 1e-7

    def test_constant_function(self):
        err = ad.grad_check(lambda x: ad.sum_all(ad.mul(x, x.tape.constant(0.0))),
                            np.ones(4))
        assert err == 0.0

    @pytest.mark.parametrize("name", sorted(UNARY_OPS))
    def test_unary_ops_many_seeds(self, name):
        op = UNARY_OPS[name]
        for seed in range(10):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(4, 8))
            if name == "relu":
                x += 0.05 * np.sign(x) + 1e-3  # keep away from the kink
            err = ad.grad_check(lambda v: ad.sum_all(op(v)), x)
            assert err <= 1e-4, f"{name} seed {seed}: {err}"

    def test_log_positive_domain(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            x = rng.random((4, 8)) + 0.5
            err = ad.grad_check(lambda v: ad.sum_all(ad.log(v)), x)
            assert err <= 1e-4

    def test_binary_ops(self):
        rng = np.random.default_rng(11)
        other = rng.normal(size=(4, 8)) + 3.0
        for op in (ad.add, ad.sub, ad.mul, ad.div, ad.minimum, ad.maximum):
            for seed in range(10):
                x = np.random.default_rng(seed).normal(size=(4, 8))
                err = ad.grad_check(
                    lambda v: ad.sum_all(op(v, v.tape.constant(other))), x)
                assert err <= 1e-4, op.__name__
            # gradient w.r.t. the second argument too
            err = ad.grad_check(
                lambda v: ad.sum_all(op(v.tape.constant(other), v)),
                np.random.default_rng(1).normal(size=(4, 8)))
            assert err <= 1e-4, op.__name__

    def test_matmul_both_sides(self):
        rng = np.random.default_rng(2)
        b = rng.normal(size=(8, 6))
        err = ad.grad_check(
            lambda v: ad.sum_all(ad.square(ad.matmul(v, v.tape.constant(b)))),
            rng.normal(size=(5, 8)))
        assert err <= 1e-4
        a = rng.normal(size=(5, 8))
        err = ad.grad_check(
            lambda v: ad.sum_all(ad.square(ad.matmul(v.tape.constant(a), v))),
            rng.normal(size=(8, 6)))
        assert err <= 1e-4

    def test_conv1d_input_and_kernel(self):
        rng = np.random.default_rng(5)
        kernel = rng.normal(size=(3, 3, 2))
        for stride in (1, 2):
            err = ad.grad_check(
                lambda v: ad.sum_all(ad.square(
                    ad.conv1d(v, v.tape.constant(kernel), stride=stride))),
                rng.normal(size=(7, 3)))
            assert err <= 1e-4
        x = rng.normal(size=(7, 3))
        err = ad.grad_check(
            lambda v: ad.sum_all(ad.square(
                ad.conv1d(v.tape.constant(x), v, stride=2))),
            kernel)
        assert err <= 1e-4

    def test_layer_norm_all_inputs(self):
        rng = np.random.default_rng(9)
        gamma = rng.normal(size=8) + 1.0
        beta = rng.normal(size=8)

        err = ad.grad_check(
            lambda v: ad.sum_all(ad.square(ad.layer_norm(
                v, v.tape.constant(gamma), v.tape.constant(beta)))),
            rng.normal(size=(4, 8)))
        assert err <= 1e-4

        x = rng.normal(size=(4, 8))
        err = ad.grad_check(
            lambda v: ad.sum_all(ad.square(ad.layer_norm(
                v.tape.constant(x), v, v.tape.constant(beta)))), gamma)
        assert err <= 1e-4
        err = ad.grad_check(
            lambda v: ad.sum_all(ad.square(ad.layer_norm(
                v.tape.constant(x), v.tape.constant(gamma), v))), beta)
        assert err <= 1e-4

    def test_layer_norm_then_sum_spec_example(self):
        rng = np.random.default_rng(42)
        gamma = np.ones(8)
        beta = np.zeros(8)
        err = ad.grad_check(
            lambda v: ad.sum_all(ad.sigmoid(ad.layer_norm(
                v, v.tape.constant(gamma), v.tape.constant(beta)))),
            rng.normal(size=(4, 8)))
        assert err <= 1e-4

    def test_softmax_masked(self):
        rng = np.random.default_rng(13)
        mask = rng.random((4, 8)) > 0.25
        mask[:, 2] = True
        err = ad.grad_check(
            lambda v: ad.sum_all(ad.square(ad.softmax_lastdim(v, mask=mask))),
            rng.normal(size=(4, 8)))
        assert err <= 1e-4

    def test_slice_and_concat(self):
        rng = np.random.default_rng(17)
        err = ad.grad_check(
            lambda v: ad.sum_all(ad.square(ad.concat_cols(
                [ad.slice_cols(v, 0, 3), ad.slice_cols(v, 3, 8)]))),
            rng.normal(size=(4, 8)))
        assert err <= 1e-4

    def test_concat_rows(self):
        # each part a different function of v, one a single row, under
        # per-row weights: every part's gradient is routed to its own rows
        rng = np.random.default_rng(19)
        first = rng.normal(size=(1, 5))
        weights = rng.normal(size=(16, 3))

        def f(v):
            t = v.tape
            stacked = ad.concat_rows([v, ad.square(v), ad.matmul(t.constant(first), v),
                                      ad.gelu(v)])
            return ad.sum_all(ad.square(ad.mul(stacked, t.constant(weights))))

        assert ad.grad_check(f, rng.normal(size=(5, 3))) <= 1e-4

    def test_concat_rows_values_and_shape_checks(self):
        t = ad.Tape(dtype=np.float64)
        a, b = t.leaf(np.ones((2, 3))), t.leaf(np.zeros((1, 3)))
        assert np.array_equal(ad.concat_rows([a, b]).values,
                              np.concatenate([a.values, b.values]))
        with pytest.raises(EmptyInputError):
            ad.concat_rows([])
        with pytest.raises(ShapeError):
            ad.concat_rows([a, t.leaf(np.ones((2, 2)))])
        with pytest.raises(ShapeError):
            ad.concat_rows([t.leaf(np.ones(3))])

    def test_concat_part_with_zero_gradient_gets_zeros(self):
        t = ad.Tape(dtype=np.float64)
        a, b = t.leaf(np.ones((2, 3))), t.leaf(np.ones((1, 3)))
        w = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [0.0, 0.0, 0.0]])
        ad.backward(t, ad.sum_all(ad.mul(ad.concat_rows([a, ad.relu(b)]),
                                         t.constant(w))))
        assert np.array_equal(a.grad, w[:2])
        assert np.array_equal(b.grad, np.zeros((1, 3)))

    def test_grad_check_sizes_up_to_16x32(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(16, 32))
            err = ad.grad_check(lambda v: ad.sum_all(ad.gelu(v)), x, h=1e-5)
            assert err <= 1e-4


class TestTapeIsolation:
    def test_cross_tape_mixing_rejected(self):
        t1, t2 = scalar_tape(), scalar_tape()
        with pytest.raises(ShapeError):
            ad.add(t1.leaf(1.0), t2.leaf(2.0))

    def test_parallel_tapes_identical_results(self):
        import concurrent.futures

        def work(seed):
            rng = np.random.default_rng(seed)
            t = ad.Tape(dtype=np.float64)
            x = t.leaf(rng.normal(size=(6, 6)))
            loss = ad.sum_all(ad.gelu(ad.matmul(x, x)))
            ad.backward(t, loss)
            return float(loss.values), x.grad.copy()

        serial = [work(s) for s in range(4)]
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(pool.map(work, range(4)))
        for (v1, g1), (v2, g2) in zip(serial, parallel):
            assert v1 == v2
            np.testing.assert_array_equal(g1, g2)

    def test_no_record_tape_same_values_and_no_records(self):
        rng = np.random.default_rng(2)
        x0, w0 = rng.normal(size=(9, 4)), rng.normal(size=(4, 4))
        outs = {}
        for record in (True, False):
            t = ad.Tape(dtype=np.float32, record=record)
            x = t.constant(x0)
            h = ad.gelu(ad.matmul(x, t.leaf(w0)))
            y = ad.local_attention(h, h, x, 5, 2)
            outs[record] = ad.sum_all(ad.square(y)).values
            assert len(t._nodes) == (5 if record else 0)
        assert outs[True].tobytes() == outs[False].tobytes()

    def test_backward_on_no_record_tape_raises(self):
        t = ad.Tape(dtype=np.float64, record=False)
        x = t.leaf(np.ones(3))
        with pytest.raises(ShapeError, match="record=False"):
            ad.backward(t, ad.sum_all(ad.square(x)))
        with pytest.raises(ShapeError, match="record=False"):
            ad.backward(t, t.leaf(1.0))
        assert x.grad is None

    @pytest.mark.parametrize("ran", [False, True])
    def test_backward_lets_reference_counting_free_the_tape(self, ran):
        t = scalar_tape()
        x = t.leaf(np.arange(4.0).reshape(2, 2))
        y = ad.sum_all(ad.gelu(ad.matmul(x, x)))
        before = y.values.copy()
        if ran:
            ad.backward(t, y)
        np.testing.assert_array_equal(y.values, before)
        ref = weakref.ref(t)
        gc.disable()
        try:
            del t, x, y
            # until backward consumes them, the records keep the tape
            # alive in a cycle
            assert (ref() is None) == ran
        finally:
            gc.enable()


# ---------------------------------------------------------------------------
# bias folded into matmul and conv1d, the conv1d backward, constant operands

def conv1d_input_grad_oracle(x, kernel, g, stride):
    """Input gradient of conv1d by np.add.at over the gathered windows."""
    k, c_in, _ = kernel.shape
    t_in, pad = x.shape[0], k // 2
    t_out = g.shape[0]
    idx = (np.arange(t_out) * stride)[:, None] + np.arange(k)[None, :]
    d_cols = (g @ kernel.reshape(k * c_in, -1).T).reshape(t_out, k, c_in)
    d_pad = np.zeros((t_in + 2 * pad, c_in), dtype=x.dtype)
    np.add.at(d_pad, idx, d_cols)
    return d_pad[pad:pad + t_in]


def grads_through(op, dtype, operands, upstream):
    """Output and every operand's gradient of sum(op(*leaves) * upstream)."""
    t = ad.Tape(dtype=dtype)
    leaves = [t.leaf(v) for v in operands]
    out = op(*leaves)
    ad.backward(t, ad.sum_all(ad.mul(out, t.constant(upstream))))
    return out.values, [leaf.grad for leaf in leaves]


def bit_equal(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class CallSpy(np.ndarray):
    """An array that logs every ufunc (``@`` included) it takes part in."""

    calls: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        CallSpy.calls.append(ufunc.__name__)
        plain = [i.view(np.ndarray) if isinstance(i, CallSpy) else i for i in inputs]
        if "out" in kwargs:
            kwargs["out"] = tuple(o.view(np.ndarray) for o in kwargs["out"])
        return getattr(ufunc, method)(*plain, **kwargs)


def spy_on(tensor):
    CallSpy.calls = []
    tensor.values = tensor.values.view(CallSpy)


class TestFusedBias:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matmul_bias_matches_separate_add(self, dtype):
        rng = np.random.default_rng(11)
        operands = [rng.normal(size=(7, 5)), rng.normal(size=(5, 4)),
                    rng.normal(size=4)]
        up = rng.normal(size=(7, 4))
        got, got_g = grads_through(lambda a, b, c: ad.matmul(a, b, bias=c),
                                   dtype, operands, up)
        want, want_g = grads_through(lambda a, b, c: ad.add(ad.matmul(a, b), c),
                                     dtype, operands, up)
        assert bit_equal(got, want)
        for g, w in zip(got_g, want_g):
            assert bit_equal(g, w)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_conv1d_bias_matches_separate_add(self, dtype, stride):
        rng = np.random.default_rng(12 + stride)
        operands = [rng.normal(size=(9, 3)), rng.normal(size=(3, 3, 4)),
                    rng.normal(size=4)]
        up = rng.normal(size=(-(-9 // stride), 4))
        got, got_g = grads_through(
            lambda x, w, b: ad.conv1d(x, w, stride=stride, bias=b),
            dtype, operands, up)
        want, want_g = grads_through(
            lambda x, w, b: ad.add(ad.conv1d(x, w, stride=stride), b),
            dtype, operands, up)
        assert bit_equal(got, want)
        for g, w in zip(got_g, want_g):
            assert bit_equal(g, w)

    def test_grad_check_every_operand(self):
        rng = np.random.default_rng(13)
        x, w, b = rng.normal(size=(6, 3)), rng.normal(size=(3, 3, 2)), rng.normal(size=2)
        a, m = rng.normal(size=(6, 3)), rng.normal(size=(3, 2))

        def conv(i, stride):
            def f(v):
                c = v.tape.constant
                args = [c(x), c(w), c(b)]
                args[i] = v
                return ad.sum_all(ad.square(
                    ad.conv1d(args[0], args[1], stride=stride, bias=args[2])))
            return f

        def mm(i):
            def f(v):
                c = v.tape.constant
                args = [c(a), c(m), c(b)]
                args[i] = v
                return ad.sum_all(ad.square(ad.matmul(args[0], args[1], bias=args[2])))
            return f

        for stride in (1, 2):
            for i, value in enumerate((x, w, b)):
                assert ad.grad_check(conv(i, stride), value) <= 1e-4, (stride, i)
        for i, value in enumerate((a, m, b)):
            assert ad.grad_check(mm(i), value) <= 1e-4, i

    def test_bias_shape_checked(self):
        t = scalar_tape()
        x, w = t.leaf(np.ones((4, 3))), t.leaf(np.ones((3, 2)))
        with pytest.raises(ShapeError, match=r"matmul bias must have shape \(2,\)"):
            ad.matmul(x, w, bias=t.leaf(np.ones(3)))
        with pytest.raises(ShapeError, match=r"conv1d bias must have shape \(2,\)"):
            ad.conv1d(x, t.leaf(np.ones((3, 3, 2))), bias=t.leaf(np.ones((1, 2))))


class TestConv1dBackwardOrder:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    def test_slice_adds_equal_np_add_at(self, k, stride, dtype):
        rng = np.random.default_rng(100 * k + stride)
        for t_in in (1, 2, 5, 16, 33):
            x = rng.normal(size=(t_in, 3)).astype(dtype)
            kernel = rng.normal(size=(k, 3, 4)).astype(dtype)
            g = (rng.normal(size=(-(-t_in // stride), 4)) * 10.0).astype(dtype)
            _, (got, _) = grads_through(
                lambda a, w: ad.conv1d(a, w, stride=stride), dtype, [x, kernel], g)
            assert bit_equal(got, conv1d_input_grad_oracle(x, kernel, g, stride)), t_in


class TestConstantOperands:
    @pytest.mark.parametrize("stride", [1, 2])
    def test_conv1d_forms_no_input_gradient_for_a_constant(self, stride):
        rng = np.random.default_rng(3)
        for constant in (True, False):
            t = scalar_tape()
            x = (t.constant if constant else t.leaf)(rng.normal(size=(8, 3)))
            kernel = t.leaf(rng.normal(size=(3, 3, 2)))
            spy_on(kernel)
            loss = ad.sum_all(ad.square(ad.conv1d(x, kernel, stride=stride)))
            CallSpy.calls = []
            ad.backward(t, loss)
            # the kernel takes part in the backward only through g @ w2d.T
            assert ("matmul" in CallSpy.calls) is not constant
            assert kernel.grad is not None
            assert (x.grad is None) is constant

    @pytest.mark.parametrize("const_side", [0, 1])
    def test_matmul_forms_no_gradient_for_a_constant(self, const_side):
        rng = np.random.default_rng(4)
        t = scalar_tape()
        values = [rng.normal(size=(5, 3)), rng.normal(size=(3, 2))]
        a, b = (t.constant(v) if i == const_side else t.leaf(v)
                for i, v in enumerate(values))
        other = b if const_side == 0 else a
        loss = ad.sum_all(ad.square(ad.matmul(a, b)))
        spy_on(other)
        ad.backward(t, loss)
        # the constant's gradient is the only product the other operand is in
        assert "matmul" not in CallSpy.calls
        assert other.grad is not None


class TestAccumulateAliasing:
    def test_shared_first_arrivals_stay_unchanged(self):
        # h1 feeds an add (which hands one gradient array to h1 and h2), a
        # mul and a reshape view; every later arrival at h1 must make a new
        # array, or h2's gradient changes under it
        rng = np.random.default_rng(6)
        x0, c1, c2, c3 = (rng.normal(size=(3, 2)) for _ in range(4))
        w, v = rng.normal(size=(3, 2)), rng.normal(size=6)
        t = scalar_tape()
        x = t.leaf(x0)
        h1, h2 = ad.mul(x, t.constant(c1)), ad.mul(x, t.constant(c2))
        u = ad.mul(h1, t.constant(c3))
        r = ad.reshape(h1, (6,))
        s = ad.add(h1, h2)
        loss = ad.add(ad.add(ad.sum_all(ad.mul(s, t.constant(w))),
                             ad.sum_all(ad.mul(r, t.constant(v)))),
                      ad.sum_all(u))
        ad.backward(t, loss)
        want = c1 * (w + v.reshape(3, 2) + c3) + c2 * w
        np.testing.assert_allclose(x.grad, want, rtol=1e-12)


# ---------------------------------------------------------------------------
# in-place forward kernels against the expressions they replaced

def oracle_gelu(a):
    x = a.values
    inner = math.sqrt(2.0 / math.pi) * (x + 0.044715 * (x * x * x))
    th = np.tanh(inner)
    out = 0.5 * x * (1.0 + th)

    def bwd(g, acc):
        sech2 = 1.0 - th * th
        d_inner = math.sqrt(2.0 / math.pi) * (1.0 + 3.0 * 0.044715 * x * x)
        acc(a, g * (0.5 * (1.0 + th) + 0.5 * x * sech2 * d_inner))

    return a.tape.record(out, bwd)


def oracle_matmul(a, b, bias):
    out = a.values @ b.values
    out = out + bias.values

    def bwd(g, acc):
        acc(bias, g.sum(axis=0))
        acc(a, g @ b.values.T)
        acc(b, a.values.T @ g)

    return a.tape.record(out, bwd)


def oracle_conv1d(x, kernel, bias, stride):
    k, c_in, c_out = kernel.values.shape
    t_in = x.values.shape[0]
    pad = k // 2
    t_out = -(-t_in // stride)
    span = stride * (t_out - 1) + 1
    x_pad = np.zeros((t_in + 2 * pad, c_in), dtype=x.values.dtype)
    x_pad[pad:pad + t_in] = x.values
    cols = np.empty((t_out, k, c_in), dtype=x_pad.dtype)
    for j in range(k):
        cols[:, j] = x_pad[j:j + span:stride]
    cols2d = cols.reshape(t_out, k * c_in)
    w2d = kernel.values.reshape(k * c_in, c_out)
    out = cols2d @ w2d
    out = out + bias.values

    def bwd(g, acc):
        acc(bias, g.sum(axis=0))
        acc(kernel, (cols2d.T @ g).reshape(k, c_in, c_out))
        d_cols = (g @ w2d.T).reshape(t_out, k, c_in)
        d_pad = np.zeros_like(x_pad)
        for j in range(k - 1, -1, -1):
            d_pad[j:j + span:stride] += d_cols[:, j]
        acc(x, d_pad[pad:pad + t_in])

    return x.tape.record(out, bwd)


def oracle_layer_norm(x, gamma, beta, eps=1e-5):
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

    return x.tape.record(out, bwd)


def oracle_local_attention(q, k, v, window, num_heads):
    t, d = q.values.shape
    heads = (t, num_heads, d // num_heads)
    r = min(window // 2, t - 1)
    w = 2 * r + 1
    dt = np.result_type(q.values, k.values, v.values)
    scale = dt.type(1.0 / np.sqrt(heads[2]))
    q3 = q.values.reshape(heads)
    k_pad = np.zeros((t + 2 * r,) + heads[1:], dtype=dt)
    k_pad[r:r + t] = k.values.reshape(heads)
    v_pad = np.zeros((t + 2 * r,) + heads[1:], dtype=dt)
    v_pad[r:r + t] = v.values.reshape(heads)
    ok = np.zeros(t + 2 * r, dtype=bool)
    ok[r:r + t] = True
    keep = np.lib.stride_tricks.sliding_window_view(ok, t)[:, :, None]

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

    return q.tape.record(out.reshape(t, d), bwd)


def per_offset_local_attention(q, k, v, window, num_heads, segments=None):
    """local_attention as it was before the gathered band: the window plan's
    query and key slices taken one key offset at a time, forward and
    backward, each offset's terms added in offset order."""
    t, d = q.values.shape
    seg = ad.segment_lengths(segments, t, "local_attention")
    heads = (t, num_heads, d // num_heads)
    r = min(window // 2, max(seg) - 1)
    w = 2 * r + 1
    _, reads, drop = ad._window_plan(seg, r, 1)
    bounds = [pair for (pair,) in reads]
    dt = np.result_type(q.values, k.values, v.values)
    scale = dt.type(1.0 / np.sqrt(heads[2]))
    q3 = q.values.reshape(heads)
    k3 = k.values.reshape(heads)
    v3 = v.values.reshape(heads)

    y = np.empty((w, t, num_heads), dtype=dt)
    for o, (qs, ks) in enumerate(bounds):
        np.einsum("thd,thd->th", q3[qs], k3[ks], out=y[o, qs])
        y[o, drop[o]] = -np.inf
    y *= scale
    y -= y.max(axis=0)
    np.exp(y, out=y)
    y /= y.sum(axis=0)
    out = np.zeros(heads, dtype=dt)
    term = np.empty(heads, dtype=dt)
    for o, (qs, ks) in enumerate(bounds):
        out[qs] += np.multiply(y[o, qs, :, None], v3[ks], out=term[qs])

    def bwd(g, acc):
        g3 = g.reshape(heads)
        gt = np.result_type(g3, dt)
        dy = np.zeros(y.shape, dtype=gt)
        d_v = np.zeros(heads, dtype=gt)
        for o, (qs, ks) in enumerate(bounds):
            np.einsum("thd,thd->th", g3[qs], v3[ks], out=dy[o, qs])
            d_v[ks] += y[o, qs, :, None] * g3[qs]
        ds = y * (dy - (dy * y).sum(axis=0)) * scale
        d_q = np.zeros(heads, dtype=gt)
        d_k = np.zeros(heads, dtype=gt)
        for o, (qs, ks) in enumerate(bounds):
            ds_o = ds[o, qs, :, None]
            d_q[qs] += ds_o * k3[ks]
            d_k[ks] += ds_o * q3[qs]
        acc(q, d_q.reshape(t, d))
        acc(k, d_k.reshape(t, d))
        acc(v, d_v.reshape(t, d))

    return q.tape.record(out.reshape(t, d), bwd)


def in_place_cases():
    """(name, new op, oracle op, operand arrays) for every rewritten kernel."""
    rng = np.random.default_rng(21)
    cases = []
    # scale 3 reaches gelu's saturated tails
    cases.append(("gelu", ad.gelu, oracle_gelu,
                  [rng.normal(scale=3.0, size=(17, 24))]))
    ln = [rng.normal(loc=2.0, scale=4.0, size=(9, 16)), rng.normal(size=16) + 1.0,
          rng.normal(size=16)]
    cases.append(("layer_norm", ad.layer_norm, oracle_layer_norm, ln))
    mm = [rng.normal(size=(11, 6)), rng.normal(size=(6, 5)), rng.normal(size=5)]
    cases.append(("matmul", lambda a, b, c: ad.matmul(a, b, bias=c),
                  oracle_matmul, mm))
    for k in (1, 3, 5):
        for t_in in sorted({1, 2, k - 1, k, 65} - {0}):
            for stride in (1, 2):
                ops = [rng.normal(size=(t_in, 3)), rng.normal(size=(k, 3, 4)),
                       rng.normal(size=4)]
                cases.append((
                    f"conv1d-k{k}-t{t_in}-s{stride}",
                    lambda x, w, b, s=stride: ad.conv1d(x, w, stride=s, bias=b),
                    lambda x, w, b, s=stride: oracle_conv1d(x, w, b, s), ops))
    # T < window, T = window and T > window; a single step attends only
    # itself; head width 6, so the score scale is not a power of two
    for t in (1, 4, 11, 30):
        qkv = [rng.normal(scale=2.0, size=(t, 12)) for _ in range(3)]
        cases.append((f"local_attention-t{t}",
                      lambda q, k, v: ad.local_attention(q, k, v, 11, 2),
                      lambda q, k, v: oracle_local_attention(q, k, v, 11, 2), qkv))
    # gelu runs in blocks of ad._BLOCK elements: 2 blocks and one more row
    # of a width that does not divide the block, so the last block ends
    # part way along a row
    rows = 2 * -(-ad._BLOCK // 24) + 1
    cases.append((f"gelu-blocks-{rows}x24", ad.gelu, oracle_gelu,
                   [rng.normal(scale=3.0, size=(rows, 24))]))
    return cases


IN_PLACE_CASES = in_place_cases()
IN_PLACE_IDS = [c[0] for c in IN_PLACE_CASES]
# central differences cost two forward passes per element: the multi-block
# case is left to the bit-equality tests against the oracle
GRAD_CHECK_CASES = [c for c in IN_PLACE_CASES if "blocks" not in c[0]]
GRAD_CHECK_IDS = [c[0] for c in GRAD_CHECK_CASES]


class TestInPlaceKernelsExact:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", IN_PLACE_CASES, ids=IN_PLACE_IDS)
    def test_values_and_gradients_bit_equal(self, case, dtype):
        _, op, oracle, operands = case
        operands = [np.asarray(v, dtype=dtype) for v in operands]
        t = ad.Tape(dtype=dtype, record=False)
        got = op(*[t.leaf(v) for v in operands]).values
        up = np.random.default_rng(5).normal(size=got.shape)
        want, want_g = grads_through(oracle, dtype, operands, up)
        assert bit_equal(got, want)
        got, got_g = grads_through(op, dtype, operands, up)
        assert bit_equal(got, want)
        for g, w in zip(got_g, want_g):
            assert bit_equal(g, w)

    @pytest.mark.parametrize("case", GRAD_CHECK_CASES, ids=GRAD_CHECK_IDS)
    def test_grad_check(self, case):
        _, op, _, operands = case
        for i, value in enumerate(operands):
            def f(v):
                args = [v.tape.constant(o) for o in operands]
                args[i] = v
                return ad.sum_all(ad.square(op(*args)))
            assert ad.grad_check(f, value) <= 1e-4, i

    @pytest.mark.parametrize("record", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", IN_PLACE_CASES, ids=IN_PLACE_IDS)
    def test_inputs_unchanged(self, case, dtype, record):
        _, op, _, operands = case
        t = ad.Tape(dtype=dtype, record=record)
        leaves = [t.leaf(v) for v in operands]
        before = [leaf.values.copy() for leaf in leaves]
        out = op(*leaves)
        if record:
            ad.backward(t, ad.sum_all(ad.square(out)))
        for leaf, b in zip(leaves, before):
            assert bit_equal(leaf.values, b)
            assert not np.shares_memory(out.values, leaf.values)


class TestLayerNormRowMean:
    """layer_norm's row means (np.add.reduce, then a division in place)
    against the ``mean(axis=1, keepdims=True)`` form of oracle_layer_norm."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(64, 64), (1, 1), (5, 3), (33, 7), (8, 65),
                                       (4, 100), (3, 1000)])
    @pytest.mark.parametrize("scale", [1e-10, 1.0, 1e10])
    def test_values_and_gradients_byte_equal(self, dtype, shape, scale):
        rng = np.random.default_rng(shape[0] * 1000 + shape[1])
        operands = [np.asarray(v, dtype=dtype) for v in (
            rng.normal(loc=0.5 * scale, scale=scale, size=shape),
            rng.normal(size=shape[1]) + 1.0, rng.normal(size=shape[1]))]
        up = rng.normal(size=shape)
        want, want_g = grads_through(oracle_layer_norm, dtype, operands, up)
        got, got_g = grads_through(ad.layer_norm, dtype, operands, up)
        assert bit_equal(got, want)
        for g, w in zip(got_g, want_g):
            assert bit_equal(g, w)


class TestLayerNormEps:
    @pytest.mark.parametrize("eps", [0.0, -1e-5, math.nan, math.inf, -math.inf])
    def test_non_positive_or_non_finite_eps_rejected(self, eps):
        t = scalar_tape()
        x, g, b = t.leaf(np.ones((2, 3))), t.leaf(np.ones(3)), t.leaf(np.zeros(3))
        with pytest.raises(ConfigError, match="eps"):
            ad.layer_norm(x, g, b, eps=eps)


def traced_peak(fn):
    """``fn()`` and tracemalloc's peak bytes above the start while it ran."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if started:
            tracemalloc.stop()
    return result, peak - base


def peak_over_output(op, operands):
    """tracemalloc peak while ``op`` runs on a record=False float32 tape,
    over the output's bytes."""
    t = ad.Tape(dtype=np.float32, record=False)
    leaves = [t.leaf(v) for v in operands]
    out, peak = traced_peak(lambda: op(*leaves))
    return peak / out.values.nbytes


class TestAllocationBudget:
    """A forward kernel allocates its output and what its backward keeps.

    Ceilings are tracemalloc's peak bytes over output bytes at the desk
    width (D=64) and T=2048 on a record=False tape; the expressions with a
    fresh array per step took 4.0, 4.1, 2.07, 6.1 and 6.8. gelu took 2.0
    with a full-size tanh term and takes 1.06 with one block of it.
    conv1d took 4.07 with its whole (T, 3 * D) window matrix and takes 1.83
    with one block of 512 rows of it. local_attention took 2.76 with the
    whole (w, T, H) weights and one output-sized product beside its output;
    it takes 1.89 with one block of 128 query rows of its gathered keys and
    values and of its weights. The broadcast bias add takes numpy's 32 KiB
    ufunc buffer, 0.06 of the matmul output here.
    """

    T, D = 2048, 64

    def operands(self, name):
        rng = np.random.default_rng(8)
        t, d = self.T, self.D
        return {
            "gelu": [rng.normal(size=(t, 4 * d))],
            "layer_norm": [rng.normal(size=(t, d)), rng.normal(size=d),
                           rng.normal(size=d)],
            "matmul": [rng.normal(size=(t, d)), rng.normal(size=(d, d)),
                       rng.normal(size=d)],
            "conv1d": [rng.normal(size=(t, d)), rng.normal(size=(3, d, d)),
                       rng.normal(size=d)],
            "local_attention": [rng.normal(size=(t, d)) for _ in range(3)],
        }[name]

    @pytest.mark.parametrize("name, op, ceiling", [
        ("gelu", ad.gelu, 1.15),
        ("layer_norm", ad.layer_norm, 2.2),
        ("matmul", lambda a, b, c: ad.matmul(a, b, bias=c), 1.1),
        ("conv1d", lambda x, w, b: ad.conv1d(x, w, bias=b), 2.0),
        # 4.78 while it copied k and v into zero-padded arrays
        ("local_attention", lambda q, k, v: ad.local_attention(q, k, v, 11, 4), 2.8),
    ])
    def test_peak_over_output(self, name, op, ceiling):
        ratio = peak_over_output(op, self.operands(name))
        assert ratio <= ceiling, f"{name}: {ratio:.2f}"

    @staticmethod
    def desk_predict_peak(t):
        cfg = config.desk_scale_config()
        arrays = model.init_model_arrays(cfg.model, 0)
        seq = FeatureSequence("v", "fused", 0.5, np.random.default_rng(8).normal(
            size=(t, cfg.model.backbone.input_dim)))
        _, peak = traced_peak(
            lambda: model.predict_intervals(arrays, cfg.model, seq, cfg.decode))
        return peak

    def test_desk_predict_at_t2048(self):
        # one video's forward pass and decoding: 9.26 MB with gelu's
        # full-size tanh term, 7.29 MB with one block of it, 6.18 MB with
        # the MLP and the wide convolutions in row blocks
        peak = self.desk_predict_peak(self.T)
        assert peak <= 6.5e6, f"{peak / 1e6:.2f} MB"

    def test_desk_predict_at_t8192(self):
        # 28.72 MB with the MLP's hidden layer and every window matrix
        # whole, 24.57 MB in row blocks
        peak = self.desk_predict_peak(4 * self.T)
        assert peak <= 26e6, f"{peak / 1e6:.2f} MB"


class TestLoadAllocationBudget:
    """The loaders read each payload straight into its array.

    Ceilings are tracemalloc's peak bytes over payload bytes. Reading the
    whole file into one blob and copying each payload out of it took 2.03
    for the desk checkpoint and 2.25 for a (2048, 1536) feature file.
    """

    def test_desk_checkpoint(self, tmp_path):
        path = tmp_path / "desk.ckpt"
        model.save_checkpoint(
            model.init_model_arrays(config.desk_scale_config().model, 0), path)
        arrays, peak = traced_peak(lambda: model.load_checkpoint(path))
        ratio = peak / sum(a.nbytes for a in arrays.values())
        assert ratio <= 1.1, f"{ratio:.2f}"

    def test_feature_file(self, tmp_path):
        path = tmp_path / "v.tslf"
        save_features(FeatureSequence("v", "visual", 0.5, np.random.default_rng(8)
                                      .normal(size=(2048, 1536))), path)
        seq, peak = traced_peak(lambda: load_features(path))
        ratio = peak / seq.data.nbytes
        assert ratio <= 1.1, f"{ratio:.2f}"

    def test_feature_directory(self, tmp_path):
        # ceiling over the fused bytes: 8 videos at T=64, as predict reads
        # them; fusing every pair after the last read took 2.18
        write_dataset(tmp_path, SyntheticSpec(seed=3))
        fused, peak = traced_peak(lambda: load_feature_dir(tmp_path / "features"))
        assert len(fused) == 8
        ratio = peak / sum(seq.data.nbytes for seq in fused.values())
        assert ratio <= 1.5, f"{ratio:.2f}"


# ---------------------------------------------------------------------------
# segments: sequences packed end to end, each on its own

# length 1, lengths below the window (11) and below the kernel (5), odd
# lengths under stride 2, and a few seeded draws
SEGMENT_LISTS = [[1], [6], [1, 1, 1], [2, 7, 1, 4], [3, 1, 10, 5, 1], [64, 64],
                 [33, 1, 30]] + [
    [int(n) for n in np.random.default_rng(seed).integers(1, 24, size=size)]
    for seed, size in ((0, 5), (1, 9), (2, 3))]
SEGMENT_IDS = ["-".join(map(str, s)) for s in SEGMENT_LISTS]

# conv1d against per-segment calls: a GEMM over more rows may round a row
# differently (this BLAS: up to 3e-7 of the largest value for values and
# input gradients, 1.5e-6 for the kernel gradient, summed over segments)
SEG_CONV_RTOL = 2e-6
SEG_CONV_PARAM_RTOL = 1e-5


# videos whose lengths are odd at some level, as the pyramid packs them
ODD_SEGMENT_LISTS = [[63, 65], [33, 17, 40, 1, 9], [
    int(n) for n in np.random.default_rng(40).integers(1, 80, size=40)]]


def oracle_segmented_conv1d(x, kernel, bias, stride, segments):
    """conv1d over packed segments as it was before the window plan's
    slices: every window's rows gathered with np.take from the row each
    output is centered on, and a fancy-index add per tap in backward."""
    k, c_in, c_out = kernel.values.shape
    pad = k // 2
    n = np.array(segments)
    n_out = -(-n // stride)
    first_out = np.cumsum(n_out) - n_out
    first_in = np.cumsum(n) - n
    t_in, t_out = int(n.sum()), int(n_out.sum())
    centre = np.repeat(first_in - stride * first_out, n_out) + stride * np.arange(t_out)
    seg_lo = np.repeat(first_in, n_out)
    seg_hi = seg_lo + np.repeat(n, n_out)
    outside = [(centre + j - pad < seg_lo) | (centre + j - pad >= seg_hi)
               for j in range(k)]
    cols = np.empty((t_out, k, c_in), dtype=x.values.dtype)
    for j in range(k):
        np.take(x.values, centre + (j - pad), axis=0, out=cols[:, j], mode="clip")
        cols[outside[j], j] = 0.0
    cols2d = cols.reshape(t_out, k * c_in)
    w2d = kernel.values.reshape(k * c_in, c_out)
    out = cols2d @ w2d
    out += bias.values

    def bwd(g, acc):
        acc(bias, g.sum(axis=0))
        acc(kernel, (cols2d.T @ g).reshape(k, c_in, c_out))
        d_cols = (g @ w2d.T).reshape(t_out, k, c_in)
        d_pad = np.zeros((t_in + 2 * pad, c_in), dtype=x.values.dtype)
        for j in range(k - 1, -1, -1):
            d_cols[outside[j], j] = 0.0
            d_pad[centre + j] += d_cols[:, j]   # the rows of one tap are distinct
        acc(x, d_pad[pad:pad + t_in])

    return x.tape.record(out, bwd)


def per_segment(op, inputs, shared, segments, upstream, dtype=np.float32):
    """Outputs and gradients of ``op`` run on each segment alone.

    ``inputs`` are split by rows along ``segments``, ``shared`` operands go
    to every call; returns the joined outputs, the joined gradients of the
    inputs and the summed gradients of the shared operands.
    """
    outs, grads, shared_grads = [], [[] for _ in inputs], None
    row = out_row = 0
    for n in segments:
        t = ad.Tape(dtype=dtype)
        leaves = [t.leaf(v[row:row + n]) for v in inputs]
        extra = [t.leaf(v) for v in shared]
        out = op(*leaves, *extra, None)
        m = out.values.shape[0]
        ad.backward(t, ad.sum_all(ad.mul(out, t.constant(upstream[out_row:out_row + m]))))
        outs.append(out.values)
        for acc, leaf in zip(grads, leaves):
            acc.append(leaf.grad)
        got = [leaf.grad for leaf in extra]
        shared_grads = got if shared_grads is None else [
            a + b for a, b in zip(shared_grads, got)]
        row += n
        out_row += m
    return np.concatenate(outs), [np.concatenate(g) for g in grads], shared_grads


def packed(op, inputs, shared, segments, upstream, dtype=np.float32):
    t = ad.Tape(dtype=dtype)
    leaves = [t.leaf(v) for v in inputs]
    extra = [t.leaf(v) for v in shared]
    out = op(*leaves, *extra, segments)
    ad.backward(t, ad.sum_all(ad.mul(out, t.constant(upstream))))
    return out.values, [leaf.grad for leaf in leaves], [leaf.grad for leaf in extra]


def assert_close_to_max(got, want, rtol):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


class TestSegments:
    @pytest.mark.parametrize("segments", SEGMENT_LISTS, ids=SEGMENT_IDS)
    @pytest.mark.parametrize("c_out", [64, 5, 2])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_conv1d_matches_per_segment_calls(self, k, stride, c_out, segments):
        rng = np.random.default_rng(k * 100 + stride * 10 + c_out)
        x = rng.normal(size=(sum(segments), 64)).astype(np.float32)
        shared = [rng.normal(size=(k, 64, c_out)).astype(np.float32),
                  rng.normal(size=c_out).astype(np.float32)]
        rows_out = sum(-(-n // stride) for n in segments)
        up = rng.normal(size=(rows_out, c_out)).astype(np.float32)

        def op(x, w, b, seg):
            return ad.conv1d(x, w, stride=stride, bias=b, segments=seg)

        got, (got_dx,), got_dp = packed(op, [x], shared, segments, up)
        want, (want_dx,), want_dp = per_segment(op, [x], shared, segments, up)
        assert_close_to_max(got, want, SEG_CONV_RTOL)
        assert_close_to_max(got_dx, want_dx, SEG_CONV_RTOL)
        for g, w in zip(got_dp, want_dp):
            assert_close_to_max(g, w, SEG_CONV_PARAM_RTOL)

    @pytest.mark.parametrize("segments", SEGMENT_LISTS + ODD_SEGMENT_LISTS,
                             ids=SEGMENT_IDS + ["63-65", "33-17-40-1-9", "forty"])
    @pytest.mark.parametrize("c_out", [64, 5, 2])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_conv1d_bit_equal_to_gather_oracle(self, k, stride, c_out, segments):
        rng = np.random.default_rng(k * 100 + stride * 10 + c_out)
        operands = [rng.normal(size=(sum(segments), 64)).astype(np.float32),
                    rng.normal(size=(k, 64, c_out)).astype(np.float32),
                    rng.normal(size=c_out).astype(np.float32)]
        up = rng.normal(size=(sum(-(-n // stride) for n in segments), c_out))
        up = up.astype(np.float32)
        got, got_g = grads_through(
            lambda x, w, b: ad.conv1d(x, w, stride=stride, bias=b, segments=segments),
            np.float32, operands, up)
        want, want_g = grads_through(
            lambda x, w, b: oracle_segmented_conv1d(x, w, b, stride, segments),
            np.float32, operands, up)
        assert bit_equal(got, want)
        for g, w in zip(got_g, want_g):
            assert bit_equal(g, w)

    @pytest.mark.parametrize("segments, stride, pairs", [
        ((64, 64), 2, 1), ((128,), 2, 1), ((64, 64), 1, 1), ((63, 65), 1, 1),
        ((63, 65), 2, 2), ((2, 3, 4, 5), 2, 2)])
    def test_window_plan_slices_per_tap(self, segments, stride, pairs):
        # one slice per run of segments whose windows continue one stride
        # apart: an odd length before the last starts a new run at stride 2
        _, reads, _ = ad._window_plan(segments, 2, stride)
        assert [len(r) for r in reads] == [pairs] * 5

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("segments", SEGMENT_LISTS, ids=SEGMENT_IDS)
    @pytest.mark.parametrize("window", [3, 11])
    def test_local_attention_bit_equal_to_per_segment_calls(self, window, segments,
                                                            dtype):
        rng = np.random.default_rng(window)
        qkv = [rng.normal(scale=2.0, size=(sum(segments), 16)).astype(dtype)
               for _ in range(3)]
        up = rng.normal(size=(sum(segments), 16)).astype(dtype)

        def op(q, k, v, seg):
            return ad.local_attention(q, k, v, window, 4, seg)

        got, got_g, _ = packed(op, qkv, [], segments, up, dtype)
        want, want_g, _ = per_segment(op, qkv, [], segments, up, dtype)
        assert bit_equal(got, want)
        for g, w in zip(got_g, want_g):
            assert bit_equal(g, w)

    @pytest.mark.parametrize("op, n_shared", [
        (lambda x, g, b, seg: ad.layer_norm(x, g, b), 2),
        (lambda x, seg: ad.relu(x), 0),
        (lambda x, seg: ad.softplus(x), 0)], ids=["layer_norm", "relu", "softplus"])
    def test_row_wise_ops_bit_equal_to_per_segment_calls(self, op, n_shared):
        # the head trunk runs these over every level and video at once
        rng = np.random.default_rng(3)
        segments = [7, 1, 30, 4]
        x = rng.normal(scale=3.0, size=(sum(segments), 16)).astype(np.float32)
        shared = [rng.normal(size=16).astype(np.float32) for _ in range(n_shared)]
        up = rng.normal(size=x.shape).astype(np.float32)
        got, (got_dx,), _ = packed(op, [x], shared, segments, up)
        want, (want_dx,), _ = per_segment(op, [x], shared, segments, up)
        assert bit_equal(got, want)
        assert bit_equal(got_dx, want_dx)

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("segments", [[1, 4, 2], [3, 3], [5, 1, 1]])
    def test_conv1d_grad_check(self, segments, stride):
        rng = np.random.default_rng(sum(segments) + stride)
        x0 = rng.normal(size=(sum(segments), 3))
        w0 = rng.normal(size=(3, 3, 2))
        b0 = rng.normal(size=2)
        for i, value in enumerate((x0, w0, b0)):
            def f(v):
                args = [v.tape.constant(o) for o in (x0, w0, b0)]
                args[i] = v
                out = ad.conv1d(args[0], args[1], stride=stride, bias=args[2],
                                segments=segments)
                return ad.sum_all(ad.square(out))
            assert ad.grad_check(f, value) <= 1e-4, i

    @pytest.mark.parametrize("segments", [[1, 4, 2], [6, 3], [2, 2, 2, 1]])
    def test_local_attention_grad_check(self, segments):
        rng = np.random.default_rng(len(segments))
        qkv = [rng.normal(size=(sum(segments), 4)) for _ in range(3)]
        for i, value in enumerate(qkv):
            def f(v):
                args = [v.tape.constant(o) for o in qkv]
                args[i] = v
                out = ad.local_attention(*args, 5, 2, segments=segments)
                return ad.sum_all(ad.square(out))
            assert ad.grad_check(f, value) <= 1e-4, i

    def test_cached_plans_are_read_only(self):
        # plans are shared by every call with the same segments, so one
        # write through a caller would corrupt every later call
        _, _, edges = ad._window_plan((5, 1, 7), 2, 1)
        arrays = [*edges, ad._band_mask((5, 1, 7), 2)]
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0

    def test_concat_rows_interleaves_groups(self):
        t = scalar_tape()
        a = t.leaf(np.arange(10.0).reshape(5, 2))        # groups of 3 and 2
        b = t.leaf(100.0 + np.arange(6.0).reshape(3, 2))  # groups of 2 and 1
        out = ad.concat_rows([a, b], [[3, 2], [2, 1]])
        want = np.concatenate([a.values[:3], b.values[:2], a.values[3:], b.values[2:]])
        assert np.array_equal(out.values, want)
        w = np.random.default_rng(0).normal(size=want.shape)
        ad.backward(t, ad.sum_all(ad.mul(out, t.constant(w))))
        assert np.array_equal(a.grad, np.concatenate([w[:3], w[5:7]]))
        assert np.array_equal(b.grad, np.concatenate([w[3:5], w[7:]]))

    def test_concat_rows_grad_check(self):
        rng = np.random.default_rng(1)
        other = rng.normal(size=(3, 2))
        w = rng.normal(size=(7, 2))

        def f(v):
            out = ad.concat_rows([v, v.tape.constant(other)], [[1, 3], [2, 1]])
            return ad.sum_all(ad.mul(out, v.tape.constant(w)))

        assert ad.grad_check(f, rng.normal(size=(4, 2))) <= 1e-4

    @pytest.mark.parametrize("segments", [[], [3, 0, 3], [2, 2], [4, 3], [-1, 7]])
    def test_bad_segments_rejected(self, segments):
        t = scalar_tape()
        x = t.leaf(np.ones((6, 4)))
        for call in (lambda: ad.conv1d(x, t.leaf(np.ones((3, 4, 2))), segments=segments),
                     lambda: ad.local_attention(x, x, x, 3, 2, segments=segments),
                     lambda: ad.concat_rows([x], [segments])):
            with pytest.raises(ShapeError, match="segments"):
                call()

    def test_concat_rows_group_counts_must_agree(self):
        t = scalar_tape()
        a, b = t.leaf(np.ones((4, 2))), t.leaf(np.ones((2, 2)))
        with pytest.raises(ShapeError, match="group count"):
            ad.concat_rows([a, b], [[2, 2], [2]])


# ---------------------------------------------------------------------------
# local attention: every key offset in one gathered band

def attention_operands(rng, segments, width, dtype):
    """q, k, v and an upstream gradient for ``sum(segments)`` rows."""
    return [rng.normal(scale=2.0, size=(sum(segments), width)).astype(dtype)
            for _ in range(4)]


class TestBandAttention:
    """local_attention against the per-offset kernel it replaced, bit for
    bit, and its band's work and blocks."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(1, 40), min_size=1, max_size=5),
           st.integers(0, 10).map(lambda i: 2 * i + 1), st.integers(1, 4),
           st.integers(1, 8), st.sampled_from([np.float32, np.float64]),
           st.integers(0, 2 ** 32 - 1))
    def test_bit_equal_to_per_offset_kernel(self, segments, window, num_heads,
                                            head_width, dtype, seed):
        # segments of 1 row and segments shorter than the window among them
        *qkv, up = attention_operands(np.random.default_rng(seed), segments,
                                      num_heads * head_width, dtype)

        def op(q, k, v):
            return ad.local_attention(q, k, v, window, num_heads, segments)

        want, want_g = grads_through(
            lambda q, k, v: per_offset_local_attention(q, k, v, window,
                                                       num_heads, segments),
            dtype, qkv, up)
        got, got_g = grads_through(op, dtype, qkv, up)
        assert bit_equal(got, want)
        for g, w in zip(got_g, want_g):
            assert bit_equal(g, w)
        t = ad.Tape(dtype=dtype, record=False)
        assert bit_equal(op(*[t.leaf(a) for a in qkv]).values, want)

    @pytest.mark.parametrize("t", [2048, 2049, 8193])
    def test_blocked_forward_equals_one_block(self, t):
        # seeded segments whose ends fall inside blocks, on their edges
        # and one row past them
        rng = np.random.default_rng(t)
        segments = []
        while sum(segments) < t - 512:
            segments.append(int(rng.integers(1, 300)))
        # one segment ends on a block edge, two of 1 row follow it
        segments += [ad._BAND_ROWS - sum(segments) % ad._BAND_ROWS, 1, 1]
        segments.append(t - sum(segments))
        assert t > 2 * ad._BAND_ROWS
        *qkv, _ = attention_operands(rng, segments, 64, np.float32)
        whole, blocked = ad.Tape(), ad.Tape(record=False)
        want = ad.local_attention(*[whole.leaf(a) for a in qkv], 11, 4, segments)
        got = ad.local_attention(*[blocked.leaf(a) for a in qkv], 11, 4, segments)
        assert bit_equal(got.values, want.values)

    @pytest.mark.parametrize("record", [True, False])
    def test_einsum_calls_do_not_grow_with_the_window(self, monkeypatch, record):
        calls = []
        real = np.einsum

        def spy(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "einsum", spy)
        rng = np.random.default_rng(0)
        *qkv, up = attention_operands(rng, [40, 24], 16, np.float32)
        counts = []
        for window in (1, 3, 21):
            calls.clear()
            tape = ad.Tape(record=record)
            out = ad.local_attention(*[tape.leaf(a) for a in qkv], window, 4,
                                     [40, 24])
            if record:
                ad.backward(tape, ad.sum_all(ad.mul(out, tape.constant(up))))
            counts.append(len(calls))
        assert counts[0] > 0 and len(set(counts)) == 1, counts


# ---------------------------------------------------------------------------
# row blocks: inference's MLP and wide convolutions, a block of rows at a time

def one_block(tape, rows, gemm_cols):
    return [(0, rows)]


def spy_blocks(monkeypatch):
    """Route ad.row_blocks through a spy; returns the block counts it gave."""
    counts = []
    real = ad.row_blocks

    def spy(*args):
        blocks = real(*args)
        counts.append(len(blocks))
        return blocks

    monkeypatch.setattr(ad, "row_blocks", spy)
    return counts


def normal_leaves(tape, rng, **shapes):
    return {name: tape.leaf(rng.normal(scale=0.5, size=shape))
            for name, shape in shapes.items()}


class TestRowBlocks:
    """On a tape that does not record, the MLP and every conv1d whose GEMMs
    are wide enough run in row blocks, and give the bits of the whole ops.

    Row-block bits are a property of the BLAS build: these tests pin them
    at the lengths where blocks leave short and odd tails."""

    LENGTHS = [2048, 2049, 8192, 8193]

    @pytest.mark.parametrize("rows", [0, 1, 511, 512, 513, 1024, 1025, 2049, 8193])
    def test_blocks_balanced(self, rows):
        blocks = ad.row_blocks(ad.Tape(record=False), rows, (64,))
        sizes = [hi - lo for lo, hi in blocks]
        assert blocks[0][0] == 0 and blocks[-1][1] == rows
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
        assert len(blocks) == max(1, -(-rows // ad._GEMM_ROWS))
        assert max(sizes) - min(sizes) <= 1
        if len(blocks) > 1:
            assert ad._GEMM_ROWS // 2 <= min(sizes) <= max(sizes) <= ad._GEMM_ROWS

    @pytest.mark.parametrize("record, cols, blocked", [
        (True, (64,), False), (True, (256, 64), False), (False, (64,), True),
        (False, (256, 64), True), (False, (2048, 512), True), (False, (5,), False),
        (False, (2,), False), (False, (17,), False), (False, (256, 24), False),
        (False, (65,), False), (False, (32,), False)])
    def test_one_block_on_a_recording_tape_or_a_narrow_gemm(self, record, cols,
                                                             blocked):
        blocks = ad.row_blocks(ad.Tape(record=record), 8193, cols)
        assert (len(blocks) > 1) == blocked

    @pytest.mark.parametrize("t", LENGTHS)
    def test_desk_predict_and_heads_equal_whole(self, monkeypatch, t):
        cfg = config.desk_scale_config()
        arrays = model.init_model_arrays(cfg.model, 0)
        data = np.random.default_rng(t).normal(size=(t, cfg.model.backbone.input_dim))
        seq = FeatureSequence("v", "fused", 0.5, data)

        def run():
            tape = ad.Tape(record=False)
            _, heads = model.forward_video(pr.bind(tape, arrays), cfg.model, [data], tape)
            return (heads.cls_logits.values, heads.distances.values,
                    model.predict_intervals(arrays, cfg.model, seq, cfg.decode))

        with monkeypatch.context() as m:
            counts = spy_blocks(m)
            *got, got_preds = run()
        assert max(counts) > 1   # the blocked side ran in blocks
        with monkeypatch.context() as m:
            m.setattr(ad, "row_blocks", one_block)
            *want, want_preds = run()
        for g, w in zip(got, want):
            assert bit_equal(g, w)
        assert got_preds == want_preds and got_preds

    @pytest.mark.parametrize("t", LENGTHS)
    def test_full_width_mlp_equals_oracle(self, t):
        # one block's MLP at the full-scale width, against the whole chain
        cfg = config.TrainConfig().model.backbone
        d, hidden = cfg.d_model, cfg.mlp_ratio * cfg.d_model
        tape = ad.Tape(record=False)
        p = normal_leaves(tape, np.random.default_rng(t), x=(t, d),
                          **{"m.w1": (d, hidden), "m.b1": (hidden,),
                             "m.w2": (hidden, d), "m.b2": (d,)})
        assert len(ad.row_blocks(tape, t, (hidden, d))) > 1
        got = backbone.mlp(p["x"], p, "m").values
        want = oracle_matmul(oracle_gelu(oracle_matmul(p["x"], p["m.w1"], p["m.b1"])),
                             p["m.w2"], p["m.b2"]).values
        assert bit_equal(got, want)

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("t", LENGTHS)
    def test_full_width_conv1d_equals_oracle(self, t, stride):
        d = config.TrainConfig().model.backbone.d_model
        tape = ad.Tape(record=False)
        p = normal_leaves(tape, np.random.default_rng(t), x=(t, d), w=(3, d, d), b=(d,))
        assert len(ad.row_blocks(tape, -(-t // stride), (d,))) > 1
        got = ad.conv1d(p["x"], p["w"], stride=stride, bias=p["b"]).values
        want = oracle_segmented_conv1d(p["x"], p["w"], p["b"], stride, [t]).values
        assert bit_equal(got, want)

    @pytest.mark.parametrize("k", [3, 5])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_segmented_conv1d_blocks_equal_oracle(self, k, stride):
        # many segments, so block edges fall inside segments, on their
        # boundaries and on the edge rows of a window plan
        rng = np.random.default_rng(10 * k + stride)
        segments = [int(n) for n in rng.integers(1, 120, size=40)] + [513, 1, 2]
        tape = ad.Tape(record=False)
        p = normal_leaves(tape, rng, x=(sum(segments), 8), w=(k, 8, 64), b=(64,))
        t_out = sum(-(-n // stride) for n in segments)
        assert len(ad.row_blocks(tape, t_out, (64,))) > 1
        got = ad.conv1d(p["x"], p["w"], stride=stride, bias=p["b"],
                        segments=segments).values
        want = oracle_segmented_conv1d(p["x"], p["w"], p["b"], stride,
                                       segments).values
        assert bit_equal(got, want)

    def test_recording_tape_keeps_whole_records(self):
        # a recording tape runs one block: the MLP is matmul, gelu, matmul
        tape = ad.Tape()
        p = normal_leaves(tape, np.random.default_rng(0), x=(1500, 64),
                          **{"m.w1": (64, 256), "m.b1": (256,),
                             "m.w2": (256, 64), "m.b2": (64,)})
        out = backbone.mlp(p["x"], p, "m")
        assert len(tape._nodes) == 3 and tape._nodes[-1][0] is out
        ad.conv1d(out, tape.leaf(np.ones((3, 64, 64))))
        assert len(tape._nodes) == 4
