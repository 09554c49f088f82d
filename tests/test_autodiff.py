"""Tests for the reverse-mode autodiff engine."""

import gc
import math
import weakref

import numpy as np
import pytest

from soundloc import autodiff as ad
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

    def test_repeated_backward_accumulates(self):
        t = scalar_tape()
        x = t.leaf(np.array([1.0, 2.0]))
        loss = ad.sum_all(ad.square(x))
        ad.backward(t, loss)
        first = x.grad.copy()
        ad.backward(t, loss)
        np.testing.assert_allclose(x.grad, 2.0 * first)

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
            y = ad.local_attention(h, h, x, 5, np.ones(9, dtype=bool), 2)
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

    @pytest.mark.parametrize("clear", [False, True])
    def test_clear_lets_reference_counting_free_the_tape(self, clear):
        t = scalar_tape()
        x = t.leaf(np.arange(4.0).reshape(2, 2))
        y = ad.gelu(ad.matmul(x, x))
        before = y.values.copy()
        if clear:
            t.clear()
        np.testing.assert_array_equal(y.values, before)
        ref = weakref.ref(t)
        gc.disable()
        try:
            del t, x, y
            # without clearing, the records keep the tape alive in a cycle
            assert (ref() is None) == clear
        finally:
            gc.enable()
