"""The flat parameter store: its layout, and AdamW and global-norm clipping
over it, bit-equal to the per-array oracles in ``optim_oracles``."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soundloc import autodiff as ad
from soundloc import params as pr
from soundloc.config import desk_scale_config
from soundloc.model import init_model_arrays
from soundloc.train import AdamW
from tests import optim_oracles as oracle

LRS = (2e-3, 1e-3, 5e-4, 2.5e-4)


def random_arrays(shapes, rng):
    return {f"p{i:02d}": rng.normal(size=s).astype(np.float32)
            for i, s in enumerate(shapes)}


def assert_bits_equal(got, want):
    assert list(got) == list(want)
    for name in want:
        assert got[name].shape == want[name].shape, name
        assert np.array_equal(got[name].view(np.uint32),
                              want[name].view(np.uint32)), name


def offset(store, view):
    """Element offset of a store view in its flat buffer."""
    base = store.values if view.base is store.values else store.grad
    return (view.__array_interface__["data"][0]
            - base.__array_interface__["data"][0]) // view.itemsize


def run_both(arrays, grad_steps, weight_decay, max_norm=1.0):
    """Clip and step the store and the per-array oracle on the same
    gradients, checking every value after every step; returns the norms."""
    store = pr.ParamStore(arrays)
    optimizer = AdamW(store, weight_decay)
    want = {k: v.copy() for k, v in arrays.items()}
    reference = oracle.AdamW(want, weight_decay)
    norms = []
    for lr, grads in zip(LRS, grad_steps):
        for name, g in grads.items():
            store.grads[name][...] = g
        want_grads = {k: g.copy() for k, g in grads.items()}
        norm = pr.clip_by_global_norm(store, max_norm)
        assert norm == oracle.clip_by_global_norm(want_grads, max_norm)
        assert_bits_equal(store.grads, want_grads)
        optimizer.step(lr)
        reference.step(want, want_grads, lr)
        assert_bits_equal(store.arrays, want)
        norms.append(norm)
    return norms


class TestLayout:
    def test_decayed_prefix_and_same_size_runs(self):
        arrays = init_model_arrays(desk_scale_config().model, seed=0)
        store = pr.ParamStore(arrays)
        assert_bits_equal(store.arrays, arrays)
        assert list(store.grads) == list(arrays)
        layout = sorted(arrays, key=lambda n: offset(store, store.arrays[n]))
        for name in layout:
            view, grad = store.arrays[name], store.grads[name]
            lo = offset(store, view)
            assert view.base is store.values and grad.base is store.grad
            assert offset(store, grad) == lo and grad.shape == view.shape
            assert (lo + view.size <= store.decayed) == (view.ndim >= 2), name
            assert not grad.any()
        assert sum(v.size for v in arrays.values()) == store.values.size
        # sizes never fall inside the prefix or inside the rest, so equal
        # sizes are adjacent
        decayed = [n for n in layout if arrays[n].ndim >= 2]
        rest = [n for n in layout if arrays[n].ndim < 2]
        assert layout == decayed + rest
        for part in (decayed, rest):
            sizes = [arrays[n].size for n in part]
            assert sizes == sorted(sizes)

    def test_blocks_cover_the_buffer_and_stop_at_the_prefix(self):
        store = pr.ParamStore(random_arrays([(200, 200), (7,), (3, 3)],
                                            np.random.default_rng(0)))
        assert store.decayed == 40009
        assert store.blocks == [(0, 32768, True), (32768, 40009, True),
                                (40009, 40016, False)]


class TestAgainstPerArrayOracles:
    @pytest.mark.parametrize("weight_decay", [0.0, 0.05])
    def test_desk_shapes(self, weight_decay):
        rng = np.random.default_rng(1)
        arrays = init_model_arrays(desk_scale_config().model, seed=0)
        # joint norms of about 6, 0.06, 1.8 and 0.06: clipping fires on
        # some steps and not on others
        steps = [{k: (scale * rng.normal(size=v.shape)).astype(np.float32)
                  for k, v in arrays.items()}
                 for scale in (1e-2, 1e-4, 3e-3, 1e-4)]
        norms = run_both(arrays, steps, weight_decay)
        assert min(norms) < 1.0 < max(norms)

    @pytest.mark.parametrize("weight_decay", [0.0, 0.1])
    def test_runs_across_block_edges_and_one_element_parameters(
            self, weight_decay):
        # a parameter larger than a block, a run of three that fills one
        # clip chunk with two rows, and one-element parameters of each kind
        rng = np.random.default_rng(2)
        shapes = [(200, 200), (7,), (100, 150), (1,), (100, 150), (1, 1),
                  (100, 150), (7,)]
        arrays = random_arrays(shapes, rng)
        store = pr.ParamStore(arrays)
        edges = {hi for _, hi, _ in store.blocks}
        assert any(offset(store, v) < edge < offset(store, v) + v.size
                   for v in store.arrays.values() for edge in edges)
        steps = [{k: (scale * rng.normal(size=s)).astype(np.float32)
                  for k, s in zip(arrays, shapes)}
                 for scale in (1e-2, 1e-4, 1e-2)]
        norms = run_both(arrays, steps, weight_decay)
        assert min(norms) < 1.0 < max(norms)

    @settings(max_examples=40, deadline=None)
    @given(shapes=st.lists(st.lists(st.integers(1, 40), min_size=1, max_size=3)
                           .map(tuple), min_size=1, max_size=8),
           scales=st.lists(st.sampled_from([1e-4, 1e-2, 1.0, 30.0]),
                           min_size=3, max_size=4),
           weight_decay=st.sampled_from([0.0, 0.05]),
           seed=st.integers(0, 2**32 - 1))
    def test_drawn_shapes(self, shapes, scales, weight_decay, seed):
        rng = np.random.default_rng(seed)
        arrays = random_arrays(shapes, rng)
        steps = [{k: (scale * rng.normal(size=s)).astype(np.float32)
                  for k, s in zip(arrays, shapes)} for scale in scales]
        run_both(arrays, steps, weight_decay, max_norm=1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_gradient_leaves_gradients_unscaled(self, value):
        rng = np.random.default_rng(3)
        arrays = random_arrays([(40, 50), (50,), (1,)], rng)
        store = pr.ParamStore(arrays)
        grads = {k: (10.0 * rng.normal(size=v.shape)).astype(np.float32)
                 for k, v in arrays.items()}
        grads["p01"][17] = value
        for name, g in grads.items():
            store.grads[name][...] = g
        norm = pr.clip_by_global_norm(store, 1.0)
        want = oracle.clip_by_global_norm({k: g.copy() for k, g in grads.items()},
                                          1.0)
        assert math.isnan(norm) if math.isnan(value) else norm == math.inf
        assert math.isnan(want) if math.isnan(value) else want == math.inf
        assert_bits_equal(store.grads, grads)

    def test_bind_presets_zeroed_gradient_views(self):
        arrays = random_arrays([(4, 3), (3,)], np.random.default_rng(4))
        store = pr.ParamStore(arrays)
        store.grad[:] = 5.0
        tape = ad.Tape()
        bound = pr.bind(tape, store)
        for name, leaf in bound.items():
            assert leaf.values is store.arrays[name]
            assert leaf.grad is store.grads[name]
        assert not store.grad.any()
