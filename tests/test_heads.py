"""Tests for the point lattice and the classification/regression heads."""

import math

import numpy as np
import pytest

from soundloc import autodiff as ad
from soundloc import params as pr
from soundloc.backbone import BackboneConfig, Pyramid, PyramidLevel, build_pyramid, init_backbone_params
from soundloc.errors import EmptyInputError
from soundloc.heads import generate_points, init_head_params, run_heads


def fake_pyramid(tape, lengths, strides, d=8, seed=0):
    rng = np.random.default_rng(seed)
    levels = [
        PyramidLevel(tape.constant(rng.normal(size=(t, d))), s)
        for t, s in zip(lengths, strides)
    ]
    return Pyramid(levels)


class TestPoints:
    def test_timestamps_centered(self):
        tape = ad.Tape(dtype=np.float64)
        pyr = fake_pyramid(tape, [4], [2])
        pts = generate_points(pyr)
        np.testing.assert_array_equal(pts.levels[0].timestamps, [1.0, 3.0, 5.0, 7.0])

    def test_default_seven_level_ranges(self):
        tape = ad.Tape(dtype=np.float64)
        pyr = fake_pyramid(tape, [128, 64, 32, 16, 8, 4, 2], [1, 2, 4, 8, 16, 32, 64])
        pts = generate_points(pyr)
        got = [(l.range_min, l.range_max) for l in pts.levels]
        assert got == [(0.0, 4.0), (4.0, 8.0), (8.0, 16.0), (16.0, 32.0),
                       (32.0, 64.0), (64.0, 128.0), (128.0, math.inf)]

    def test_ranges_partition_positive_axis(self):
        tape = ad.Tape(dtype=np.float64)
        pyr = fake_pyramid(tape, [16, 8, 4], [1, 2, 4])
        pts = generate_points(pyr)
        assert pts.levels[0].range_min == 0.0
        assert pts.levels[-1].range_max == math.inf
        for a, b in zip(pts.levels, pts.levels[1:]):
            assert a.range_max == b.range_min

    def test_single_level_full_range(self):
        tape = ad.Tape(dtype=np.float64)
        pts = generate_points(fake_pyramid(tape, [10], [1]))
        assert (pts.levels[0].range_min, pts.levels[0].range_max) == (0.0, math.inf)

    def test_empty_pyramid_rejected(self):
        with pytest.raises(EmptyInputError):
            generate_points(Pyramid([]))


class TestHeads:
    def bound(self, d=8, c=3, seed=0):
        rng = np.random.default_rng(seed)
        arrays = init_head_params(d, c, rng)
        tape = ad.Tape(dtype=np.float64)
        return tape, pr.bind(tape, arrays)

    def test_shapes_per_level(self):
        tape, p = self.bound()
        pyr = fake_pyramid(tape, [16, 8, 4], [1, 2, 4])
        out = run_heads(pyr, p)
        assert [t.shape for t in out.cls_logits] == [(16, 3), (8, 3), (4, 3)]
        assert [t.shape for t in out.reg_raw] == [(16, 2), (8, 2), (4, 2)]

    def test_prior_probability_bias(self):
        rng = np.random.default_rng(0)
        arrays = init_head_params(8, 5, rng)
        b0 = arrays["head.cls.out.b"]
        np.testing.assert_allclose(1.0 / (1.0 + np.exp(-b0)), 0.01, rtol=1e-6)

        # on random features the initial mean probability stays near the prior
        tape = ad.Tape(dtype=np.float64)
        p = pr.bind(tape, arrays)
        pyr = fake_pyramid(tape, [64, 32], [1, 2])
        out = run_heads(pyr, p)
        probs = np.concatenate(
            [1.0 / (1.0 + np.exp(-t.values)).ravel() for t in out.cls_logits])
        assert 0.003 < probs.mean() < 0.03

    def test_distances_nonnegative_and_softplus_zero(self):
        tape, p = self.bound()
        pyr = fake_pyramid(tape, [16], [1], seed=3)
        out = run_heads(pyr, p)
        assert (out.distances[0].values >= 0).all()
        t2 = ad.Tape(dtype=np.float64)
        np.testing.assert_allclose(
            ad.softplus(t2.leaf(0.0)).values, math.log(2.0), rtol=1e-12)

    def test_decoded_intervals_always_ordered(self):
        tape, p = self.bound(seed=9)
        pyr = fake_pyramid(tape, [32, 16], [1, 2], seed=7)
        out = run_heads(pyr, p)
        pts = generate_points(pyr)
        for lvl, dist in zip(pts.levels, out.distances):
            start = lvl.timestamps - dist.values[:, 0] * lvl.stride_units
            end = lvl.timestamps + dist.values[:, 1] * lvl.stride_units
            assert (start <= end).all()

    def test_parameters_shared_across_levels(self):
        # gradients from every level accumulate into the one shared leaf
        rng = np.random.default_rng(1)
        arrays = init_head_params(8, 3, rng)

        def grad_on(level_subset):
            tape = ad.Tape(dtype=np.float64)
            p = pr.bind(tape, arrays)
            pyr = fake_pyramid(tape, [8, 4], [1, 2], seed=5)
            out = run_heads(pyr, p)
            total = None
            for li in level_subset:
                s = ad.sum_all(ad.square(out.cls_logits[li]))
                total = s if total is None else ad.add(total, s)
            ad.backward(tape, total)
            return p["head.cls.conv1.w"].grad

        both = grad_on([0, 1])
        np.testing.assert_allclose(both, grad_on([0]) + grad_on([1]), rtol=1e-10)

    def test_grad_check_through_heads(self):
        arrays = init_head_params(6, 2, np.random.default_rng(2))

        def f(x):
            p = pr.bind(x.tape, arrays)
            pyr = Pyramid([PyramidLevel(x, 1)])
            out = run_heads(pyr, p)
            return ad.add(ad.sum_all(ad.square(out.cls_logits[0])),
                          ad.sum_all(ad.square(out.distances[0])))

        err = ad.grad_check(f, np.random.default_rng(3).normal(size=(7, 6)))
        assert err <= 1e-4

    def test_head_shapes_on_real_backbone(self):
        cfg = BackboneConfig(input_dim=6, d_model=8, num_blocks=3,
                             stride_schedule=(1, 2, 2), window=5, num_heads=2)
        rng = np.random.default_rng(4)
        arrays = init_backbone_params(cfg, rng)
        arrays.update(init_head_params(8, 4, rng))
        tape = ad.Tape(dtype=np.float32)
        p = pr.bind(tape, arrays)
        x = tape.constant(rng.normal(size=(21, 6)))
        pyr = build_pyramid(x, p, cfg)
        out = run_heads(pyr, p)
        assert [t.shape for t in out.cls_logits] == [(21, 4), (11, 4), (6, 4)]
