"""Tests for the point lattice and the classification/regression heads."""

import math

import numpy as np
import pytest

from soundloc import autodiff as ad
from soundloc import params as pr
from soundloc.backbone import BackboneConfig, Pyramid, PyramidLevel, build_pyramid, init_backbone_params
from soundloc.errors import EmptyInputError
from soundloc.heads import generate_points, init_head_params, run_heads
from tests import level_oracles


def fake_pyramid(tape, lengths, strides, d=8, seed=0):
    rng = np.random.default_rng(seed)
    levels = [
        PyramidLevel(tape.constant(rng.normal(size=(t, d))), s, (t,))
        for t, s in zip(lengths, strides)
    ]
    return Pyramid(levels)


class TestPoints:
    def test_timestamps_centered(self):
        tape = ad.Tape(dtype=np.float64)
        pyr = fake_pyramid(tape, [4], [2])
        pts = generate_points(pyr)
        np.testing.assert_array_equal(pts.timestamps, [1.0, 3.0, 5.0, 7.0])

    def test_levels_end_to_end(self):
        tape = ad.Tape(dtype=np.float64)
        pts = generate_points(fake_pyramid(tape, [4, 2, 1], [1, 2, 4]))
        np.testing.assert_array_equal(
            pts.timestamps, [0.5, 1.5, 2.5, 3.5, 1.0, 3.0, 2.0])
        np.testing.assert_array_equal(pts.strides, [1, 1, 1, 1, 2, 2, 4])
        assert pts.strides.dtype == np.int64

    def test_default_seven_level_ranges(self):
        tape = ad.Tape(dtype=np.float64)
        pyr = fake_pyramid(tape, [128, 64, 32, 16, 8, 4, 2], [1, 2, 4, 8, 16, 32, 64])
        pts = generate_points(pyr)
        first = np.cumsum([0, 128, 64, 32, 16, 8, 4])
        got = list(zip(pts.range_min[first].tolist(), pts.range_max[first].tolist()))
        assert got == [(0.0, 4.0), (4.0, 8.0), (8.0, 16.0), (16.0, 32.0),
                       (32.0, 64.0), (64.0, 128.0), (128.0, math.inf)]
        # every point of a level carries its level's range
        for col in (pts.range_min, pts.range_max, pts.strides):
            assert np.array_equal(np.repeat(col[first], pyr.lengths), col)

    def test_ranges_partition_positive_axis(self):
        tape = ad.Tape(dtype=np.float64)
        pyr = fake_pyramid(tape, [16, 8, 4], [1, 2, 4])
        pts = generate_points(pyr)
        first = np.cumsum([0, 16, 8])
        assert pts.range_min[0] == 0.0
        assert pts.range_max[-1] == math.inf
        assert np.array_equal(pts.range_max[first[:-1]], pts.range_min[first[1:]])

    def test_single_level_full_range(self):
        tape = ad.Tape(dtype=np.float64)
        pts = generate_points(fake_pyramid(tape, [10], [1]))
        assert (pts.range_min == 0.0).all() and (pts.range_max == math.inf).all()

    def test_integer_range_base(self):
        tape = ad.Tape(dtype=np.float64)
        pyr = fake_pyramid(tape, [4, 2], [1, 2])
        a, b = generate_points(pyr, 4), generate_points(pyr, 4.0)
        assert np.array_equal(a.range_min, b.range_min)
        assert np.array_equal(a.range_max, b.range_max)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_per_level_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 8))
        tape = ad.Tape(dtype=np.float64)
        pyr = fake_pyramid(tape, rng.integers(1, 40, n).tolist(),
                           rng.integers(1, 65, n).tolist(), d=2, seed=seed)
        range_base = float(rng.choice([4.0, 1.5, 0.3, 7.0]))
        got = generate_points(pyr, range_base)
        want = level_oracles.flatten(level_oracles.generate_points(pyr, range_base))
        for name in ("timestamps", "strides", "range_min", "range_max"):
            g, w = getattr(got, name), getattr(want, name)
            assert g.dtype == w.dtype and np.array_equal(g, w), name

    def test_empty_pyramid_rejected(self):
        with pytest.raises(EmptyInputError):
            generate_points(Pyramid([]))


class TestHeads:
    def bound(self, d=8, c=3, seed=0):
        rng = np.random.default_rng(seed)
        arrays = init_head_params(d, c, rng)
        tape = ad.Tape(dtype=np.float64)
        return tape, pr.bind(tape, arrays)

    def test_one_row_per_point(self):
        tape, p = self.bound()
        pyr = fake_pyramid(tape, [16, 8, 4], [1, 2, 4])
        out = run_heads(pyr, p)
        assert out.cls_logits.shape == (28, 3)
        assert out.distances.shape == (28, 2)

    def test_rows_are_the_per_level_heads(self):
        # each level's rows are its own trunk's output, levels in order
        tape, p = self.bound(seed=4)
        pyr = fake_pyramid(tape, [16, 8, 4], [1, 2, 4], seed=2)
        out = run_heads(pyr, p)
        want = level_oracles.run_heads(pyr, p)
        assert np.array_equal(out.cls_logits.values,
                              np.concatenate([t.values for t in want.cls_logits]))
        assert np.array_equal(out.distances.values,
                              np.concatenate([t.values for t in want.distances]))

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
        probs = 1.0 / (1.0 + np.exp(-out.cls_logits.values))
        assert 0.003 < probs.mean() < 0.03

    def test_distances_nonnegative_and_softplus_zero(self):
        tape, p = self.bound()
        pyr = fake_pyramid(tape, [16], [1], seed=3)
        out = run_heads(pyr, p)
        assert (out.distances.values >= 0).all()
        t2 = ad.Tape(dtype=np.float64)
        np.testing.assert_allclose(
            ad.softplus(t2.leaf(0.0)).values, math.log(2.0), rtol=1e-12)

    def test_decoded_intervals_always_ordered(self):
        tape, p = self.bound(seed=9)
        pyr = fake_pyramid(tape, [32, 16], [1, 2], seed=7)
        out = run_heads(pyr, p)
        pts = generate_points(pyr)
        start = pts.timestamps - out.distances.values[:, 0] * pts.strides
        end = pts.timestamps + out.distances.values[:, 1] * pts.strides
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
            weights = np.repeat(np.isin([0, 1], level_subset), pyr.lengths)
            masked = ad.mul(out.cls_logits, tape.constant(weights[:, None]))
            ad.backward(tape, ad.sum_all(ad.square(masked)))
            return p["head.cls.conv1.w"].grad

        both = grad_on([0, 1])
        np.testing.assert_allclose(both, grad_on([0]) + grad_on([1]), rtol=1e-10)

    def test_grad_check_through_heads(self):
        arrays = init_head_params(6, 2, np.random.default_rng(2))

        def f(x):
            p = pr.bind(x.tape, arrays)
            pyr = Pyramid([PyramidLevel(x, 1, (x.shape[0],))])
            out = run_heads(pyr, p)
            return ad.add(ad.sum_all(ad.square(out.cls_logits)),
                          ad.sum_all(ad.square(out.distances)))

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
        assert pyr.lengths == [21, 11, 6]
        assert out.cls_logits.shape == (38, 4)
        assert out.distances.shape == (38, 2)


class TestPackedVideos:
    """A pyramid of several videos: rows video after video, each as alone."""

    def packed_pyramid(self, tape, video_lengths, strides, d=8, seed=0):
        # video_lengths[v][l]: rows of video v at level l
        rng = np.random.default_rng(seed)
        per_video = [[rng.normal(size=(t, d)) for t in rows] for rows in video_lengths]
        levels = [PyramidLevel(tape.constant(np.concatenate([v[l] for v in per_video])),
                               s, tuple(rows[l] for rows in video_lengths))
                  for l, s in enumerate(strides)]
        alone = [Pyramid([PyramidLevel(tape.constant(a), s, (len(a),))
                          for a, s in zip(v, strides)]) for v in per_video]
        return Pyramid(levels), alone

    def test_points_video_after_video(self):
        tape = ad.Tape(dtype=np.float64)
        pyr, alone = self.packed_pyramid(tape, [[5, 3, 2], [1, 1, 1], [8, 4, 2]],
                                         [1, 2, 4])
        assert pyr.video_lengths == [[5, 3, 2], [1, 1, 1], [8, 4, 2]]
        got = generate_points(pyr)
        parts = got.split([10, 3, 14])
        for part, want in zip(parts, [generate_points(a) for a in alone]):
            for name in ("timestamps", "strides", "range_min", "range_max"):
                assert np.array_equal(getattr(part, name), getattr(want, name)), name

    def test_heads_rows_are_each_videos_heads(self):
        tape = ad.Tape(dtype=np.float64)
        p = pr.bind(tape, init_head_params(8, 3, np.random.default_rng(1)))
        pyr, alone = self.packed_pyramid(tape, [[6, 3], [1, 1], [9, 5]], [1, 2], seed=4)
        out = run_heads(pyr, p)
        want = [run_heads(a, p) for a in alone]
        for name in ("cls_logits", "distances"):
            joined = np.concatenate([getattr(w, name).values for w in want])
            np.testing.assert_allclose(getattr(out, name).values, joined,
                                       rtol=1e-12, atol=1e-12)
