"""Tests for the multi-scale transformer backbone."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soundloc import autodiff as ad
from soundloc import params as pr
from soundloc.backbone import (
    DEFAULT_STRIDE_SCHEDULE,
    BackboneConfig,
    build_pyramid,
    embed,
    init_backbone_params,
    transformer_block,
    windowed_msa,
)
from soundloc.config import desk_scale_config
from soundloc.data import SyntheticSpec
from soundloc.datasets import load_dataset, write_dataset
from soundloc.errors import ConfigError, ShapeError
from soundloc.model import forward_video, init_model_arrays
from soundloc.train import train


def _band_mask(t: int, window: int) -> np.ndarray:
    """Oracle: keys each query may attend, as a dense (T, T) mask."""
    offs = np.arange(t)
    keep = np.abs(offs[:, None] - offs[None, :]) <= window // 2
    np.fill_diagonal(keep, True)  # self is always attendable
    return keep


def dense_windowed_msa(x, p, prefix, window, num_heads):
    """Oracle: the quadratic attention, dense T x T scores per head, masked."""
    t, d = x.shape
    d_head = d // num_heads
    scale = 1.0 / np.sqrt(d_head)
    keep = _band_mask(t, window)

    q = ad.add(ad.matmul(x, p[f"{prefix}.wq"]), p[f"{prefix}.bq"])
    k = ad.add(ad.matmul(x, p[f"{prefix}.wk"]), p[f"{prefix}.bk"])
    v = ad.add(ad.matmul(x, p[f"{prefix}.wv"]), p[f"{prefix}.bv"])

    head_outs = []
    for h in range(num_heads):
        lo, hi = h * d_head, (h + 1) * d_head
        q_h = ad.slice_cols(q, lo, hi)
        k_h = ad.slice_cols(k, lo, hi)
        v_h = ad.slice_cols(v, lo, hi)
        scores = ad.mul(ad.matmul(q_h, ad.transpose(k_h)), x.tape.constant(scale))
        attn = ad.softmax_lastdim(scores, mask=keep)
        head_outs.append(ad.matmul(attn, v_h))
    merged = head_outs[0] if num_heads == 1 else ad.concat_cols(head_outs)
    return ad.add(ad.matmul(merged, p[f"{prefix}.wo"]), p[f"{prefix}.bo"])


def tiny_cfg(**kw):
    base = dict(input_dim=6, d_model=8, num_blocks=2, window=5, num_heads=2,
                stride_schedule=(1, 2))
    base.update(kw)
    return BackboneConfig(**base)


def bound_model(cfg, seed=0, dtype=np.float64):
    rng = np.random.default_rng(seed)
    arrays = init_backbone_params(cfg, rng)
    tape = ad.Tape(dtype=dtype)
    return tape, pr.bind(tape, arrays)


class TestConfig:
    def test_even_window_rejected(self):
        with pytest.raises(ConfigError):
            tiny_cfg(window=4).validate()

    def test_heads_must_divide_width(self):
        with pytest.raises(ConfigError):
            tiny_cfg(num_heads=3).validate()

    def test_schedule_length(self):
        with pytest.raises(ConfigError):
            tiny_cfg(stride_schedule=(1,)).validate()

    def test_stride2_before_stride1_rejected(self):
        with pytest.raises(ConfigError):
            tiny_cfg(stride_schedule=(2, 1)).validate()

    def test_full_scale_defaults(self):
        cfg = BackboneConfig()
        cfg.validate()
        assert cfg.num_blocks == 9
        assert cfg.window == 11
        assert cfg.stride_schedule == (1, 1, 1, 2, 2, 2, 2, 2, 2)


class TestEmbed:
    def test_shape_and_zero_path(self):
        cfg = tiny_cfg()
        tape, p = bound_model(cfg)
        x = tape.constant(np.zeros((16, 6)))
        out = embed(x, p, cfg)
        assert out.shape == (16, 8)
        # zero input with zero-init biases stays zero through the linear path
        np.testing.assert_array_equal(out.values, np.zeros((16, 8)))

    def test_dim_mismatch(self):
        cfg = tiny_cfg()
        tape, p = bound_model(cfg)
        with pytest.raises(ConfigError):
            embed(tape.constant(np.zeros((4, 5))), p, cfg)

    def test_grad_check(self):
        cfg = tiny_cfg()
        rng = np.random.default_rng(3)
        arrays = init_backbone_params(cfg, rng)

        def f(x):
            p = pr.bind(x.tape, arrays)
            return ad.sum_all(ad.square(embed(x, p, cfg)))

        err = ad.grad_check(f, rng.normal(size=(6, 6)))
        assert err <= 1e-4


class TestWindowedAttention:
    def test_window_covering_everything_equals_full_attention(self):
        cfg = tiny_cfg(window=2 * 8 - 1)
        tape, p = bound_model(cfg)
        rng = np.random.default_rng(1)
        x = tape.constant(rng.normal(size=(8, 8)))
        windowed = windowed_msa(x, p, "block0.attn", cfg.window, cfg.num_heads)

        # reference: same projections, no mask
        q = ad.add(ad.matmul(x, p["block0.attn.wq"]), p["block0.attn.bq"]).values
        k = ad.add(ad.matmul(x, p["block0.attn.wk"]), p["block0.attn.bk"]).values
        v = ad.add(ad.matmul(x, p["block0.attn.wv"]), p["block0.attn.bv"]).values
        outs = []
        for h in range(2):
            sl = slice(h * 4, (h + 1) * 4)
            s = q[:, sl] @ k[:, sl].T / 2.0
            a = np.exp(s - s.max(axis=-1, keepdims=True))
            a /= a.sum(axis=-1, keepdims=True)
            outs.append(a @ v[:, sl])
        ref = np.concatenate(outs, axis=1) @ p["block0.attn.wo"].values \
            + p["block0.attn.bo"].values
        np.testing.assert_allclose(windowed.values, ref, atol=1e-12)

    def test_window_11_reach_from_position_zero(self):
        # T=8, w=11: position 0 may see keys {0..5}
        keep = _band_mask(8, 11)
        np.testing.assert_array_equal(
            keep[0], [True, True, True, True, True, True, False, False])
        # zero queries give uniform weights over the attended keys, and
        # one-hot values show which keys those are
        tape = ad.Tape(dtype=np.float64)
        out = ad.local_attention(tape.constant(np.zeros((8, 8))),
                                 tape.constant(np.zeros((8, 8))),
                                 tape.constant(np.eye(8)), 11, 1)
        np.testing.assert_allclose(out.values[0], [1 / 6] * 6 + [0.0] * 2,
                                   rtol=1e-15)

    def test_bad_inputs_rejected(self):
        tape = ad.Tape(dtype=np.float64)
        a = tape.constant(np.zeros((4, 4)))
        with pytest.raises(ShapeError):
            ad.local_attention(a, a, tape.constant(np.zeros((3, 4))), 3, 1)
        with pytest.raises(ConfigError):
            ad.local_attention(a, a, a, 3, 3)
        with pytest.raises(ConfigError):
            ad.local_attention(a, a, a, 0, 1)

    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_grad_check_in_q_k_and_v(self, which):
        rng = np.random.default_rng(which)
        fixed = [rng.normal(size=(7, 4)) for _ in range(3)]
        weights = rng.normal(size=(7, 4))

        def f(x):
            args = [x if i == which else x.tape.constant(a)
                    for i, a in enumerate(fixed)]
            out = ad.local_attention(*args, 3, 2)
            return ad.sum_all(ad.mul(out, x.tape.constant(weights)))

        assert ad.grad_check(f, rng.normal(size=(7, 4))) <= 1e-4

    def test_uniform_weights_for_equal_inputs(self):
        cfg = tiny_cfg(num_blocks=1, stride_schedule=(1,), window=5)
        tape, p = bound_model(cfg)
        x = tape.constant(np.ones((9, 8)) * 0.3)
        out = windowed_msa(x, p, "block0.attn", 5, 2)
        # identical keys make attention uniform, so outputs equal a per-row
        # constant: all interior rows (full window) must coincide
        interior = out.values[2:-2]
        np.testing.assert_allclose(
            interior, np.broadcast_to(interior[0], interior.shape), atol=1e-12)

    def test_even_window_rejected(self):
        cfg = tiny_cfg()
        tape, p = bound_model(cfg)
        with pytest.raises(ConfigError):
            windowed_msa(tape.constant(np.zeros((4, 8))), p, "block0.attn", 4, 2)


@st.composite
def attention_cases(draw):
    t = draw(st.integers(min_value=1, max_value=300))
    wide = 2 * t + 1 + 2 * draw(st.integers(min_value=0, max_value=3))
    window = draw(st.sampled_from([1, 3, 5, 11, wide]))
    heads = draw(st.sampled_from([1, 2, 4]))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return t, window, heads, seed


class TestBandedAgainstDense:
    """windowed_msa on the band against the dense oracle above."""

    @settings(max_examples=60, deadline=None)
    @given(attention_cases())
    def test_float32_forward(self, case):
        t, window, heads, seed = case
        cfg = tiny_cfg(num_heads=heads, window=window)
        tape, p = bound_model(cfg, seed=seed % 7, dtype=np.float32)
        x = tape.constant(np.random.default_rng(seed).normal(size=(t, 8)))
        got = windowed_msa(x, p, "block0.attn", window, heads).values
        want = dense_windowed_msa(x, p, "block0.attn", window, heads).values
        assert got.dtype == want.dtype == np.float32
        assert (np.abs(got - want) <= 1e-6 * np.maximum(1.0, np.abs(want))).all()

    @settings(max_examples=40, deadline=None)
    @given(attention_cases())
    def test_float64_forward_and_gradients(self, case):
        t, window, heads, seed = case
        cfg = tiny_cfg(num_heads=heads, window=window)
        arrays = init_backbone_params(cfg, np.random.default_rng(seed % 7))
        # branch weights large enough that softmax weights are far from uniform
        for name in ("wq", "wk", "wv", "wo"):
            arrays[f"block0.attn.{name}"] *= 50.0
        rng = np.random.default_rng(seed)
        x0 = rng.normal(size=(t, 8))
        weights = rng.normal(size=(t, 8))

        def run(msa):
            tape = ad.Tape(dtype=np.float64)
            p = pr.bind(tape, arrays)
            x = tape.leaf(x0)
            out = msa(x, p, "block0.attn", window, heads)
            ad.backward(tape, ad.sum_all(ad.mul(out, tape.constant(weights))))
            grads = {n: p[n].grad for n in p if n.startswith("block0.attn.")}
            return out.values, x.grad, grads

        got, got_dx, got_dp = run(windowed_msa)
        want, want_dx, want_dp = run(dense_windowed_msa)

        def close(a, b):
            return (np.abs(a - b) <= 1e-10 * np.maximum(1.0, np.abs(b))).all()

        assert close(got, want)
        assert close(got_dx, want_dx)
        for name in want_dp:
            assert close(got_dp[name], want_dp[name]), name

    @pytest.mark.parametrize("t", [16, 4096])
    def test_records_do_not_grow_with_length(self, t):
        cfg = tiny_cfg()
        tape, p = bound_model(cfg, dtype=np.float32)
        x = tape.constant(np.ones((t, 8)))
        before = len(tape._nodes)
        windowed_msa(x, p, "block0.attn", 11, 2)
        # 3 projections, one local_attention, the output projection, each
        # projection one record with its bias
        assert len(tape._nodes) - before == 5


class TestForwardRecords:
    @pytest.mark.parametrize("t", [64, 1000])
    def test_desk_forward_pass_record_count(self, t):
        # embedding 4; five blocks of 14, plus 1 for each of the three
        # downsamplings; heads: one join of the four levels, 7 per trunk for
        # the two trunks and one softplus: 4 + 73 + 16, whatever the length
        # (a bias is part of its matmul or conv1d). 136 when each trunk ran
        # once per level
        cfg = desk_scale_config().model
        tape = ad.Tape(dtype=np.float32)
        bound = pr.bind(tape, init_model_arrays(cfg, seed=0))
        forward_video(bound, cfg, [np.zeros((t, cfg.backbone.input_dim))], tape)
        assert len(tape._nodes) == 4 + 73 + 1 + 2 * 7 + 1 == 93

    def test_packed_forward_pass_records_as_one_video(self):
        cfg = desk_scale_config().model
        tape = ad.Tape(dtype=np.float32)
        bound = pr.bind(tape, init_model_arrays(cfg, seed=0))
        forward_video(bound, cfg, [np.zeros((t, cfg.backbone.input_dim))
                                   for t in (64, 37, 1, 200)], tape)
        assert len(tape._nodes) == 93


class TestTransformerBlock:
    def test_stride1_preserves_length(self):
        cfg = tiny_cfg(num_blocks=1, stride_schedule=(1,))
        tape, p = bound_model(cfg)
        x = tape.constant(np.random.default_rng(0).normal(size=(13, 8)))
        out = transformer_block(x, p, 0, cfg)
        assert out.shape == (13, 8)

    def test_stride2_ceil_length(self):
        cfg = tiny_cfg(num_blocks=1, stride_schedule=(2,))
        tape, p = bound_model(cfg)
        x = tape.constant(np.random.default_rng(0).normal(size=(9, 8)))
        out = transformer_block(x, p, 0, cfg)
        assert out.shape == (5, 8)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_zero_scales_pass_input_through(self, stride):
        # with both branch scales zero, each branch adds nothing to its
        # input: the block is x, then the stride-2 convolution if scheduled
        cfg = tiny_cfg(num_blocks=1, stride_schedule=(stride,))
        rng = np.random.default_rng(5)
        arrays = init_backbone_params(cfg, rng)
        arrays["block0.scale_attn"][:] = 0.0
        arrays["block0.scale_mlp"][:] = 0.0
        tape = ad.Tape(dtype=np.float64)
        p = pr.bind(tape, arrays)
        x = tape.constant(rng.normal(size=(10, 8)))
        out = transformer_block(x, p, 0, cfg)
        want = x if stride == 1 else ad.conv1d(
            x, p["block0.down.w"], stride=2, bias=p["block0.down.b"])
        np.testing.assert_array_equal(out.values, want.values)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_block_gradients(self, stride):
        cfg = tiny_cfg(num_blocks=1, stride_schedule=(stride,))
        rng = np.random.default_rng(2)
        arrays = init_backbone_params(cfg, rng)
        # scales of order 1, so that both branches' gradients count
        for name in ("block0.scale_attn", "block0.scale_mlp"):
            arrays[name][:] = rng.uniform(0.5, 1.5, size=cfg.d_model)

        def f(x):
            p = pr.bind(x.tape, arrays)
            out = transformer_block(x, p, 0, cfg)
            return ad.sum_all(ad.square(out))

        err = ad.grad_check(f, rng.normal(size=(6, 8)))
        assert err <= 1e-4, f"stride {stride}: {err}"


class TestFullDepthLearning:
    def test_full_scale_depth_learns(self, tmp_path):
        # the full-scale depth and 3+6 stride schedule at desk width, with
        # the desk preset's training settings. On one BLAS thread this
        # reached best val mAP 0.886 in 1.6 s, and 0.121 without the
        # attention branch's residual (0.884 and 0.078 on two threads)
        write_dataset(tmp_path / "data",
                      SyntheticSpec(num_videos=24, duration_sec=256.0,
                                    events_per_video=(2, 6), seed=7),
                      split_counts=(16, 8, 0))
        cfg = desk_scale_config()
        cfg.model.backbone = BackboneConfig(
            input_dim=40, d_model=32, num_blocks=9,
            stride_schedule=DEFAULT_STRIDE_SCHEDULE)
        cfg.epochs, cfg.warmup_epochs, cfg.seed = 6, 1, 1
        manifest = train(cfg, load_dataset(tmp_path / "data"), tmp_path / "run")
        assert manifest.best_val_map >= 0.6


class TestPyramid:
    def test_default_schedule_lengths_and_strides(self):
        cfg = BackboneConfig(input_dim=6, d_model=8, num_heads=2)
        tape, p = bound_model(cfg)
        x = tape.constant(np.random.default_rng(0).normal(size=(128, 6)))
        pyr = build_pyramid(x, p, cfg)
        assert pyr.lengths == [128, 64, 32, 16, 8, 4, 2]
        assert pyr.strides == [1, 2, 4, 8, 16, 32, 64]

    def test_t1_degenerate_but_valid(self):
        cfg = tiny_cfg()
        tape, p = bound_model(cfg)
        x = tape.constant(np.random.default_rng(0).normal(size=(1, 6)))
        pyr = build_pyramid(x, p, cfg)
        assert pyr.lengths == [1, 1]

    def test_degenerate_warning_names_each_short_video(self, caplog):
        # packed, the level lengths are sums over videos; the check runs
        # per video, so a short video beside a long one still warns
        cfg = tiny_cfg()
        tape, p = bound_model(cfg)
        x = tape.constant(np.random.default_rng(0).normal(size=(66, 6)))
        with caplog.at_level("WARNING", logger="soundloc.backbone"):
            pyr = build_pyramid(x, p, cfg, [64, 2])
        assert pyr.lengths == [66, 33]
        assert [r.getMessage() for r in caplog.records] == [
            "degenerate pyramid: some level collapsed to length <= 1 (input T=2)"]
        caplog.clear()
        with caplog.at_level("WARNING", logger="soundloc.backbone"):
            build_pyramid(x, p, cfg, [33, 33])
        assert not caplog.records

    @pytest.mark.parametrize("segments", [[3, 0, 3], [2, 2]])
    def test_bad_segments_rejected(self, segments):
        from soundloc.errors import EmptyInputError
        cfg = tiny_cfg()
        tape, p = bound_model(cfg)
        error = EmptyInputError if 0 in segments else ShapeError
        with pytest.raises(error):
            build_pyramid(tape.constant(np.zeros((6, 6))), p, cfg, segments)

    def test_packed_videos_match_each_alone(self):
        # every window stays inside its video; the GEMMs over more rows may
        # round a row differently in the last float32 bits
        cfg = tiny_cfg(num_blocks=4, stride_schedule=(1, 2, 2, 2), window=5)
        arrays = init_backbone_params(cfg, np.random.default_rng(4))
        rng = np.random.default_rng(5)
        videos = [rng.normal(size=(t, 6)) for t in (37, 1, 4, 64, 11)]
        tape = ad.Tape(dtype=np.float32, record=False)
        bound = pr.bind(tape, arrays)
        packed = build_pyramid(tape.constant(np.concatenate(videos)), bound, cfg,
                               [len(v) for v in videos])
        alone = [build_pyramid(tape.constant(v), bound, cfg) for v in videos]
        assert packed.video_lengths == [a.lengths for a in alone]
        for level, lvl in enumerate(packed.levels):
            want = np.concatenate([a.levels[level].features.values for a in alone])
            got = lvl.features.values
            assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max(), level

    def test_forward_video_takes_a_sequence_of_matrices(self):
        cfg = desk_scale_config().model
        tape = ad.Tape(dtype=np.float32, record=False)
        bound = pr.bind(tape, init_model_arrays(cfg, seed=0))
        for bad in (np.zeros((8, cfg.backbone.input_dim)), []):
            with pytest.raises(ShapeError, match="sequence"):
                forward_video(bound, cfg, bad, tape)

    def test_zero_timesteps_rejected(self):
        from soundloc.errors import EmptyInputError
        cfg = tiny_cfg()
        tape, p = bound_model(cfg)
        with pytest.raises(EmptyInputError, match="too short"):
            build_pyramid(tape.constant(np.zeros((0, 6))), p, cfg)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=512))
    def test_shape_law_property(self, t):
        cfg = tiny_cfg(num_blocks=4, stride_schedule=(1, 2, 2, 2), window=3,
                       num_heads=1)
        tape, p = bound_model(cfg, dtype=np.float32)
        x = tape.constant(np.random.default_rng(0).normal(size=(t, 6)))
        pyr = build_pyramid(x, p, cfg)
        lengths = pyr.lengths
        assert lengths[0] == t
        for prev, cur in zip(lengths, lengths[1:]):
            assert cur == -(-prev // 2)

    def test_locality_single_block(self):
        # 1 stride-1 block, w=3: receptive field is floor(w/2)=1 plus one
        # halo per kernel-3 convolution in the embedding (2 convs)
        cfg = tiny_cfg(num_blocks=1, stride_schedule=(1,), window=3, num_heads=2)
        rng = np.random.default_rng(11)
        arrays = init_backbone_params(cfg, rng)
        # unit branch scales so the perturbation is visible where it lands
        arrays["block0.scale_attn"][:] = 1.0
        arrays["block0.scale_mlp"][:] = 1.0
        x0 = rng.normal(size=(32, 6))

        def run(xv):
            tape = ad.Tape(dtype=np.float64)
            p = pr.bind(tape, arrays)
            return build_pyramid(tape.constant(xv), p, cfg).levels[0].features.values

        base = run(x0)
        t_hit = 16
        x1 = x0.copy()
        x1[t_hit] += 1.0
        moved = np.abs(run(x1) - base).max(axis=1)
        reach = 1 + 2
        assert (moved[:t_hit - reach] <= 1e-9).all()
        assert (moved[t_hit + reach + 1:] <= 1e-9).all()
        assert moved[t_hit] > 1e-6

    def test_no_record_tape_same_values_and_no_records(self):
        cfg = tiny_cfg(num_blocks=3, stride_schedule=(1, 2, 2))
        arrays = init_backbone_params(cfg, np.random.default_rng(4))
        x0 = np.random.default_rng(5).normal(size=(37, 6))
        levels = {}
        for record in (True, False):
            tape = ad.Tape(dtype=np.float32, record=record)
            pyr = build_pyramid(tape.constant(x0), pr.bind(tape, arrays), cfg)
            levels[record] = [lvl.features.values for lvl in pyr.levels]
            assert (len(tape._nodes) > 0) == record
        for a, b in zip(levels[True], levels[False]):
            assert np.array_equal(a, b)

    def test_full_grad_check_two_blocks(self):
        cfg = tiny_cfg(num_blocks=2, stride_schedule=(1, 2))
        arrays = init_backbone_params(cfg, np.random.default_rng(0))

        def f(x):
            p = pr.bind(x.tape, arrays)
            pyr = build_pyramid(x, p, cfg)
            total = None
            for lvl in pyr.levels:
                s = ad.sum_all(ad.square(lvl.features))
                total = s if total is None else ad.add(total, s)
            return total

        err = ad.grad_check(f, np.random.default_rng(1).normal(size=(12, 6)))
        assert err <= 1e-4
