import dataclasses
import gc
import importlib
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from crossview import pipeline, refiner
from crossview.geometry import BevGridSpec, SceneSpec
from crossview.pipeline import ground_similarity, run_localization
from crossview.refiner import (_SINGLE_EXP_RANGE, RefinerParams,
                               SimilarityMatrix, _col_argmax,
                               dustbin_extend, extract_matches,
                               gate_values, global_residual,
                               initial_similarity, local_residual,
                               match_probabilities,
                               normalize_doubly_stochastic, refine)
from crossview.solver import pose_error
from crossview.surface import BevFeatureMap
from crossview.synthetic import make_scene_bundle
from crossview.tensorio import save_tensor, save_tensor_dir

from conftest import col_softmax, conv3d, factored, row_softmax

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def unit_rows(rng, n, c):
    f = rng.standard_normal((n, n, c))
    return f / np.linalg.norm(f, axis=2, keepdims=True)


def with_conv_chain(params: RefinerParams, channels, seed: int) -> RefinerParams:
    """``params`` with three conv layers drawn afresh along the channel chain ``channels``."""
    rng = np.random.default_rng(seed)
    pairs = list(zip(channels[:-1], channels[1:]))
    return dataclasses.replace(
        params,
        conv_kernels=tuple(0.1 * rng.standard_normal((c_out, c_in, 3, 3, 3))
                           for c_in, c_out in pairs),
        conv_biases=tuple(0.1 * rng.standard_normal(c_out) for _, c_out in pairs))


class TestInitialSimilarity:
    def test_identical_unit_features_have_diagonal_ten(self):
        rng = np.random.default_rng(0)
        f = unit_rows(rng, 3, 8)
        s = initial_similarity(BevFeatureMap(f), BevFeatureMap(f.copy()), tau=0.1)
        assert np.allclose(np.diag(s.s), 10.0, atol=1e-12)

    def test_orthogonal_features_score_zero(self):
        a = np.zeros((2, 2, 4))
        b = np.zeros((2, 2, 4))
        a[..., 0] = 1.0
        b[..., 1] = 1.0
        s = initial_similarity(BevFeatureMap(a), BevFeatureMap(b), tau=0.1)
        assert np.allclose(s.s, 0.0)

    def test_forty_five_degree_pair(self):
        a = np.zeros((2, 2, 2))
        b = np.zeros((2, 2, 2))
        a[..., 0] = 1.0
        b[..., :] = 1.0 / math.sqrt(2.0)
        s = initial_similarity(BevFeatureMap(a), BevFeatureMap(b), tau=0.1)
        assert np.allclose(s.s, 10.0 * math.cos(math.pi / 4), atol=1e-12)

    def test_zero_norm_row_rejected(self):
        a = np.zeros((2, 2, 3))
        a[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            initial_similarity(BevFeatureMap(a), BevFeatureMap(np.ones((2, 2, 3))), tau=0.1)

    def test_invariant_to_positive_row_rescaling(self):
        rng = np.random.default_rng(1)
        f = rng.standard_normal((3, 3, 5))
        g = rng.standard_normal((3, 3, 5))
        scaled = f.copy()
        scaled[1, 2] *= 37.5
        s1 = initial_similarity(BevFeatureMap(f), BevFeatureMap(g), tau=0.1)
        s2 = initial_similarity(BevFeatureMap(scaled), BevFeatureMap(g), tau=0.1)
        assert np.allclose(s1.s, s2.s, atol=1e-12)

    def test_entries_bounded_by_inverse_tau(self):
        rng = np.random.default_rng(2)
        s = initial_similarity(BevFeatureMap(rng.normal(size=(4, 4, 6))),
                               BevFeatureMap(rng.normal(size=(4, 4, 6))), tau=0.1)
        assert np.all(np.abs(s.s) <= 10.0 + 1e-9)

    @pytest.mark.parametrize("c", [16, 4096])
    @pytest.mark.parametrize("tau", [np.finfo(float).tiny, 1e-308], ids=["tiny", "1e-308"])
    def test_smallest_accepted_temperature_gives_a_finite_matrix(self, tau, c):
        # unit rows bound |s| by (1 + 1e-12) / tau, which check_temperature keeps finite
        f = BevFeatureMap(np.random.default_rng(c).standard_normal((3, 3, c)))
        s = initial_similarity(f, f, tau)
        assert np.all(np.isfinite(s.s))
        assert all(np.all(np.isfinite(factor)) for factor in s.factors)
        assert np.all(np.abs(s.s) <= (1 + 1e-12) / tau)
        assert np.allclose(np.diag(s.s), 1 / tau, rtol=1e-12, atol=0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            initial_similarity(BevFeatureMap(np.ones((2, 2, 3))),
                               BevFeatureMap(np.ones((3, 3, 3))), tau=0.1)

    @pytest.mark.parametrize("tau", [math.inf, math.nan, 0.0, -1.0, 5e-324, 1e-310])
    def test_non_finite_or_non_positive_tau_rejected(self, tau):
        # tau = inf would otherwise divide every entry to zero without an error;
        # a tau whose inverse overflows is rejected before the product makes inf
        f = BevFeatureMap(np.ones((2, 2, 3)))
        with pytest.raises(ValueError, match="temperature must be finite and positive"):
            initial_similarity(f, f, tau=tau)

    @pytest.mark.parametrize("side", ["ground", "aerial"])
    def test_overflowing_feature_norm_rejected(self, side):
        # finite entries whose norm overflows would divide their row to zero
        plain = np.ones((3, 3, 4))
        huge = plain.copy()
        huge[1, 2] = 1e200
        f_grd, f_sat = (huge, plain) if side == "ground" else (plain, huge)
        with pytest.raises(ValueError, match="feature row norm overflows"):
            initial_similarity(BevFeatureMap(f_grd), BevFeatureMap(f_sat), tau=0.1)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("side", ["ground", "aerial"])
    def test_non_finite_feature_row_rejected(self, side, value):
        # a BevFeatureMap does not scan its values; the row norm check refuses them
        plain = np.ones((3, 3, 4))
        bad = plain.copy()
        bad[2, 0, 1] = value
        f_grd, f_sat = (bad, plain) if side == "ground" else (plain, bad)
        with pytest.raises(ValueError, match="^feature row norm overflows or is not finite$"):
            initial_similarity(BevFeatureMap(f_grd), BevFeatureMap(f_sat), tau=0.1)

    def test_overflowing_aerial_norm_stops_localization(self, small_specs):
        inputs = make_scene_bundle(small_specs, seed=3).inputs
        f_sat = inputs.f_sat.data.copy()
        f_sat[4, 4] = 1e200
        with pytest.raises(ValueError, match="feature row norm overflows"):
            run_localization(inputs.volume, inputs.conf_logits,
                             BevFeatureMap(f_sat), small_specs)

    @pytest.mark.parametrize("tau", [0.1, 0.07, 1.0])
    def test_entries_are_the_scaled_cosine_product_bit_for_bit(self, tau):
        # the arithmetic of un-refined solves, which localize-n41 and the README pin
        rng = np.random.default_rng(3)
        fg = rng.standard_normal((81, 16))
        fs = rng.standard_normal((81, 16))
        s = initial_similarity(BevFeatureMap(fg.reshape(9, 9, 16)),
                               BevFeatureMap(fs.reshape(9, 9, 16)), tau)
        ng = np.linalg.norm(fg, axis=1)[:, None]
        ns = np.linalg.norm(fs, axis=1)[:, None]
        assert np.array_equal(s.s, ((fg / ng) @ (fs / ns).T) / tau)
        ground, aerial = s.factors
        assert np.array_equal(ground, (fg / ng) / tau)
        assert np.array_equal(aerial, fs / ns)


class TestSimilarityFactors:
    @pytest.mark.parametrize("n2", [9, 16, 81])
    def test_trivial_factors_reproduce_the_matrix_and_its_products(self, n2):
        # the conftest helper that lets tests refine a hand-made matrix
        rng = np.random.default_rng(n2)
        m = rng.normal(0, 2, (n2, n2))
        w = rng.standard_normal((n2, 64))
        sim = factored(m)
        ground, aerial = sim.factors
        assert np.array_equal(sim.s, m)
        assert np.array_equal(ground @ (aerial.T @ w), m @ w)


def dense_affine_stack(m, weights, biases):
    """The affine stack over the rows of the dense matrix ``m``, first layer ``m @ W0``."""
    out = m
    for i, (w, b) in enumerate(zip(weights, biases)):
        out = out @ w.astype(float) + b.astype(float)
        if i < len(weights) - 1:
            out = np.maximum(out, 0.0)
    return out


def assert_factored_stages_match_dense(sim, params):
    """gate_values and global_residual through the factors against ``s @ W`` to 1e-12 relative."""
    glob = global_residual(sim, params)
    dense = dense_affine_stack(sim.s, params.global_weights, params.global_biases)
    assert np.abs(glob - dense).max() <= 1e-12 * np.abs(dense).max()
    gate = gate_values(sim, params)
    logits = dense_affine_stack(sim.s, params.gate_weights, params.gate_biases)[:, 0]
    dense = 1.0 / (1.0 + np.exp(-logits))
    assert np.abs(gate - dense).max() <= 1e-12 * np.abs(dense).max()


class TestFactoredStages:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_match_dense_products_on_random_features(self, seed):
        rng = np.random.default_rng(seed)
        sim = initial_similarity(BevFeatureMap(rng.standard_normal((9, 9, 16))),
                                 BevFeatureMap(rng.standard_normal((9, 9, 16))), 0.1)
        params = RefinerParams.random(81, scale=0.1, seed=seed)
        assert_factored_stages_match_dense(sim, params)
        # refine adds the global residual into the local one by depth slices of 9 rows
        logits = dense_affine_stack(sim.s, params.gate_weights, params.gate_biases)[:, 0]
        glob = dense_affine_stack(sim.s, params.global_weights, params.global_biases)
        dense = sim.s + (local_residual(sim, params) + glob) / (1.0 + np.exp(-logits))[:, None]
        refined = refine(sim, params).s
        assert np.abs(refined - dense).max() <= 1e-12 * np.abs(dense).max()

    @pytest.mark.parametrize("stage", [gate_values, global_residual, refine],
                             ids=lambda f: f.__name__)
    def test_bare_matrix_rejected(self, stage):
        rng = np.random.default_rng(4)
        bare = SimilarityMatrix(rng.normal(size=(16, 16)))
        with pytest.raises(ValueError, match="initial_similarity"):
            stage(bare, RefinerParams.random(16, seed=5))

    def test_spent_matrix_cannot_be_refined(self):
        rng = np.random.default_rng(8)
        sim = initial_similarity(BevFeatureMap(rng.standard_normal((4, 4, 3))),
                                 BevFeatureMap(rng.standard_normal((4, 4, 3))), 0.1)
        match_probabilities(sim, None)
        with pytest.raises(ValueError, match="initial_similarity"):
            refine(sim, RefinerParams.random(16, seed=9))

    def test_refined_matrix_is_bare_and_not_refined_again(self):
        rng = np.random.default_rng(6)
        params = RefinerParams.random(16, seed=7)
        refined = refine(factored(rng.normal(size=(16, 16))), params)
        assert refined.factors is None
        with pytest.raises(ValueError, match="initial_similarity"):
            refine(refined, params)


def conv3d_naive(x, kernel, bias):
    """Triple spatial loop reference for the 3x3x3 cross-correlation."""
    in_c, d, h, w = x.shape
    out_c = kernel.shape[0]
    padded = np.zeros((in_c, d + 2, h + 2, w + 2))
    padded[:, 1:-1, 1:-1, 1:-1] = x
    out = np.zeros((out_c, d, h, w))
    for z in range(d):
        for y in range(h):
            for xx in range(w):
                window = padded[:, z:z + 3, y:y + 3, xx:xx + 3]
                for oc in range(out_c):
                    out[oc, z, y, xx] = np.sum(kernel[oc] * window) + bias[oc]
    return out


def local_residual_naive(s, params, conv=conv3d_naive):
    """The conv stack run layer by layer over whole cubes, with ``conv`` per layer."""
    n2 = s.s.shape[0]
    n = math.isqrt(n2)
    x = s.s.reshape(n, n, n2)[None]
    last = len(params.conv_kernels) - 1
    for i, (k, b) in enumerate(zip(params.conv_kernels, params.conv_biases)):
        x = conv(x, k.astype(float), b.astype(float))
        if i < last:
            x = np.maximum(x, 0.0)
    return x[0].reshape(n2, n2)


class TestLocalResidual:
    def test_zero_input_zero_bias_gives_zero(self):
        params = RefinerParams.random(16, seed=3)
        params = RefinerParams(
            conv_kernels=params.conv_kernels,
            conv_biases=tuple(np.zeros_like(b) for b in params.conv_biases),
            global_weights=params.global_weights, global_biases=params.global_biases,
            gate_weights=params.gate_weights, gate_biases=params.gate_biases,
            dustbin_row=params.dustbin_row, dustbin_col=params.dustbin_col,
            dustbin_theta=params.dustbin_theta)
        s = SimilarityMatrix(np.zeros((16, 16)))
        assert np.array_equal(local_residual(s, params), np.zeros((16, 16)))

    def test_delta_kernels_pass_nonnegative_input_through(self):
        # single-channel chain of center-tap kernels; ReLU is inactive on >= 0
        delta = np.zeros((1, 1, 3, 3, 3))
        delta[0, 0, 1, 1, 1] = 1.0
        params = dataclasses.replace(RefinerParams.random(16, seed=4),
                                     conv_kernels=(delta, delta, delta),
                                     conv_biases=tuple(np.zeros(1) for _ in range(3)))
        rng = np.random.default_rng(5)
        s = SimilarityMatrix(np.abs(rng.normal(size=(16, 16))))
        assert np.allclose(local_residual(s, params), s.s, atol=1e-6)

    def test_matches_naive_convolution(self):
        rng = np.random.default_rng(6)
        n = 4
        params = with_conv_chain(RefinerParams.random(n * n, seed=7), (1, 3, 3, 1), seed=7)
        s = SimilarityMatrix(rng.normal(size=(n * n, n * n)))
        fast = local_residual(s, params)
        slow = local_residual_naive(s, params)
        assert np.allclose(fast, slow, atol=1e-10)

    def test_conv3d_against_naive(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 3, 4, 5))
        kernel = rng.normal(size=(3, 2, 3, 3, 3))
        bias = rng.normal(size=3)
        assert np.allclose(conv3d(x, kernel, bias), conv3d_naive(x, kernel, bias),
                           atol=1e-10)

    def test_leaves_no_reference_cycles(self):
        # a cycle holding the conv rings would keep them alive until the collector runs
        rng = np.random.default_rng(11)
        params = RefinerParams.random(81, seed=12)
        s = SimilarityMatrix(rng.normal(size=(81, 81)))
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            local_residual(s, params)
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    def test_repeat_calls_are_bit_identical(self):
        # each call starts its rings at the same rotation phase, whatever ran before
        rng = np.random.default_rng(13)
        s9 = SimilarityMatrix(rng.normal(size=(81, 81)))
        s5 = SimilarityMatrix(rng.normal(size=(25, 25)))
        p9 = RefinerParams.random(81, seed=14)
        p5 = RefinerParams.random(25, seed=15)
        first = local_residual(s9, p9)
        assert np.array_equal(local_residual(s9, p9), first)
        local_residual(s5, p5)
        assert np.array_equal(local_residual(s9, p9), first)

    def test_non_square_patch_count_rejected(self):
        params = RefinerParams.random(15, seed=9)
        with pytest.raises(ValueError):
            local_residual(SimilarityMatrix(np.zeros((15, 15))), params)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("channels", [(1, 3, 2, 1), (1, 8, 8, 1)], ids=str)
def test_streamed_stack_equals_layer_by_layer_conv3d(n, channels):
    # n=1 is a single depth slice; n=2 and 3 cover the first and last ring steps
    rng = np.random.default_rng(40 + n)
    params = with_conv_chain(RefinerParams.random(n * n, seed=41 + n), channels, seed=41 + n)
    s = SimilarityMatrix(rng.normal(size=(n * n, n * n)))
    assert np.array_equal(local_residual(s, params), local_residual_naive(s, params, conv=conv3d))


@pytest.mark.parametrize("window", [1, 2, 4])
@pytest.mark.parametrize("n", [3, 4])
def test_aerial_windows_match_naive(monkeypatch, n, window):
    # windows narrower than the 3-cell halo, short last windows (9 cells in windows of
    # 2 and 4) and windows at both ends of W, where the halo is clipped
    monkeypatch.setattr(refiner, "_W_WINDOW", window)
    rng = np.random.default_rng(60 + n)
    params = RefinerParams.random(n * n, seed=61 + n)
    s = SimilarityMatrix(rng.normal(size=(n * n, n * n)))
    before = s.s.copy()
    assert np.allclose(local_residual(s, params), local_residual_naive(s, params), atol=1e-10)
    assert np.array_equal(s.s, before)


def assert_in_place_refinement_matches_dense_oracle(n, seed):
    """``_refine_in_place`` equals ``refine`` on a copy bit for bit, both within 1e-12 of
    the dense oracle, and spends its input while ``refine`` leaves it as it was."""
    rng = np.random.default_rng(seed)
    params = RefinerParams.random(n * n, seed=seed + 1)
    sim = factored(rng.normal(size=(n * n, n * n)))
    s = sim.s.copy()
    logits = dense_affine_stack(s, params.gate_weights, params.gate_biases)[:, 0]
    glob = dense_affine_stack(s, params.global_weights, params.global_biases)
    local = local_residual_naive(sim, params, conv=conv3d)
    oracle = s + (local + glob) / (1.0 + np.exp(-logits))[:, None]
    copied = refine(sim, params)
    assert np.array_equal(sim.s, s) and sim.factors is not None
    refined = refiner._refine_in_place(sim, params)
    assert refined.s is sim.s and sim.factors is None and refined.factors is None
    assert np.array_equal(refined.s, copied.s)
    assert np.abs(refined.s - oracle).max() <= 1e-12 * np.abs(oracle).max()


@pytest.mark.parametrize("window", [1, 2, 4, None], ids=lambda w: f"window={w or 'N^2'}")
@pytest.mark.parametrize("n", [3, 4, 9])
def test_in_place_refinement_matches_dense_oracle(monkeypatch, n, window):
    # in place, the columns left of a window already hold outputs, so its left halo comes
    # from a carry of their original values: windows narrower than the 3-cell halo, and
    # windows near the left end, where the halo is clipped at 0, carry 1 to 3 columns
    monkeypatch.setattr(refiner, "_W_WINDOW", window or n * n)
    assert_in_place_refinement_matches_dense_oracle(n, 80 + n)


@pytest.mark.parametrize("extra", [0, 1, 1000])
@pytest.mark.parametrize("n", [3, 4])
def test_one_window_covers_the_whole_aerial_axis(monkeypatch, n, extra):
    # a window of N^2 cells or more is one run over the whole of W, bit for bit
    monkeypatch.setattr(refiner, "_W_WINDOW", n * n + extra)
    rng = np.random.default_rng(70 + n)
    params = RefinerParams.random(n * n, seed=71 + n)
    s = SimilarityMatrix(rng.normal(size=(n * n, n * n)))
    before = s.s.copy()
    assert np.array_equal(local_residual(s, params), local_residual_naive(s, params, conv=conv3d))
    assert np.array_equal(s.s, before)


@pytest.mark.parametrize("chunk,rows", [(7, 3), (5, 1)], ids=str)
def test_relu_per_chunk_matches_whole_cube_relu(monkeypatch, chunk, rows):
    # n=3: spans of 31 positions end on a partial im2col chunk, and a 1-row input
    # chunk (11 positions) is shorter than the last tap offset (24), so it completes
    # no output; the ReLU of every layer but the last must still cover each output once
    monkeypatch.setattr(refiner, "_IM2COL_CHUNK", chunk)
    monkeypatch.setattr(refiner, "_TAP_ROWS", rows)
    rng = np.random.default_rng(50)
    params = with_conv_chain(RefinerParams.random(9, seed=51), (1, 3, 2, 1), seed=52)
    s = SimilarityMatrix(rng.normal(size=(9, 9)))
    assert np.allclose(local_residual(s, params), local_residual_naive(s, params), atol=1e-10)


class TestConv3dShapes:
    """Against the naive oracle on shapes that exercise the padded-width span arithmetic."""

    @pytest.mark.parametrize("dhw", [(1, 1, 1), (1, 4, 5), (4, 1, 5), (4, 5, 1), (3, 4, 6),
                                     (3, 6, 4)], ids=lambda dhw: "x".join(map(str, dhw)))
    @pytest.mark.parametrize("in_c,out_c", [(1, 1), (1, 3), (3, 1), (2, 3)],
                             ids=lambda c: str(c))
    def test_matches_naive(self, dhw, in_c, out_c):
        rng = np.random.default_rng(sum(dhw) * 10 + in_c * 3 + out_c)
        x = rng.normal(size=(in_c, *dhw))
        kernel = rng.normal(size=(out_c, in_c, 3, 3, 3))
        bias = rng.normal(size=out_c)
        out = conv3d(x, kernel, bias)
        assert out.shape == (out_c, *dhw)
        assert np.allclose(out, conv3d_naive(x, kernel, bias), atol=1e-10)

    @pytest.mark.parametrize("chunk,rows", [(7, 3), (1, 1)], ids=lambda c: str(c))
    @pytest.mark.parametrize("dhw", [(3, 6, 5), (2, 8, 3)],
                             ids=lambda dhw: "x".join(map(str, dhw)))
    @pytest.mark.parametrize("in_c,out_c", [(1, 3), (3, 1), (2, 4), (1, 1)],
                             ids=lambda c: str(c))
    def test_chunk_boundaries_match_naive(self, monkeypatch, dhw, in_c, out_c, chunk, rows):
        # the one-channel layer's im2col chunks and the stacked taps' row chunks shrunk:
        # spans of 40 and 38 output positions and 8 and 10 padded input rows end on a
        # partial chunk of 7 positions and 3 rows, and a 1-row chunk is shorter than a tap offset
        monkeypatch.setattr(refiner, "_IM2COL_CHUNK", chunk)
        monkeypatch.setattr(refiner, "_TAP_ROWS", rows)
        rng = np.random.default_rng(sum(dhw) * 10 + in_c * 3 + out_c)
        x = rng.normal(size=(in_c, *dhw))
        kernel = rng.normal(size=(out_c, in_c, 3, 3, 3))
        bias = rng.normal(size=out_c)
        assert np.allclose(conv3d(x, kernel, bias), conv3d_naive(x, kernel, bias), atol=1e-10)

    def test_zero_kernel_returns_exactly_the_bias(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(2, 3, 4, 5))
        bias = rng.normal(size=3)
        out = conv3d(x, np.zeros((3, 2, 3, 3, 3)), bias)
        assert np.array_equal(out, np.broadcast_to(bias[:, None, None, None], out.shape))

    def test_kernel_channel_mismatch_rejected(self):
        with pytest.raises(ValueError, match="input channels"):
            conv3d(np.zeros((2, 3, 3, 3)), np.zeros((1, 3, 3, 3, 3)), np.zeros(1))


class TestPaperSizeRefiner:
    """The refiner at the paper-default n=41 (a 1681 x 1681 similarity matrix)."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_noise_free_pose_is_exact(self, seed):
        specs = SceneSpec()
        bundle = make_scene_bundle(specs, seed=seed, noise_sigma=0.0)
        params = RefinerParams.random(specs.grid.num_cells, scale=0.03, seed=seed)
        inputs = bundle.inputs
        res = run_localization(inputs.volume, inputs.conf_logits, inputs.f_sat, specs, params)
        trans_m, yaw_deg = pose_error(res.pose_px, bundle.scene.gt_pose, specs.aerial)
        assert not res.degenerate
        assert trans_m < 1e-6
        assert math.radians(yaw_deg) < 1e-8

    @staticmethod
    def bench_reference_problem(monkeypatch):
        """(reference module, its record, specs, scene inputs, params) of the benchmark's
        n=41 input."""
        # bench/ imports its modules by bare name
        monkeypatch.syspath_prepend(str(BENCH_DIR))
        reference = importlib.import_module("reference")
        record = json.loads(reference.REFERENCE_FILE.read_text())
        spec = reference.INPUT
        specs = SceneSpec(grid=BevGridSpec(record["input"]["n"]))
        bundle = make_scene_bundle(specs, spec["scene_seed"], noise_sigma=spec["sigma"])
        params = RefinerParams.random(specs.grid.num_cells, seed=spec["params_seed"],
                                      scale=spec["scale"])
        return reference, record, specs, bundle.inputs, params

    @classmethod
    def bench_reference_input(cls, monkeypatch):
        """(reference module, its record, similarity, params) of the benchmark's n=41 input."""
        reference, record, specs, inputs, params = cls.bench_reference_problem(monkeypatch)
        _, sim = ground_similarity(inputs.volume, inputs.conf_logits, inputs.f_sat, specs)
        return reference, record, sim, params

    def test_local_residual_matches_bench_reference(self, monkeypatch):
        reference, record, sim, params = self.bench_reference_input(monkeypatch)
        assert reference.compare(local_residual(sim, params), record) is None

    def test_local_residual_peak_memory(self, monkeypatch):
        # a full 8-channel (41, 41, 1681) cube is 181 MB; the depth wavefront
        # holds three-slice rings, the GEMM chunk buffers and the 1681 x 1681
        # result instead, each layer writing into the next ring. Rings that span
        # the whole aerial axis peaked at 62.5 MB. Over four aerial-axis windows of
        # 448 cells, read straight from the similarity, the call peaks at 36.6 MB:
        # the result (22.6 MB) and one window's rings and tap buffers (13.7 MB).
        # Refining a copy in place, each window's input columns copied into one
        # buffer (6.1 MB), peaked at 42.6 MB
        _, _, sim, params = self.bench_reference_input(monkeypatch)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            local_residual(sim, params)
            peak_mb = (tracemalloc.get_traced_memory()[1] - base) / 1e6
        finally:
            tracemalloc.stop()
        assert peak_mb < 40.0

    def test_refined_localization_peak_memory(self, monkeypatch):
        # the solve refines its 22.6 MB similarity in place, so it peaks once, in the
        # conv phase: the similarity, the global stack's hidden layer (3.4 MB), one
        # window's conv rings and tap buffers (13.7 MB), and its widened weight columns
        # and one depth slice's global product (1.1 MB), 41.2 MB. A stage of 64-row
        # blocks peaked at 41.6 MB; each window's input columns copied into one buffer
        # (6.1 MB) and the whole last global weight widened (3.4 MB) at 49.6 MB; a
        # refined matrix beside the similarity at 63.1 MB, three at 85.6 MB
        _, _, specs, inputs, params = self.bench_reference_problem(monkeypatch)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run_localization(inputs.volume, inputs.conf_logits, inputs.f_sat, specs, params)
            peak_mb = (tracemalloc.get_traced_memory()[1] - base) / 1e6
        finally:
            tracemalloc.stop()
        assert peak_mb < 46.0

    def test_factored_stages_match_dense_products(self, monkeypatch):
        _, _, sim, params = self.bench_reference_input(monkeypatch)
        assert_factored_stages_match_dense(sim, params)

    def test_global_residual_peak_memory(self, monkeypatch):
        # the last affine layer's 1681 x 1681 product is 22.6 MB; adding the bias
        # out of place made a second one, a 48.7 MB peak
        _, _, sim, params = self.bench_reference_input(monkeypatch)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            global_residual(sim, params)
            peak_mb = (tracemalloc.get_traced_memory()[1] - base) / 1e6
        finally:
            tracemalloc.stop()
        assert peak_mb < 35.0

    @pytest.mark.parametrize("with_params", [False, True], ids=["no-params", "params"])
    def test_dustbin_extend_is_the_slice_assigned_extension(self, monkeypatch, with_params):
        _, _, sim, params = self.bench_reference_input(monkeypatch)
        n2 = sim.num_patches
        ref = np.zeros((n2 + 1, n2 + 1))
        ref[:n2, :n2] = sim.s
        if with_params:
            ref[:n2, n2] = params.dustbin_col
            ref[n2, :n2] = params.dustbin_row
            ref[n2, n2] = params.dustbin_theta
        out = dustbin_extend(sim, params if with_params else None)
        assert out.dtype == ref.dtype and out.shape == ref.shape
        assert out.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("with_params", [False, True], ids=["no-params", "params"])
    def test_match_probabilities_is_extend_then_normalize_bit_for_bit(self, monkeypatch,
                                                                       with_params):
        # the factored input lets match_probabilities skip its min scan; the
        # bare copy goes through the scan, and the bits agree
        _, _, sim, params = self.bench_reference_input(monkeypatch)
        params = params if with_params else None
        ref = normalize_doubly_stochastic(dustbin_extend(SimilarityMatrix(sim.s.copy()), params))
        assert sim.factors is not None
        assert match_probabilities(sim, params).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("with_params", [False, True], ids=["no-params", "params"])
    def test_match_probabilities_peak_memory(self, monkeypatch, with_params):
        # one 1681 x 1681 float64 is 22.6 MB; the normalization runs in the
        # similarity matrix's storage and allocates only vectors (0.1 MB), so
        # any full-size temporary breaks the bound
        _, _, sim, params = self.bench_reference_input(monkeypatch)
        params = params if with_params else None
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            match_probabilities(sim, params)
            peak_mb = (tracemalloc.get_traced_memory()[1] - base) / 1e6
        finally:
            tracemalloc.stop()
        assert peak_mb < 1.0

    def test_tied_matrix_padding_peak_memory(self):
        # a constant matrix (a featureless scene) has one mutual pair, (0, 0), and ties
        # at every entry; ranking all N^4 of them as padding candidates peaked at 161 MB.
        # Ranking each 41-row depth slice's first k peaks at 1.7 MB (one slice's partition
        # copy, masks and indices beside the column argmax); an N^4 copy (22.6 MB) or one
        # N^4 boolean mask (2.8 MB) breaks the bound
        p = np.full((1681, 1681), 1.0 / 1682 ** 2)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            cs = extract_matches(p, 30)
            peak_mb = (tracemalloc.get_traced_memory()[1] - base) / 1e6
        finally:
            tracemalloc.stop()
        assert peak_mb < 2.0
        assert np.array_equal(cs.ground_xy, np.zeros((30, 2)))
        assert np.array_equal(cs.aerial_xy[:, 0] * 41 + cs.aerial_xy[:, 1], np.arange(30))

    def test_unrefined_localization_peak_memory(self):
        # the solve holds one 22.6 MB matrix, the similarity matrix that becomes
        # the match probabilities (25.8 MB peak). A second one beside it (47.3 MB)
        # crosses glibc's trim threshold of twice the largest freed block, so
        # each solve would hand its heap back to the OS and fault it in again
        specs = SceneSpec()
        inputs = make_scene_bundle(specs, seed=5, noise_sigma=0.2).inputs
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run_localization(inputs.volume, inputs.conf_logits, inputs.f_sat, specs)
            peak_mb = (tracemalloc.get_traced_memory()[1] - base) / 1e6
        finally:
            tracemalloc.stop()
        assert peak_mb < 30.0


class TestGlobalResidual:
    def test_zero_input_zero_bias_gives_zero(self):
        n2 = 9
        params = _with_global(RefinerParams.random(n2, seed=10),
                              weights=None, zero_bias=True)
        out = global_residual(factored(np.zeros((n2, n2))), params)
        assert np.array_equal(out, np.zeros((n2, n2)))

    def test_row_permutation_equivariance(self):
        rng = np.random.default_rng(11)
        n2 = 9
        params = RefinerParams.random(n2, seed=12)
        s = rng.normal(size=(n2, n2))
        perm = rng.permutation(n2)
        out = global_residual(factored(s), params)
        out_perm = global_residual(factored(s[perm]), params)
        assert np.allclose(out_perm, out[perm], atol=1e-12)

    def test_matches_direct_affine_oracle(self):
        rng = np.random.default_rng(13)
        n2 = 16
        params = RefinerParams.random(n2, seed=14)
        s = rng.normal(size=(n2, n2))
        out = global_residual(factored(s), params)
        w1, w2 = (w.astype(float) for w in params.global_weights)
        b1, b2 = (b.astype(float) for b in params.global_biases)
        oracle = np.empty_like(s)
        for i in range(n2):
            hidden = np.maximum(s[i] @ w1 + b1, 0.0)
            oracle[i] = hidden @ w2 + b2
        assert np.allclose(out, oracle, atol=1e-6)


def _with_global(params, weights=None, zero_bias=False):
    gw = weights if weights is not None else params.global_weights
    gb = tuple(np.zeros_like(b) for b in params.global_biases) if zero_bias \
        else params.global_biases
    return RefinerParams(
        conv_kernels=params.conv_kernels, conv_biases=params.conv_biases,
        global_weights=gw, global_biases=gb,
        gate_weights=params.gate_weights, gate_biases=params.gate_biases,
        dustbin_row=params.dustbin_row, dustbin_col=params.dustbin_col,
        dustbin_theta=params.dustbin_theta)


def _with_gate_bias(params, bias_value):
    gb = list(params.gate_biases)
    gb[-1] = np.full_like(gb[-1], bias_value)
    return RefinerParams(
        conv_kernels=params.conv_kernels, conv_biases=params.conv_biases,
        global_weights=params.global_weights, global_biases=params.global_biases,
        gate_weights=tuple(np.zeros_like(w) for w in params.gate_weights),
        gate_biases=tuple(gb),
        dustbin_row=params.dustbin_row, dustbin_col=params.dustbin_col,
        dustbin_theta=params.dustbin_theta)


def _zero_local(params):
    return RefinerParams(
        conv_kernels=tuple(np.zeros_like(k) for k in params.conv_kernels),
        conv_biases=tuple(np.zeros_like(b) for b in params.conv_biases),
        global_weights=params.global_weights, global_biases=params.global_biases,
        gate_weights=params.gate_weights, gate_biases=params.gate_biases,
        dustbin_row=params.dustbin_row, dustbin_col=params.dustbin_col,
        dustbin_theta=params.dustbin_theta)


def _zero_global(params):
    return _with_global(
        params, weights=tuple(np.zeros_like(w) for w in params.global_weights),
        zero_bias=True)


class TestRefine:
    def test_closed_gate_is_exact_identity(self):
        rng = np.random.default_rng(15)
        params = _with_gate_bias(RefinerParams.random(16, seed=16), -100.0)
        s = factored(rng.normal(size=(16, 16)))
        refined = refine(s, params)
        assert np.array_equal(refined.s, s.s)

    def test_gate_past_exp_overflow_is_zero_without_a_warning(self):
        # exp(1000) overflows to inf, so the gate is 1 / inf = 0.0; the overflow raises no
        # RuntimeWarning (an error under the test suite's warning filter)
        rng = np.random.default_rng(15)
        params = _with_gate_bias(RefinerParams.random(16, seed=16), -1000.0)
        s = factored(rng.normal(size=(16, 16)))
        assert np.array_equal(gate_values(s, params), np.zeros(16))
        assert np.array_equal(refine(s, params).s, s.s)

    def test_open_gate_adds_local_residual(self):
        rng = np.random.default_rng(17)
        params = _zero_global(_with_gate_bias(RefinerParams.random(16, seed=18), 100.0))
        s = factored(rng.normal(size=(16, 16)))
        refined = refine(s, params)
        assert np.allclose(refined.s, s.s + local_residual(s, params), atol=1e-12)

    def test_matches_composed_oracle(self):
        rng = np.random.default_rng(19)
        params = RefinerParams.random(16, seed=20)
        s = factored(rng.normal(size=(16, 16)))
        refined = refine(s, params)
        alpha = gate_values(s, params)
        oracle = s.s + alpha[:, None] * (local_residual(s, params)
                                         + global_residual(s, params))
        assert np.allclose(refined.s, oracle, atol=1e-6)

    def test_overflow_from_finite_inputs_is_caught(self):
        # finite similarity and parameters whose residual overflows: only the
        # finiteness scan of the refined SimilarityMatrix stops the inf
        s = factored(np.full((16, 16), 1e306))
        params = RefinerParams.random(16, seed=0, scale=1.0)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="similarity matrix contains non-finite entries"):
            refine(s, params)

    def test_gate_values_lie_in_unit_interval(self):
        rng = np.random.default_rng(21)
        params = RefinerParams.random(16, seed=22)
        alpha = gate_values(factored(rng.normal(size=(16, 16))), params)
        assert np.all((alpha >= 0) & (alpha <= 1))


class TestDustbin:
    def test_zero_everything_gives_zero_block(self):
        params = _with_dustbin(RefinerParams.random(4, seed=23),
                               np.zeros(4), np.zeros(4), 0.0)
        out = dustbin_extend(SimilarityMatrix(np.zeros((4, 4))), params)
        assert out.shape == (5, 5)
        assert np.array_equal(out, np.zeros((5, 5)))

    def test_corner_holds_theta(self):
        params = _with_dustbin(RefinerParams.random(4, seed=24),
                               np.zeros(4), np.zeros(4), 7.0)
        out = dustbin_extend(SimilarityMatrix(np.zeros((4, 4))), params)
        assert out[4, 4] == 7.0

    def test_block_structure(self):
        rng = np.random.default_rng(25)
        s = rng.normal(size=(9, 9))
        row, col, theta = rng.normal(size=9), rng.normal(size=9), float(rng.normal())
        params = _with_dustbin(RefinerParams.random(9, seed=26), row, col, theta)
        out = dustbin_extend(SimilarityMatrix(s), params)
        assert np.array_equal(out[:9, :9], s)
        assert np.allclose(out[:9, 9], col.astype(np.float32))
        assert np.allclose(out[9, :9], row.astype(np.float32))
        assert out[9, 9] == pytest.approx(theta, abs=1e-6)

    def test_none_params_use_zero_bins(self):
        rng = np.random.default_rng(26)
        s = rng.normal(size=(4, 4))
        out = dustbin_extend(SimilarityMatrix(s), None)
        assert np.array_equal(out[:4, :4], s)
        assert np.all(out[4, :] == 0) and np.all(out[:, 4] == 0)

    def test_wrong_patch_count_rejected(self):
        with pytest.raises(ValueError, match="^parameters sized for a different patch count$"):
            dustbin_extend(SimilarityMatrix(np.zeros((4, 4))), RefinerParams.random(9))


def _with_dustbin(params, row, col, theta):
    return RefinerParams(
        conv_kernels=params.conv_kernels, conv_biases=params.conv_biases,
        global_weights=params.global_weights, global_biases=params.global_biases,
        gate_weights=params.gate_weights, gate_biases=params.gate_biases,
        dustbin_row=row, dustbin_col=col, dustbin_theta=np.float32(theta))


class TestNormalization:
    def test_two_by_two_hand_case(self):
        p = normalize_doubly_stochastic(np.zeros((2, 2)))
        assert p.shape == (1, 1)
        assert p[0, 0] == pytest.approx(0.25, abs=1e-12)

    def test_dominant_entry_saturates(self):
        m = np.zeros((4, 4))
        m[1, 2] = 100.0
        p = normalize_doubly_stochastic(m)
        assert p[1, 2] == pytest.approx(1.0, abs=1e-6)
        # everything sharing the dominant row or column collapses to ~0
        assert np.all(p[1, [0, 1]] < 1e-40)
        assert np.all(p[[0, 2], 2] < 1e-40)
        mask = np.ones_like(p, dtype=bool)
        mask[1, 2] = False
        assert np.all(p[mask] < 0.1)

    def test_product_bounded_by_each_factor(self):
        rng = np.random.default_rng(27)
        m = rng.normal(0, 2, (9, 9))
        p = normalize_doubly_stochastic(m)
        r = row_softmax(m)[:-1, :-1]
        c = col_softmax(m)[:-1, :-1]
        assert np.all(p <= np.minimum(r, c) + 1e-15)
        assert np.all((p > 0) & (p < 1))

    def test_softmax_sums(self):
        rng = np.random.default_rng(28)
        m = rng.normal(0, 3, (33, 33))
        assert np.allclose(row_softmax(m).sum(axis=1), 1.0, atol=1e-6)
        assert np.allclose(col_softmax(m).sum(axis=0), 1.0, atol=1e-6)

    def test_wide_range_falls_back_to_per_axis_shift(self):
        rng = np.random.default_rng(29)
        m = rng.normal(0, 2, (6, 6))
        m[0, 0] += 320.0  # beyond the single-exp range guard
        p = normalize_doubly_stochastic(m)
        ref = (row_softmax(m) * col_softmax(m))[:-1, :-1]
        assert np.allclose(p, ref, rtol=1e-10, atol=0)

    def test_fast_and_safe_paths_agree(self):
        rng = np.random.default_rng(30)
        m = rng.normal(0, 3, (20, 20))
        p = normalize_doubly_stochastic(m)
        ref = (row_softmax(m) * col_softmax(m))[:-1, :-1]
        assert np.allclose(p, ref, rtol=1e-12, atol=1e-300)

    def test_non_finite_rejected(self):
        m = np.zeros((3, 3))
        m[0, 0] = np.inf
        with pytest.raises(ValueError):
            normalize_doubly_stochastic(m)

    @pytest.mark.parametrize("spike", [0.0, 320.0], ids=["single-exp", "fallback"])
    def test_argument_left_unchanged(self, spike):
        m = np.random.default_rng(31).normal(0, 2, (10, 10))
        m[2, 7] += spike
        before = m.tobytes()
        normalize_doubly_stochastic(m)
        assert m.tobytes() == before


def _extended_range(s, params):
    ext = dustbin_extend(s, params)
    return ext.max() - ext.min()


class TestMatchProbabilities:
    """The dustbin folded into the row and column sums, against the extended matrix."""

    @pytest.mark.parametrize("spike", [0.0, 320.0], ids=["single-exp", "fallback"])
    @pytest.mark.parametrize("with_params", [False, True], ids=["no-params", "params"])
    def test_equals_extend_then_normalize(self, spike, with_params):
        rng = np.random.default_rng(34)
        m = rng.normal(0, 2, (16, 16))
        m[3, 5] += spike
        s = SimilarityMatrix(m)
        params = RefinerParams.random(16, seed=35, scale=1.0) if with_params else None
        assert (_extended_range(s, params) > _SINGLE_EXP_RANGE) == (spike > 0)
        # match_probabilities spends s, so the reference is built first
        ref = normalize_doubly_stochastic(dustbin_extend(s, params))
        p = match_probabilities(s, params)
        assert np.array_equal(p, ref)

    @pytest.mark.parametrize("spike", [0.0, 320.0], ids=["single-exp", "fallback"])
    @pytest.mark.parametrize("with_params", [False, True], ids=["no-params", "params"])
    def test_result_takes_the_similarity_storage(self, spike, with_params):
        m = np.random.default_rng(39).normal(0, 2, (16, 16))
        m[3, 5] += spike
        params = RefinerParams.random(16, seed=40, scale=1.0) if with_params else None
        s = SimilarityMatrix(m)
        assert s.s is m   # wrapped without a copy
        assert np.shares_memory(match_probabilities(s, params), m)

    def test_rejected_patch_count_leaves_the_similarity_refinable(self):
        m = np.random.default_rng(42).normal(0, 2, (9, 9))
        s = factored(m)
        before = s.s.copy()
        with pytest.raises(ValueError, match="^parameters sized for a different patch count$"):
            match_probabilities(s, RefinerParams.random(16))
        assert s.s.tobytes() == before.tobytes()
        assert s.factors is not None
        params = RefinerParams.random(9, seed=43)
        assert np.array_equal(refine(s, params).s, refine(factored(m), params).s)

    @pytest.mark.parametrize("bin_entry", ["row", "col", "corner"])
    def test_dustbin_entry_alone_selects_fallback(self, bin_entry):
        rng = np.random.default_rng(36)
        s = SimilarityMatrix(rng.normal(0, 2, (9, 9)))
        row, col = rng.normal(size=9), rng.normal(size=9)
        theta = 0.0
        if bin_entry == "row":
            row[4] = -400.0
        elif bin_entry == "col":
            col[2] = 400.0
        else:
            theta = 400.0
        params = _with_dustbin(RefinerParams.random(9, seed=37), row, col, theta)
        assert s.s.max() - s.s.min() <= _SINGLE_EXP_RANGE
        assert _extended_range(s, params) > _SINGLE_EXP_RANGE
        ext = dustbin_extend(s, params)
        ref = (row_softmax(ext) * col_softmax(ext))[:-1, :-1]
        assert np.allclose(match_probabilities(s, params), ref, rtol=1e-10, atol=0)

    @pytest.mark.parametrize("branch", ["single-exp", "fallback"])
    @pytest.mark.parametrize("fn", ["match_probabilities", "normalize_doubly_stochastic"])
    def test_saturated_entries_stay_inside_open_unit_interval(self, fn, branch):
        # single-exp: the spike's row and column sums round to 1, so its entry
        # rounds to 1.0; fallback: entry (0, 1) sits in the row and the column
        # of two spikes, so its factors multiply to e^-800, which underflows to 0
        m = np.zeros((9, 9))
        if branch == "single-exp":
            m[1, 2] = 100.0
        else:
            m[0, 0] = m[1, 1] = 400.0
        s = SimilarityMatrix(m)
        assert (_extended_range(s, None) > _SINGLE_EXP_RANGE) == (branch == "fallback")
        if fn == "match_probabilities":
            p = match_probabilities(s, None)
        else:
            p = normalize_doubly_stochastic(dustbin_extend(s, None))
        assert p.shape == (9, 9)
        assert p.min() > 0.0 and p.max() < 1.0

    def test_tiny_temperature_range_the_factor_floor_does_not_settle(self):
        # a shared feature component keeps every cosine above about 0.25: the
        # entries span about 141 while the factor floor (-1 / tau) allows about 390,
        # so the min scan must run and pick the single-exp path
        rng = np.random.default_rng(9)
        shared = np.zeros(16)
        shared[0] = 6.0
        f_grd = BevFeatureMap(rng.standard_normal((9, 9, 16)) + shared)
        f_sat = BevFeatureMap(rng.standard_normal((9, 9, 16)) + shared)
        tau = 1 / 200
        s = initial_similarity(f_grd, f_sat, tau)
        assert 100 < s.s.max() - s.s.min() <= _SINGLE_EXP_RANGE < s.s.max() + 1 / tau
        ref = normalize_doubly_stochastic(dustbin_extend(SimilarityMatrix(s.s.copy()), None))
        assert match_probabilities(s, None).tobytes() == ref.tobytes()

    def test_inert_clip_skip_leaves_entries_inside_open_unit_interval(self):
        # one-hot features at tau = 1/21: the diagonal sits at 21 and the zero bins
        # add b = 2 e^-21 > 1e-9, so the single-exp path returns without its clip
        eye = np.eye(9).reshape(3, 3, 9)
        s = initial_similarity(BevFeatureMap(eye), BevFeatureMap(eye), 1 / 21)
        hi = s.s.max()
        assert 2 * np.exp(-hi) > 1e-9
        p = match_probabilities(s, None)
        clipped = np.clip(p, np.finfo(float).tiny, np.nextafter(1.0, 0.0))
        assert p.tobytes() == clipped.tobytes()
        assert p.min() > 0.0 and p.max() < 1.0
        assert np.array_equal(np.argmax(p, axis=1), np.arange(9))

    def test_wrong_patch_count_rejected(self):
        with pytest.raises(ValueError, match="parameters sized for a different patch count"):
            match_probabilities(SimilarityMatrix(np.zeros((9, 9))), RefinerParams.random(16))

    @pytest.mark.parametrize("with_params", [False, True], ids=["no-params", "params"])
    def test_localization_never_builds_the_extended_matrix(self, monkeypatch, small_specs,
                                                            with_params):
        def must_not_run(*args, **kwargs):
            raise AssertionError("dustbin_extend ran inside run_localization")

        monkeypatch.setattr(refiner, "dustbin_extend", must_not_run)
        monkeypatch.setattr(pipeline, "dustbin_extend", must_not_run, raising=False)
        bundle = make_scene_bundle(small_specs, seed=38)
        n2 = small_specs.grid.num_cells
        params = RefinerParams.random(n2, scale=0.03, seed=38) if with_params else None
        inputs = bundle.inputs
        res = run_localization(inputs.volume, inputs.conf_logits, inputs.f_sat, small_specs,
                               params)
        trans_m, _ = pose_error(res.pose_px, bundle.scene.gt_pose, small_specs.aerial)
        assert not res.degenerate
        assert trans_m < 1e-6


def extract_matches_oracle(p, k):
    """Loop reference implementing the same mutual-max + top-k padding rule."""
    n2 = p.shape[0]
    pairs = []
    for i in range(n2):
        j = int(np.argmax(p[i]))
        if int(np.argmax(p[:, j])) == i:
            pairs.append((i, j))
    pairs.sort(key=lambda ij: (-p[ij[0], ij[1]], ij[0], ij[1]))
    selected = pairs[:k]
    if len(selected) < k:
        everything = sorted(((i, j) for i in range(n2) for j in range(n2)),
                            key=lambda ij: (-p[ij[0], ij[1]], ij[0], ij[1]))
        chosen = set(selected)
        for pair in everything:
            if len(selected) == k:
                break
            if pair not in chosen:
                selected.append(pair)
                chosen.add(pair)
    selected.sort(key=lambda ij: (-p[ij[0], ij[1]], ij[0], ij[1]))
    return selected


class TestExtractMatches:
    def test_identity_dominant_returns_diagonal(self):
        n2 = 16
        m = np.full((n2, n2), 0.001)
        np.fill_diagonal(m, 0.9)
        cs = extract_matches(m, 5)
        rows = cs.ground_xy[:, 0] * 4 + cs.ground_xy[:, 1]
        cols = cs.aerial_xy[:, 0] * 4 + cs.aerial_xy[:, 1]
        assert np.array_equal(rows, cols)
        assert np.allclose(cs.weights, 0.9)

    def test_single_overwhelming_entry(self):
        m = np.full((4, 4), 0.01)
        m[2, 1] = 0.99
        cs = extract_matches(m, 1)
        assert tuple(cs.ground_xy[0]) == (1.0, 0.0)   # flat row 2 on a 2x2 grid
        assert tuple(cs.aerial_xy[0]) == (0.0, 1.0)   # flat col 1
        assert cs.weights[0] == pytest.approx(0.99)

    def test_matches_oracle_on_random_matrices(self):
        rng = np.random.default_rng(31)
        for trial in range(20):
            p = rng.uniform(0.001, 0.999, (16, 16))
            k = int(rng.integers(1, 40))
            cs = extract_matches(p, k)
            got = {(int(g[0] * 4 + g[1]), int(a[0] * 4 + a[1]))
                   for g, a in zip(cs.ground_xy, cs.aerial_xy)}
            expected = set(extract_matches_oracle(p, k))
            assert got == expected, f"trial {trial}"

    def test_uniform_matrix_pads_in_lexicographic_order(self):
        # single mutual pair (0, 0); padding walks the global top-k in
        # row-major order of the similarity matrix
        p = np.full((9, 9), 0.5)
        cs = extract_matches(p, 4)
        flat = [(int(g[0] * 3 + g[1]), int(a[0] * 3 + a[1]))
                for g, a in zip(cs.ground_xy, cs.aerial_xy)]
        assert flat == [(0, 0), (0, 1), (0, 2), (0, 3)]

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_ordered_pairs_match_oracle_on_tied_levels(self, n, seed):
        # three levels make ties in rows, columns and the global top-k common;
        # the whole ordered list must agree, not only the set of pairs
        rng = np.random.default_rng(40 + 10 * n + seed)
        n2 = n * n
        p = rng.choice([0.2, 0.4, 0.6], size=(n2, n2))
        ks = {1, 2, n2, n2 + 1, n2 * n2 // 2, n2 * n2} | set(rng.integers(1, n2 * n2 + 1, 6))
        for k in sorted(int(k) for k in ks):
            cs = extract_matches(p, k)
            got = [(int(g[0] * n + g[1]), int(a[0] * n + a[1]))
                   for g, a in zip(cs.ground_xy, cs.aerial_xy)]
            assert got == extract_matches_oracle(p, k), f"k={k}"
            assert np.array_equal(cs.weights, [p[i, j] for i, j in got])

    @pytest.mark.parametrize("levels", [1, 3])
    @pytest.mark.parametrize("n", [3, 4])
    def test_padding_threshold_across_small_row_blocks(self, n, levels):
        # the padding ranks each depth slice's first min(k, slice size) entries: slices of
        # 3 rows (27 entries) and of 4 (64 entries) hold fewer entries than most k here;
        # one level ties every entry, so the rank order alone decides across slices
        rng = np.random.default_rng(90 + n)
        n2 = n * n
        p = rng.choice([0.2, 0.4, 0.6][:levels], size=(n2, n2))
        for k in range(1, n2 * n2 + 1):
            cs = extract_matches(p, k)
            got = [(int(g[0] * n + g[1]), int(a[0] * n + a[1]))
                   for g, a in zip(cs.ground_xy, cs.aerial_xy)]
            assert got == extract_matches_oracle(p, k), f"k={k}"

    @pytest.mark.parametrize("seed", range(2))
    def test_ordered_pairs_match_oracle_across_argmax_blocks(self, seed):
        # 144 rows span twelve depth slices of 12 rows; tied levels put equal
        # maxima of one column on both sides of a slice border
        rng = np.random.default_rng(70 + seed)
        n = 12
        p = rng.choice([0.2, 0.4, 0.6], size=(n * n, n * n))
        for k in (1, 30, 200):
            cs = extract_matches(p, k)
            got = [(int(g[0] * n + g[1]), int(a[0] * n + a[1]))
                   for g, a in zip(cs.ground_xy, cs.aerial_xy)]
            assert got == extract_matches_oracle(p, k), f"k={k}"

    def test_bad_k_rejected(self):
        p = np.full((4, 4), 0.5)
        with pytest.raises(ValueError):
            extract_matches(p, 0)
        with pytest.raises(ValueError):
            extract_matches(p, 17)

    # the integer rule of PipelineConfig's top_k: 2.0 raised numpy's TypeError from a slice,
    # and True gave one match
    @pytest.mark.parametrize("k", [2.0, True], ids=["float", "bool"])
    def test_k_other_than_an_integer_rejected(self, k):
        p = np.full((4, 4), 0.5)
        with pytest.raises(ValueError, match=f"^top_k: expected an integer, got {k!r}$"):
            extract_matches(p, k)

    @pytest.mark.parametrize("shape", [(16,), (4, 9), (2, 4, 4)])
    def test_non_square_array_rejected(self, shape):
        with pytest.raises(ValueError, match="^probability matrix must be square$"):
            extract_matches(np.full(shape, 0.5), 1)

    def test_nan_among_chosen_entries_rejected(self):
        # NaN wins its row's argmax and, ignored by the column maxima, pairs
        # with row 0 as the only mutual match
        p = np.full((9, 9), 0.5)
        p[0, 0] = np.nan
        with pytest.raises(ValueError, match="^probability matrix contains NaN$"):
            extract_matches(p, 1)

    @pytest.mark.parametrize("k", [1, 15, 16])
    def test_nan_is_an_error_not_a_short_result(self, k):
        # the NaN wins row 1's argmax but not column 2's, so it was never chosen: k = 1 and
        # 15 returned without an error, and k = 16 gave 15 matches
        p = np.full((4, 4), 0.5)
        p[1, 2] = np.nan
        with pytest.raises(ValueError, match="^probability matrix contains NaN$"):
            extract_matches(p, k)

    def test_negative_padding_entries_rejected(self):
        # four mutual diagonal pairs; the fifth match pads from the negatives
        p = np.full((4, 4), -0.5)
        np.fill_diagonal(p, 0.9)
        assert len(extract_matches(p, 4)) == 4
        with pytest.raises(ValueError, match="^weights must be non-negative$"):
            extract_matches(p, 5)


class TestColumnArgmax:
    """The column argmax by depth slices equals ``argmax(axis=0)``, lowest row on ties."""

    @pytest.mark.parametrize("shape", [(n * n, n * n) for n in (1, 2, 5, 17, 41)])
    def test_tied_levels(self, shape):
        p = np.round(np.random.default_rng(shape[0]).uniform(size=shape), 1)
        assert np.array_equal(_col_argmax(p, math.isqrt(shape[0])), p.argmax(axis=0))

    def test_all_zero(self):
        p = np.zeros((1681, 1681))
        assert np.array_equal(_col_argmax(p, 41), p.argmax(axis=0))

    def test_random_and_near_identity(self):
        rng = np.random.default_rng(5)
        p = rng.uniform(size=(1681, 1681))
        assert np.array_equal(_col_argmax(p, 41), p.argmax(axis=0))
        near = 0.5 * np.eye(1681)[rng.permutation(1681)] + 1e-3 * p
        assert np.array_equal(_col_argmax(near, 41), near.argmax(axis=0))

    def test_tie_across_blocks_keeps_lowest_row(self):
        n = 5   # slices of 5 rows
        p = np.zeros((n * n, n * n))
        p[[2, n + 2, 2 * n], 1] = 1.0
        p[[n + 4, 2 * n, 4 * n + 1], 2] = 1.0
        assert list(_col_argmax(p, n)) == [0, 2, n + 4] + [0] * (n * n - 3)


class TestPermutationEquivariance:
    def test_aerial_permutation_transports_through_pipeline(self):
        # local branch disabled (spatial conv is not permutation-equivariant);
        # permuting aerial patches with matching parameter transport must
        # permute the columns of the refined matrix and of the probabilities
        rng = np.random.default_rng(32)
        n2 = 16
        base = _zero_local(RefinerParams.random(n2, seed=33))
        s = factored(rng.normal(size=(n2, n2)))
        perm = rng.permutation(n2)

        w1, w2 = base.global_weights
        transported = RefinerParams(
            conv_kernels=base.conv_kernels, conv_biases=base.conv_biases,
            global_weights=(w1[perm], w2[:, perm]),
            global_biases=(base.global_biases[0], base.global_biases[1][perm]),
            gate_weights=(base.gate_weights[0][perm], base.gate_weights[1]),
            gate_biases=base.gate_biases,
            dustbin_row=base.dustbin_row[perm], dustbin_col=base.dustbin_col,
            dustbin_theta=base.dustbin_theta)

        s_perm = factored(s.s[:, perm])
        refined = refine(s, base)
        refined_perm = refine(s_perm, transported)
        assert np.allclose(refined_perm.s, refined.s[:, perm], atol=1e-9)

        p = normalize_doubly_stochastic(dustbin_extend(refined, base))
        p_perm = normalize_doubly_stochastic(
            dustbin_extend(refined_perm, transported))
        assert np.allclose(p_perm, p[:, perm], atol=1e-12)


# one broken layer layout per RefinerParams._validate rule: (field edits, message)
_LAYOUT_BREAKS = {
    "conv-layer-count": (lambda p: {"conv_kernels": p.conv_kernels[:2],
                                    "conv_biases": p.conv_biases[:2]},
                         "expected exactly three convolution layers"),
    "kernel-shape": (lambda p: {"conv_kernels": (np.zeros((8, 1, 3, 3, 2)),
                                                 *p.conv_kernels[1:])},
                     "convolution kernels must be (out_c, in_c, 3, 3, 3)"),
    "channel-chain": (lambda p: {"conv_kernels": (p.conv_kernels[0], np.zeros((8, 4, 3, 3, 3)),
                                                  p.conv_kernels[2])},
                      "convolution channel chain is inconsistent"),
    # a chain through zero channels would otherwise fail mid-solve, in a reshape
    "zero-channels": (lambda p: {"conv_kernels": (np.zeros((0, 1, 3, 3, 3)),
                                                  np.zeros((1, 0, 3, 3, 3)),
                                                  np.zeros((1, 1, 3, 3, 3))),
                                 "conv_biases": (np.zeros(0), np.zeros(1), np.zeros(1))},
                      "convolution layers need at least one output channel"),
    "final-channels": (lambda p: {"conv_kernels": (*p.conv_kernels[:2],
                                                   np.zeros((2, 8, 3, 3, 3))),
                                  "conv_biases": (*p.conv_biases[:2], np.zeros(2))},
                       "final convolution layer must emit one channel"),
    "stack-lengths": (lambda p: {"global_biases": p.global_biases[:1]},
                      "affine stacks need matching weights and biases"),
    "stack-shapes": (lambda p: {"global_weights": (p.global_weights[0], np.zeros((128, 9)))},
                     "affine stack shapes are inconsistent"),
    "stack-output": (lambda p: {"gate_weights": (p.gate_weights[0], np.zeros((64, 2))),
                                "gate_biases": (p.gate_biases[0], np.zeros(2))},
                     "affine stack output width is wrong"),
    "dustbin-corner": (lambda p: {"dustbin_theta": np.zeros(2)},
                       "dustbin_theta must hold one value"),
}


def _edit_manifest(directory, edit) -> None:
    path = directory / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))


class TestParamsSerialization:
    def test_round_trip_is_bit_exact(self, tmp_path):
        params = RefinerParams.random(16, seed=34)
        params.save(tmp_path / "params")
        back = RefinerParams.load(tmp_path / "params")
        for a, b in zip(params._named_tensors().values(),
                        back._named_tensors().values()):
            assert a.dtype == np.float32 and b.dtype == np.float32
            assert np.array_equal(a, b)

    def test_round_trip_keeps_stack_depths(self, tmp_path):
        # random() builds depth-2 stacks only; a three-layer global stack and
        # a one-layer gate stack pin the depths, read from the names per stack
        rng = np.random.default_rng(41)
        base = RefinerParams.random(9, seed=41)
        widths = (9, 5, 4, 9)
        params = RefinerParams(
            conv_kernels=base.conv_kernels, conv_biases=base.conv_biases,
            global_weights=tuple(rng.normal(size=(a, b)) for a, b in zip(widths, widths[1:])),
            global_biases=tuple(rng.normal(size=b) for b in widths[1:]),
            gate_weights=(rng.normal(size=(9, 1)),), gate_biases=(rng.normal(size=1),),
            dustbin_row=base.dustbin_row, dustbin_col=base.dustbin_col,
            dustbin_theta=base.dustbin_theta)
        params.save(tmp_path / "params")
        manifest = json.loads((tmp_path / "params" / "manifest.json").read_text())
        assert set(manifest) == {"format", "tensors"}
        assert manifest["format"] == "refiner-params-v2"
        assert set(manifest["tensors"]) == {
            *(f"conv{i}_{kind}" for i in range(3) for kind in ("kernel", "bias")),
            *(f"global{i}_{kind}" for i in range(3) for kind in ("weight", "bias")),
            "gate0_weight", "gate0_bias", "dustbin_row", "dustbin_col", "dustbin_theta"}
        back = RefinerParams.load(tmp_path / "params")
        for field in params.__dataclass_fields__:
            a, b = getattr(params, field), getattr(back, field)
            if isinstance(a, tuple):
                assert len(a) == len(b), field
            else:
                a, b = (a,), (b,)
            for x, y in zip(a, b):
                assert x.dtype == y.dtype == np.float32 and x.shape == y.shape, field
                assert np.array_equal(x, y), field

    def test_manifest_shape_mismatch_rejected(self, tmp_path):
        import json
        params = RefinerParams.random(9, seed=35)
        params.save(tmp_path / "params")
        manifest_path = tmp_path / "params" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["tensors"]["dustbin_row"] = [5]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError):
            RefinerParams.load(tmp_path / "params")

    def test_manifest_layer_count_past_the_listed_tensors_rejected(self, tmp_path):
        # a gap in a run of names: two listed conv kernels make a depth of two,
        # and the second index, conv1, is not listed
        RefinerParams.random(9, seed=39).save(tmp_path / "params")
        _edit_manifest(tmp_path / "params", lambda m: m["tensors"].pop("conv1_kernel"))
        with pytest.raises(ValueError,
                           match="params: manifest does not list tensor 'conv1_kernel'"):
            RefinerParams.load(tmp_path / "params")

    def test_listed_fourth_conv_layer_rejected(self, tmp_path):
        params = RefinerParams.random(9, seed=39)
        params.save(tmp_path / "params")
        extra = {"conv3_kernel": params.conv_kernels[2], "conv3_bias": params.conv_biases[2]}
        for name, tensor in extra.items():
            save_tensor(tmp_path / "params" / f"{name}.cvt", tensor)
        _edit_manifest(tmp_path / "params", lambda m: m["tensors"].update(
            {name: list(t.shape) for name, t in extra.items()}))
        with pytest.raises(ValueError,
                           match="params: expected exactly three convolution layers"):
            RefinerParams.load(tmp_path / "params")

    def test_v1_directory_rejected(self, tmp_path):
        # the retired layout: the same tensors beside three layer-count fields
        params = RefinerParams.random(9, seed=39)
        save_tensor_dir(tmp_path / "params", "refiner-params-v1", params._named_tensors(),
                        num_conv_layers=3, num_global_layers=2, num_gate_layers=2)
        message = "unknown format 'refiner-params-v1', expected 'refiner-params-v2'"
        with pytest.raises(ValueError, match=re.escape(f"{tmp_path / 'params'}: {message}")):
            RefinerParams.load(tmp_path / "params")

    def test_depth_comes_from_the_manifest_not_the_files(self, tmp_path):
        # a deeper global stack leaves global2_* on disk; the shallower save does not list them
        rng = np.random.default_rng(42)
        base = RefinerParams.random(9, seed=42)
        widths = (9, 5, 4, 9)
        deeper = dataclasses.replace(
            base,
            global_weights=tuple(rng.normal(size=(a, b)) for a, b in zip(widths, widths[1:])),
            global_biases=tuple(rng.normal(size=b) for b in widths[1:]))
        deeper.save(tmp_path / "params")
        base.save(tmp_path / "params")
        assert (tmp_path / "params" / "global2_weight.cvt").exists()
        back = RefinerParams.load(tmp_path / "params")
        assert len(back.global_weights) == len(back.global_biases) == 2
        for a, b in zip(base._named_tensors().values(), back._named_tensors().values()):
            assert np.array_equal(a, b)

    def test_one_by_one_dustbin_theta_becomes_a_scalar(self):
        params = dataclasses.replace(RefinerParams.random(9, seed=36),
                                     dustbin_theta=np.full((1, 1), 0.5))
        assert params.dustbin_theta.shape == () and params.dustbin_theta == np.float32(0.5)

    def test_inconsistent_shapes_rejected(self):
        params = RefinerParams.random(9, seed=36)
        with pytest.raises(ValueError):
            _with_dustbin(params, np.zeros(5), np.zeros(9), 0.0)

    @pytest.mark.parametrize("case", sorted(_LAYOUT_BREAKS))
    def test_layer_layout_rule_rejected(self, case):
        # RefinerParams.random(9): conv channels 1-8-8-1, global 9-256-9, gate 9-64-1
        params = RefinerParams.random(9, seed=36)
        edit, message = _LAYOUT_BREAKS[case]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(params, **edit(params))


# one tensor per parameter group: (constructor field, tensor file name)
_GROUP_TENSORS = {"conv": ("conv_kernels", "conv0_kernel"),
                  "global": ("global_biases", "global0_bias"),
                  "gate": ("gate_weights", "gate0_weight"),
                  "dustbin": ("dustbin_theta", "dustbin_theta")}


def _poisoned(tensor, value):
    bad = np.array(tensor, dtype=np.float32)
    bad.flat[0] = value
    return bad


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("group", sorted(_GROUP_TENSORS))
class TestParamsFinite:
    def test_rejected_at_construction(self, group, value):
        field, _ = _GROUP_TENSORS[group]
        params = RefinerParams.random(9, seed=37)
        current = getattr(params, field)
        bad = ((_poisoned(current[0], value),) + current[1:]
               if isinstance(current, tuple) else _poisoned(current, value))
        fields = {f: getattr(params, f) for f in params.__dataclass_fields__}
        with pytest.raises(ValueError, match="finite"):
            RefinerParams(**{**fields, field: bad})

    def test_rejected_by_load(self, tmp_path, group, value):
        _, name = _GROUP_TENSORS[group]
        params = RefinerParams.random(9, seed=38)
        params.save(tmp_path / "params")
        save_tensor(tmp_path / "params" / f"{name}.cvt",
                    _poisoned(params._named_tensors()[name], value))
        with pytest.raises(ValueError, match="finite"):
            RefinerParams.load(tmp_path / "params")
