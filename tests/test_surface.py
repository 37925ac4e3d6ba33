import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossview.geometry import BevGridSpec, HeightLayerSpec, SceneSpec
from crossview.surface import (BevFeatureMap, aerial_depth_to_height_index, check_inputs,
                               fuse_height_features, normalize_confidence,
                               surface_from_accumulation)

LAYERS = HeightLayerSpec(11, -10.0, 10.0)


def column_volume(*columns):
    """Stack 1D height columns into an (M, 1, K) confidence volume."""
    arr = np.stack([np.asarray(c, dtype=float) for c in columns], axis=1)[:, None, :]
    return arr


class TestNormalizeConfidence:
    def test_constant_column_becomes_uniform(self):
        conf = normalize_confidence(np.zeros((11, 2, 2)))
        assert np.allclose(conf, 1.0 / 11.0)

    def test_large_logit_saturates(self):
        raw = np.zeros((5, 1, 1))
        raw[3] = 100.0
        conf = normalize_confidence(raw)
        assert conf[3, 0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_two_layer_closed_form(self):
        raw = column_volume([math.log(3.0), 0.0])
        conf = normalize_confidence(raw)
        assert conf[0, 0, 0] == pytest.approx(0.75, abs=1e-12)
        assert conf[1, 0, 0] == pytest.approx(0.25, abs=1e-12)

    def test_non_finite_rejected(self):
        raw = np.zeros((3, 1, 1))
        raw[1] = np.nan
        with pytest.raises(ValueError):
            normalize_confidence(raw)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_columns_sum_to_one(self, seed):
        raw = np.random.default_rng(seed).normal(0, 5, (11, 3, 4))
        conf = normalize_confidence(raw)
        assert np.all(conf >= 0)
        assert np.allclose(conf.sum(axis=0), 1.0, atol=1e-6)
        cum = np.cumsum(conf, axis=0)
        assert np.all(np.diff(cum, axis=0) >= -1e-15)


def scan_oracle(conf_col, threshold):
    """Reference bottom-up scan for one confidence column."""
    running = 0.0
    for i, c in enumerate(conf_col):
        running += c
        if running > threshold:
            return i
    return len(conf_col) - 1


class TestSurfaceFromAccumulation:
    def test_one_hot_column(self):
        col = np.zeros(11)
        col[4] = 1.0
        conf = column_volume(col)
        surf = surface_from_accumulation(conf, 0.5, LAYERS)
        assert surf[0, 0] == 4

    def test_uniform_column(self):
        # cumulative first exceeds 0.5 at 6/11
        conf = column_volume(np.full(11, 1.0 / 11.0))
        assert surface_from_accumulation(conf, 0.5, LAYERS)[0, 0] == 5

    def test_boundary_is_strict(self):
        # cumulative hits exactly 0.5 at layer 0, strict ">" postpones to layer 1
        layers = HeightLayerSpec(2, 0.0, 1.0)
        conf = column_volume([0.5, 0.5])
        assert surface_from_accumulation(conf, 0.5, layers)[0, 0] == 1

    def test_never_exceeded_falls_back_to_top(self):
        layers = HeightLayerSpec(2, 0.0, 1.0)
        # sums to slightly under 1, as numerical loss can leave a column
        conf = column_volume([0.4999990, 0.4999990])
        assert surface_from_accumulation(conf, 0.9999995, layers)[0, 0] == 1

    def test_crossing_and_never_crossing_columns_in_one_grid(self):
        layers = HeightLayerSpec(4, 0.0, 3.0)
        columns = [[0.5, 0.5, 0.0, 0.0], [0.2, 0.2, 0.2, 0.2], [0.95, 0.05, 0.0, 0.0],
                   [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.95, 0.05], [0.3, 0.3, 0.3, 0.05]]
        # the second, fourth and sixth columns never pass 0.9 and take the top layer
        conf = column_volume(*columns).reshape(4, 2, 3)
        surf = surface_from_accumulation(conf, 0.9, layers)
        assert surf.tolist() == [[1, 3, 0], [3, 2, 3]]

    def test_returns_n_by_n_int64_layer_index(self):
        conf = normalize_confidence(np.random.default_rng(5).normal(size=(11, 6, 6)))
        surf = surface_from_accumulation(conf, 0.5, LAYERS)
        assert surf.shape == (6, 6) and surf.dtype == np.int64

    def test_layer_count_must_match_spec(self):
        conf = column_volume(np.full(11, 1.0 / 11.0))
        with pytest.raises(ValueError, match="confidence volume has 11 layers, layer spec has 2"):
            surface_from_accumulation(conf, 0.5, HeightLayerSpec(2, 0.0, 1.0))

    @pytest.mark.parametrize("threshold", [0.0, 1.0, -0.2, 1.5])
    def test_threshold_domain(self, threshold):
        conf = column_volume(np.full(11, 1.0 / 11.0))
        with pytest.raises(ValueError):
            surface_from_accumulation(conf, threshold, LAYERS)

    def test_matches_scan_oracle_on_random_columns(self):
        rng = np.random.default_rng(7)
        raw = rng.normal(0, 3, (11, 40, 50))
        conf = normalize_confidence(raw)
        for threshold in np.arange(0.1, 0.95, 0.1):
            surf = surface_from_accumulation(conf, threshold, LAYERS)
            for i in range(40):
                for j in range(50):
                    assert surf[i, j] == scan_oracle(conf[:, i, j], threshold)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), below=st.integers(0, 9),
           threshold=st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9]))
    def test_adding_mass_below_never_raises_surface(self, seed, below, threshold):
        rng = np.random.default_rng(seed)
        col = rng.dirichlet(np.ones(11))
        conf = column_volume(col)
        idx = surface_from_accumulation(conf, threshold, LAYERS)[0, 0]
        if below >= idx:
            return
        bumped = col.copy()
        bumped[below] += 0.5
        bumped /= bumped.sum()
        conf2 = column_volume(bumped)
        idx2 = surface_from_accumulation(conf2, threshold, LAYERS)[0, 0]
        assert idx2 <= idx


class TestFuseHeightFeatures:
    def test_uniform_confidence_full_window_is_mean(self):
        rng = np.random.default_rng(0)
        vol = rng.normal(size=(4, 3, 3, 5))
        conf = np.full((4, 3, 3), 0.25)
        surf = np.ones((3, 3), dtype=int)
        fused = fuse_height_features(vol, conf, surf, window=None)
        assert np.allclose(fused.data, vol.mean(axis=0), atol=1e-12)

    def test_zero_window_is_direct_indexing(self):
        rng = np.random.default_rng(1)
        vol = rng.normal(size=(5, 3, 3, 4))
        conf = normalize_confidence(rng.normal(size=(5, 3, 3)))
        surf = rng.integers(0, 5, size=(3, 3))
        fused = fuse_height_features(vol, conf, surf, window=0)
        ii, jj = np.meshgrid(np.arange(3), np.arange(3), indexing="ij")
        assert np.array_equal(fused.data, vol[surf, ii, jj])

    def test_hand_computed_window(self):
        # conf (0.2, 0.3, 0.5), surface 2, window 1 -> (0.3 v1 + 0.5 v2) / 0.8
        rng = np.random.default_rng(2)
        vol = rng.normal(size=(3, 2, 2, 4))
        conf = np.broadcast_to(
            np.array([0.2, 0.3, 0.5])[:, None, None], (3, 2, 2)).copy()
        surf = np.full((2, 2), 2)
        fused = fuse_height_features(vol, conf, surf, window=1)
        expected = (0.3 * vol[1] + 0.5 * vol[2]) / 0.8
        assert np.allclose(fused.data, expected, atol=1e-12)

    def test_zero_mass_window_falls_back_to_uniform(self):
        rng = np.random.default_rng(3)
        vol = rng.normal(size=(3, 2, 2, 2))
        conf = np.broadcast_to(
            np.array([1.0, 0.0, 0.0])[:, None, None], (3, 2, 2)).copy()
        surf = np.full((2, 2), 2)
        fused = fuse_height_features(vol, conf, surf, window=0)
        ii, jj = np.meshgrid(np.arange(2), np.arange(2), indexing="ij")
        assert np.array_equal(fused.data, vol[surf, ii, jj])

    def test_zero_mass_and_weighted_windows_in_one_grid(self):
        rng = np.random.default_rng(4)
        vol = rng.normal(size=(4, 2, 2, 3))
        surf = np.array([[0, 1], [3, 2]])
        conf = np.zeros((4, 2, 2))
        conf[:, 0, 0] = [0.0, 0.0, 0.6, 0.4]    # window {0, 1} has no mass
        conf[:, 0, 1] = [0.1, 0.3, 0.0, 0.6]    # window {0, 1, 2}
        conf[:, 1, 0] = [1.0, 0.0, 0.0, 0.0]    # window {2, 3} has no mass
        conf[:, 1, 1] = [0.25, 0.25, 0.25, 0.25]   # window {1, 2, 3}
        fused = fuse_height_features(vol, conf, surf, window=1).data
        v = vol.transpose(1, 2, 0, 3)   # (N, N, M, C): one cell's layers
        assert np.allclose(fused[0, 0], (v[0, 0, 0] + v[0, 0, 1]) / 2, atol=1e-12)
        assert np.allclose(fused[0, 1], (0.1 * v[0, 1, 0] + 0.3 * v[0, 1, 1]) / 0.4, atol=1e-12)
        assert np.allclose(fused[1, 0], (v[1, 0, 2] + v[1, 0, 3]) / 2, atol=1e-12)
        assert np.allclose(fused[1, 1], v[1, 1, 1:].mean(axis=0), atol=1e-12)

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(7)
        vol = rng.normal(size=(3, 2, 2, 6))
        conf = np.full((4, 2, 2), 0.25)
        surf = np.zeros((2, 2), dtype=int)
        with pytest.raises(ValueError):
            fuse_height_features(vol, conf, surf)

    # the one window rule, whatever PipelineConfig.fuse_window holds: a float window used to
    # act as its floor, and NaN to fail later as a non-finite BEV feature map
    @pytest.mark.parametrize("window, message", [
        (1.5, "window: expected an integer, got 1.5"),
        (True, "window: expected an integer, got True"),
        (math.nan, "window: expected an integer, got nan"),
        (-1, "window must be >= 0"),
    ], ids=["float", "bool", "nan", "negative"])
    def test_window_other_than_a_non_negative_integer_rejected(self, window, message):
        rng = np.random.default_rng(8)
        vol = rng.normal(size=(3, 2, 2, 4))
        conf = np.full((3, 2, 2), 1 / 3)
        surf = np.ones((2, 2), dtype=int)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fuse_height_features(vol, conf, surf, window=window)

    # at window 0 an index of M or a fraction left no layer in the window, and the uniform
    # fallback divided 0 by 0 into NaN features; at window None an index of 20 on 11
    # layers fused layers 9 and 10
    @pytest.mark.parametrize("window", [0, None], ids=["window=0", "window=None"])
    @pytest.mark.parametrize("index", [11, -1, 20, 0.5, 2.5, math.nan])
    def test_surface_other_than_a_layer_index_rejected(self, index, window):
        rng = np.random.default_rng(9)
        vol = rng.normal(size=(11, 2, 2, 3))
        conf = np.full((11, 2, 2), 1 / 11)
        surf = np.ones((2, 2))
        surf[1, 0] = index
        with pytest.raises(ValueError, match=re.escape(
                "surface must hold integer layer indices in [0, 11)")):
            fuse_height_features(vol, conf, surf, window=window)


class TestAerialDepthToHeightIndex:
    def test_min_depth_anchors_to_ground_tie(self):
        # h = -3 sits halfway between the -4 and -2 layers; ties round down
        depth = np.array([[0.0, 13.0], [5.0, 7.0]])
        surf = aerial_depth_to_height_index(depth, LAYERS, ground_anchor_m=-3.0, scale=1.0)
        assert surf[0, 0] == 3

    def test_max_depth_hits_top_layer(self):
        depth = np.array([[0.0, 13.0], [5.0, 7.0]])
        surf = aerial_depth_to_height_index(depth, LAYERS, ground_anchor_m=-3.0, scale=1.0)
        assert surf[0, 1] == LAYERS.num_layers - 1

    def test_constant_map_is_grounded(self):
        surf = aerial_depth_to_height_index(np.full((3, 3), 7.0), LAYERS, -3.0, 1.0)
        assert np.all(surf == LAYERS.nearest_index(-3.0))

    def test_returns_n_by_n_int64_layer_index(self):
        depth = np.random.default_rng(6).uniform(0, 40, (5, 5))
        surf = aerial_depth_to_height_index(depth, LAYERS, -3.0, 0.25)
        assert surf.shape == (5, 5) and surf.dtype == np.int64

    def test_invariant_to_constant_shift(self):
        rng = np.random.default_rng(8)
        depth = rng.uniform(0, 40, (6, 6))
        a = aerial_depth_to_height_index(depth, LAYERS, -3.0, 0.25)
        b = aerial_depth_to_height_index(depth + 123.4, LAYERS, -3.0, 0.25)
        assert np.array_equal(a, b)

    def test_explicit_scale(self):
        depth = np.array([[0.0, 2.0, 4.0]])
        surf = aerial_depth_to_height_index(depth, LAYERS, ground_anchor_m=-3.0, scale=1.0)
        assert np.array_equal(surf[0], LAYERS.nearest_index(np.array([-3.0, -1.0, 1.0])))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            aerial_depth_to_height_index(np.array([[np.inf, 0.0]]), LAYERS, -3.0, 1.0)

    @pytest.mark.parametrize("anchor", [math.nan, math.inf, -math.inf])
    def test_non_finite_anchor_rejected(self, anchor):
        with pytest.raises(ValueError, match="depth_anchor_m must be finite"):
            aerial_depth_to_height_index(np.zeros((2, 2)), LAYERS, anchor, 1.0)

    @pytest.mark.parametrize("scale", [math.nan, math.inf, 0.0, -1.0])
    def test_non_finite_or_non_positive_scale_rejected(self, scale):
        with pytest.raises(ValueError, match="depth_scale must be finite and positive"):
            aerial_depth_to_height_index(np.zeros((2, 2)), LAYERS, -3.0, scale)


class TestContainerValidation:
    def test_feature_volume_shape_checked(self):
        specs = SceneSpec(grid=BevGridSpec(4, 2.0), layers=HeightLayerSpec(5, 0, 1))
        with pytest.raises(ValueError, match=re.escape(
                "volume must be (5, 4, 4, 2) for the scene's specs, got (3, 4, 4, 2)")):
            check_inputs(specs, np.zeros((3, 4, 4, 2)), np.zeros((5, 4, 4)), np.zeros((4, 4, 2)))
        # a volume of the wrong rank: its last axis is taken as the channel count
        with pytest.raises(ValueError, match=re.escape(
                "volume must be (5, 4, 4, 4) for the scene's specs, got (3, 4, 4)")):
            check_inputs(specs, np.zeros((3, 4, 4)), np.zeros((5, 4, 4)), np.zeros((4, 4, 4)))

    def test_feature_volume_rejects_nan(self):
        specs = SceneSpec(grid=BevGridSpec(4, 2.0), layers=HeightLayerSpec(3, 0, 1))
        data = np.zeros((3, 4, 4, 2))
        data[0, 0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="^volume holds a non-finite entry$"):
            check_inputs(specs, data, np.zeros((3, 4, 4)), np.zeros((4, 4, 2)))

    def test_bev_feature_map_shape_checked(self):
        specs = SceneSpec(grid=BevGridSpec(4, 2.0), layers=HeightLayerSpec(5, 0, 1))
        with pytest.raises(ValueError, match=re.escape(
                "f_sat must be (4, 4, 2) for the scene's specs, got (3, 4, 2)")):
            check_inputs(specs, np.zeros((5, 4, 4, 2)), np.zeros((5, 4, 4)), np.zeros((3, 4, 2)))
        with pytest.raises(ValueError, match=re.escape("BEV feature map must be (N, N, c)")):
            BevFeatureMap(np.zeros((4, 4)))

    # a (41, 40, 16) pair ran the whole similarity before extract_matches refused its patch
    # count, and a (0, 0, 3) map failed inside numpy's reshape
    @pytest.mark.parametrize("shape", [(41, 40, 16), (3, 4, 2), (0, 0, 3), (0, 4, 2)], ids=str)
    def test_bev_feature_map_not_square_or_empty_rejected(self, shape):
        with pytest.raises(ValueError, match=re.escape(
                f"BEV feature map must be (N, N, c), got shape {shape}")):
            BevFeatureMap(np.zeros(shape))


class TestCheckInputShapes:
    SPECS = SceneSpec(grid=BevGridSpec(5, 8.0), layers=HeightLayerSpec(3, 0, 1))
    GOOD = {"volume": (3, 5, 5, 2), "conf_logits": (3, 5, 5), "f_sat": (5, 5, 2),
            "depth_sat": (5, 5)}

    def check(self, where="", **shapes):
        arrays = {name: np.zeros(shape) for name, shape in {**self.GOOD, **shapes}.items()}
        check_inputs(self.SPECS, **arrays, where=where)

    def test_shapes_of_the_specs_pass(self):
        self.check()
        check_inputs(self.SPECS, np.zeros((3, 5, 5, 7)), np.zeros((3, 5, 5)),
                     np.zeros((5, 5, 7)))   # any c, and no depth map
        check_inputs(self.SPECS, None, None, np.zeros((5, 5, 16)))   # c of f_sat alone

    @pytest.mark.parametrize("name, shape, wanted", [
        ("volume", (3, 5, 4, 2), "(3, 5, 5, 2)"),
        ("volume", (3, 5, 5), "(3, 5, 5, 5)"),
        ("conf_logits", (2, 5, 5), "(3, 5, 5)"),
        ("f_sat", (5, 5, 3), "(5, 5, 2)"),
        ("depth_sat", (5, 5, 1), "(5, 5)"),
    ], ids=["volume-grid", "volume-rank", "conf_logits", "f_sat-channels", "depth_sat"])
    def test_off_the_specs_names_the_input(self, name, shape, wanted):
        with pytest.raises(ValueError, match=re.escape(
                f"scene: {name} must be {wanted} for the scene's specs, got {shape}")):
            self.check(where="scene: ", **{name: shape})

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", sorted(GOOD))
    def test_non_finite_entry_names_the_input(self, name, value):
        arrays = {key: np.zeros(shape) for key, shape in self.GOOD.items()}
        arrays[name].flat[-1] = value
        with pytest.raises(ValueError, match=f"^scene: {name} holds a non-finite entry$"):
            check_inputs(self.SPECS, **arrays, where="scene: ")
