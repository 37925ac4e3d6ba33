import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossview.geometry import BevGridSpec, HeightLayerSpec
from crossview.surface import (BevFeatureMap, ConfidenceVolume, FeatureVolume,
                               SurfaceMap,
                               aerial_depth_to_height_index,
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
        assert np.allclose(conf.conf, 1.0 / 11.0)

    def test_large_logit_saturates(self):
        raw = np.zeros((5, 1, 1))
        raw[3] = 100.0
        conf = normalize_confidence(raw)
        assert conf.conf[3, 0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_two_layer_closed_form(self):
        raw = column_volume([math.log(3.0), 0.0])
        conf = normalize_confidence(raw)
        assert conf.conf[0, 0, 0] == pytest.approx(0.75, abs=1e-12)
        assert conf.conf[1, 0, 0] == pytest.approx(0.25, abs=1e-12)

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
        assert np.all(conf.conf >= 0)
        assert np.allclose(conf.conf.sum(axis=0), 1.0, atol=1e-6)
        cum = np.cumsum(conf.conf, axis=0)
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
        conf = ConfidenceVolume(column_volume(col))
        surf = surface_from_accumulation(conf, 0.5, LAYERS)
        assert surf.index[0, 0] == 4
        assert surf.height_m[0, 0] == LAYERS.height_of(4)

    def test_uniform_column(self):
        # cumulative first exceeds 0.5 at 6/11
        conf = ConfidenceVolume(column_volume(np.full(11, 1.0 / 11.0)))
        assert surface_from_accumulation(conf, 0.5, LAYERS).index[0, 0] == 5

    def test_boundary_is_strict(self):
        # cumulative hits exactly 0.5 at layer 0, strict ">" postpones to layer 1
        layers = HeightLayerSpec(2, 0.0, 1.0)
        conf = ConfidenceVolume(column_volume([0.5, 0.5]))
        assert surface_from_accumulation(conf, 0.5, layers).index[0, 0] == 1

    def test_never_exceeded_falls_back_to_top(self):
        layers = HeightLayerSpec(2, 0.0, 1.0)
        # sums to slightly under 1 (within validation tolerance)
        conf = ConfidenceVolume(column_volume([0.4999990, 0.4999990]))
        assert surface_from_accumulation(conf, 0.9999995, layers).index[0, 0] == 1

    @pytest.mark.parametrize("threshold", [0.0, 1.0, -0.2, 1.5])
    def test_threshold_domain(self, threshold):
        conf = ConfidenceVolume(column_volume(np.full(11, 1.0 / 11.0)))
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
                    assert surf.index[i, j] == scan_oracle(conf.conf[:, i, j], threshold)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), below=st.integers(0, 9),
           threshold=st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9]))
    def test_adding_mass_below_never_raises_surface(self, seed, below, threshold):
        rng = np.random.default_rng(seed)
        col = rng.dirichlet(np.ones(11))
        conf = ConfidenceVolume(column_volume(col))
        idx = surface_from_accumulation(conf, threshold, LAYERS).index[0, 0]
        if below >= idx:
            return
        bumped = col.copy()
        bumped[below] += 0.5
        bumped /= bumped.sum()
        conf2 = ConfidenceVolume(column_volume(bumped))
        idx2 = surface_from_accumulation(conf2, threshold, LAYERS).index[0, 0]
        assert idx2 <= idx


def make_volume(data, layers=None, grid=None):
    data = np.asarray(data, dtype=float)
    layers = layers or HeightLayerSpec(data.shape[0], 0.0, float(data.shape[0] - 1))
    grid = grid or BevGridSpec(data.shape[1], 2.0)
    return FeatureVolume(data, layers, grid)


class TestFuseHeightFeatures:
    def test_uniform_confidence_full_window_is_mean(self):
        rng = np.random.default_rng(0)
        vol = make_volume(rng.normal(size=(4, 3, 3, 5)))
        conf = ConfidenceVolume(np.full((4, 3, 3), 0.25))
        surf = SurfaceMap.from_index(np.ones((3, 3), dtype=int), vol.layer_spec)
        fused = fuse_height_features(vol, conf, surf, window=None)
        assert np.allclose(fused.data, vol.data.mean(axis=0), atol=1e-12)

    def test_zero_window_is_direct_indexing(self):
        rng = np.random.default_rng(1)
        vol = make_volume(rng.normal(size=(5, 3, 3, 4)))
        conf = normalize_confidence(rng.normal(size=(5, 3, 3)))
        surf_idx = rng.integers(0, 5, size=(3, 3))
        surf = SurfaceMap.from_index(surf_idx, vol.layer_spec)
        fused = fuse_height_features(vol, conf, surf, window=0)
        ii, jj = np.meshgrid(np.arange(3), np.arange(3), indexing="ij")
        assert np.array_equal(fused.data, vol.data[surf_idx, ii, jj])

    def test_hand_computed_window(self):
        # conf (0.2, 0.3, 0.5), surface 2, window 1 -> (0.3 v1 + 0.5 v2) / 0.8
        rng = np.random.default_rng(2)
        vol = make_volume(rng.normal(size=(3, 2, 2, 4)))
        conf = ConfidenceVolume(np.broadcast_to(
            np.array([0.2, 0.3, 0.5])[:, None, None], (3, 2, 2)).copy())
        surf = SurfaceMap.from_index(np.full((2, 2), 2), vol.layer_spec)
        fused = fuse_height_features(vol, conf, surf, window=1)
        expected = (0.3 * vol.data[1] + 0.5 * vol.data[2]) / 0.8
        assert np.allclose(fused.data, expected, atol=1e-12)

    def test_zero_mass_window_falls_back_to_uniform(self):
        rng = np.random.default_rng(3)
        vol = make_volume(rng.normal(size=(3, 2, 2, 2)))
        conf = ConfidenceVolume(np.broadcast_to(
            np.array([1.0, 0.0, 0.0])[:, None, None], (3, 2, 2)).copy())
        surf = SurfaceMap.from_index(np.full((2, 2), 2), vol.layer_spec)
        fused = fuse_height_features(vol, conf, surf, window=0)
        ii, jj = np.meshgrid(np.arange(2), np.arange(2), indexing="ij")
        assert np.array_equal(fused.data, vol.data[surf.index, ii, jj])

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(7)
        vol = make_volume(rng.normal(size=(3, 2, 2, 6)))
        conf = ConfidenceVolume(np.full((4, 2, 2), 0.25))
        surf = SurfaceMap.from_index(np.zeros((2, 2), dtype=int), vol.layer_spec)
        with pytest.raises(ValueError):
            fuse_height_features(vol, conf, surf)


class TestAerialDepthToHeightIndex:
    def test_min_depth_anchors_to_ground_tie(self):
        # h = -3 sits halfway between the -4 and -2 layers; ties round down
        depth = np.array([[0.0, 13.0], [5.0, 7.0]])
        surf = aerial_depth_to_height_index(depth, LAYERS)
        assert surf.index[0, 0] == 3

    def test_max_depth_hits_top_layer(self):
        depth = np.array([[0.0, 13.0], [5.0, 7.0]])
        surf = aerial_depth_to_height_index(depth, LAYERS)
        assert surf.index[0, 1] == LAYERS.num_layers - 1

    def test_constant_map_flagged_and_grounded(self):
        with pytest.warns(RuntimeWarning):
            surf = aerial_depth_to_height_index(np.full((3, 3), 7.0), LAYERS)
        assert np.all(surf.index == LAYERS.nearest_index(-3.0))

    def test_invariant_to_constant_shift(self):
        rng = np.random.default_rng(8)
        depth = rng.uniform(0, 40, (6, 6))
        a = aerial_depth_to_height_index(depth, LAYERS)
        b = aerial_depth_to_height_index(depth + 123.4, LAYERS)
        assert np.array_equal(a.index, b.index)

    def test_explicit_scale(self):
        depth = np.array([[0.0, 2.0, 4.0]])
        surf = aerial_depth_to_height_index(depth, LAYERS, scale=1.0)
        assert np.array_equal(surf.index[0], LAYERS.nearest_index(np.array([-3.0, -1.0, 1.0])))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            aerial_depth_to_height_index(np.array([[np.inf, 0.0]]), LAYERS)


class TestContainerValidation:
    def test_confidence_volume_must_be_normalized(self):
        with pytest.raises(ValueError):
            ConfidenceVolume(np.full((3, 2, 2), 0.5))

    def test_confidence_volume_rejects_negative(self):
        col = np.array([1.2, -0.2])
        with pytest.raises(ValueError):
            ConfidenceVolume(column_volume(col))

    def test_feature_volume_shape_checked(self):
        with pytest.raises(ValueError):
            FeatureVolume(np.zeros((3, 4, 4, 2)), HeightLayerSpec(5, 0, 1), BevGridSpec(4, 2.0))

    def test_feature_volume_rejects_nan(self):
        data = np.zeros((3, 4, 4, 2))
        data[0, 0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            FeatureVolume(data, HeightLayerSpec(3, 0, 1), BevGridSpec(4, 2.0))

    def test_bev_feature_map_shape_checked(self):
        with pytest.raises(ValueError):
            BevFeatureMap(np.zeros((3, 4, 2)), BevGridSpec(4, 2.0))
