import math

import numpy as np
import pytest

from crossview.geometry import AerialMeta, Pose3DoF, rotation_matrix
from crossview.solver import (CorrespondenceSet, pose_error,
                              solve_translation_only,
                              solve_weighted_procrustes)

META = AerialMeta(gsd_m_per_px=0.12, image_size_px=640)


def planted_set(rng, n_pairs, yaw, t, weight_low=0.1, weight_high=5.0, noise=0.0):
    g = rng.uniform(-40, 40, (n_pairs, 2))
    a = g @ rotation_matrix(yaw).T + t
    if noise:
        a = a + rng.normal(0, noise, a.shape)
    w = rng.uniform(weight_low, weight_high, n_pairs)
    return CorrespondenceSet(g, a, w)


class TestWeightedProcrustes:
    def test_recovers_planted_transform(self):
        rng = np.random.default_rng(0)
        yaw = math.radians(30.0)
        t = np.array([5.0, -3.0])
        pose, degenerate = solve_weighted_procrustes(planted_set(rng, 40, yaw, t))
        assert not degenerate
        assert np.linalg.norm(pose.t_px - t) < 1e-9
        assert abs(pose.yaw_rad - yaw) < 1e-9

    def test_identity_correspondences_give_identity_pose(self):
        rng = np.random.default_rng(1)
        g = rng.uniform(-10, 10, (20, 2))
        pose, degenerate = solve_weighted_procrustes(
            CorrespondenceSet(g, g.copy(), rng.uniform(0.5, 2, 20)))
        assert not degenerate
        assert pose.yaw_rad == 0.0
        assert np.array_equal(pose.t_px, np.zeros(2))

    @pytest.mark.parametrize("factor", [2.0, 0.25, 1024.0])
    def test_weight_scaling_by_powers_of_two_is_exact(self, factor):
        rng = np.random.default_rng(2)
        c = planted_set(rng, 30, 0.9, np.array([1.0, 2.0]), noise=0.3)
        scaled = CorrespondenceSet(c.ground_xy, c.aerial_xy, c.weights * factor)
        p1, _ = solve_weighted_procrustes(c)
        p2, _ = solve_weighted_procrustes(scaled)
        assert np.array_equal(p1.t_px, p2.t_px)
        assert p1.yaw_rad == p2.yaw_rad

    def test_weight_scaling_general_factor(self):
        rng = np.random.default_rng(3)
        c = planted_set(rng, 30, -1.2, np.array([-4.0, 9.0]), noise=0.5)
        scaled = CorrespondenceSet(c.ground_xy, c.aerial_xy, c.weights * 3.7)
        p1, _ = solve_weighted_procrustes(c)
        p2, _ = solve_weighted_procrustes(scaled)
        assert np.allclose(p1.t_px, p2.t_px, atol=1e-12)
        assert p1.yaw_rad == pytest.approx(p2.yaw_rad, abs=1e-12)

    def test_coincident_ground_points_fall_back(self):
        g = np.zeros((5, 2))
        a = np.tile(np.array([3.0, 4.0]), (5, 1))
        pose, degenerate = solve_weighted_procrustes(
            CorrespondenceSet(g, a, np.ones(5)))
        assert degenerate
        assert pose.yaw_rad == 0.0
        assert np.allclose(pose.t_px, [3.0, 4.0])

    def test_single_pair_is_degenerate(self):
        pose, degenerate = solve_weighted_procrustes(
            CorrespondenceSet([[1.0, 1.0]], [[2.0, 5.0]], [1.0]))
        assert degenerate
        assert np.allclose(pose.t_px, [1.0, 4.0])

    def test_zero_rotation_reduces_to_translation_only(self):
        rng = np.random.default_rng(4)
        g = rng.uniform(-20, 20, (50, 2))
        t = np.array([7.0, -2.0])
        c = CorrespondenceSet(g, g + t, rng.uniform(0.1, 3, 50))
        full, _ = solve_weighted_procrustes(c)
        trans_only = solve_translation_only(c, 0.0)
        assert abs(full.yaw_rad) < 1e-12
        assert np.allclose(full.t_px, trans_only.t_px, atol=1e-10)

    def test_noise_error_shrinks_with_pair_count(self):
        # statistical: median zero-yaw translation error over seeds decreases
        counts = (5, 25, 125)
        medians = []
        for n in counts:
            errs = []
            for seed in range(60):
                rng = np.random.default_rng(1000 + seed)
                t = rng.uniform(-20, 20, 2)
                c = planted_set(rng, n, 0.4, t, noise=0.5)
                pose, _ = solve_weighted_procrustes(c)
                errs.append(np.linalg.norm(pose.t_px - t))
            medians.append(np.median(errs))
        assert medians[0] > medians[1] > medians[2]


class TestTranslationOnly:
    def test_single_pair(self):
        c = CorrespondenceSet([[0.0, 0.0]], [[4.0, 4.0]], [1.0])
        pose = solve_translation_only(c, 0.0)
        assert np.array_equal(pose.t_px, [4.0, 4.0])
        assert pose.yaw_rad == 0.0

    def test_symmetric_outliers_cancel(self):
        g = np.array([[0.0, 0.0], [1.0, 1.0], [5.0, 5.0], [5.0, 5.0]])
        t = np.array([2.0, -1.0])
        a = g + t
        a[2] += np.array([0.0, 3.0])
        a[3] -= np.array([0.0, 3.0])
        pose = solve_translation_only(CorrespondenceSet(g, a, np.ones(4)), 0.0)
        assert np.allclose(pose.t_px, t, atol=1e-12)

    def test_matches_grid_search_oracle(self):
        rng = np.random.default_rng(5)
        yaw = 0.8
        c = planted_set(rng, 12, yaw, np.array([3.0, -1.0]), noise=1.0)
        pose = solve_translation_only(c, yaw)

        def objective(t):
            res = c.ground_xy @ rotation_matrix(yaw).T + t - c.aerial_xy
            return float((c.weights * (res ** 2).sum(axis=1)).sum())

        step = 0.02
        span = np.arange(-1.0, 1.0 + step, step)
        best, best_val = None, np.inf
        for dx in span:
            for dy in span:
                t = pose.t_px + np.array([dx, dy])
                val = objective(t)
                if val < best_val:
                    best, best_val = t, val
        assert np.linalg.norm(best - pose.t_px) <= step * math.sqrt(2) + 1e-12

    def test_preserves_fixed_yaw(self):
        rng = np.random.default_rng(6)
        c = planted_set(rng, 10, 1.1, np.array([0.0, 0.0]))
        assert solve_translation_only(c, 1.1).yaw_rad == pytest.approx(1.1)


class TestPoseError:
    def test_identical_poses(self):
        pose = Pose3DoF(np.array([3.0, 4.0]), 0.5)
        assert pose_error(pose, pose, META) == (0.0, 0.0)

    def test_pixel_offset_scales_by_gsd(self):
        a = Pose3DoF(np.array([10.0, 0.0]), 0.0)
        b = Pose3DoF(np.array([0.0, 0.0]), 0.0)
        trans, orient = pose_error(a, b, META)
        assert trans == pytest.approx(1.2)
        assert orient == 0.0

    def test_yaw_wraparound(self):
        a = Pose3DoF(np.zeros(2), math.radians(179.0))
        b = Pose3DoF(np.zeros(2), math.radians(-179.0))
        assert pose_error(a, b, META)[1] == pytest.approx(2.0, abs=1e-9)


class TestCorrespondenceSetValidation:
    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            CorrespondenceSet([[0, 0]], [[1, 1]], [-1.0])

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            CorrespondenceSet([[0, 0], [1, 1]], [[1, 1], [2, 2]], [0.0, 0.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CorrespondenceSet(np.zeros((0, 2)), np.zeros((0, 2)), np.zeros(0))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            CorrespondenceSet([[np.nan, 0]], [[1, 1]], [1.0])

    @pytest.mark.parametrize("ground_shape, aerial_shape", [((2, 3), (3, 2)), ((3, 2), (6,)),
                                                          ((3, 2, 1), (3, 2)), ((6,), (6,))])
    def test_points_not_k_by_2_rejected(self, ground_shape, aerial_shape):
        # read in twos, a (2, 3) ground array would pass as three points
        with pytest.raises(ValueError, match=r"correspondence points must be \(3, 2\)"):
            CorrespondenceSet(np.arange(6.0).reshape(ground_shape), np.zeros(aerial_shape),
                              np.ones(3))
