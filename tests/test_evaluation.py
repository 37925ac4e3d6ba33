import codecs
import math
import re
import tracemalloc

import numpy as np
import pytest

from crossview import evaluation
from crossview.evaluation import (MatchPrediction, build_gt_projection,
                                  load_gt_projection, localization_stats,
                                  matching_success_ratio, save_gt_projection)
from crossview.geometry import (AerialMeta, CameraIntrinsics, Pose3DoF,
                                aerial_px_to_metric, metric_to_aerial_px,
                                panorama_pixel_ray)
from crossview.tensorio import MANIFEST, load_tensor, save_tensor, save_tensor_dir

INTR = CameraIntrinsics(panorama_width=128, panorama_height=64, camera_height_m=2.5)
META = AerialMeta(gsd_m_per_px=0.12, image_size_px=512)
POSE = Pose3DoF(np.array([256.0, 256.0]), 0.0)


def flat_depth(value):
    return np.full((INTR.panorama_height, INTR.panorama_width), value)


class TestBuildGtProjection:
    def test_forward_pixel_at_known_depth(self):
        # center pixel looks straight ahead; 12 m at 0.12 m/px is 100 px north
        depth = flat_depth(np.nan)
        u, v = INTR.panorama_width // 2, INTR.panorama_height // 2
        depth[v, u] = 12.0
        proj = build_gt_projection(depth, INTR, POSE, META)
        assert np.isfinite(proj).all(axis=-1)[v, u]
        assert proj[v, u, 0] == pytest.approx(POSE.t_px[0] + 100.0, abs=1e-9)
        assert proj[v, u, 1] == pytest.approx(POSE.t_px[1], abs=1e-9)

    def test_range_threshold(self):
        depth = flat_depth(np.nan)
        u, v = 64, 32
        depth[v, u] = 31.0
        proj = build_gt_projection(depth, INTR, POSE, META)
        assert not np.isfinite(proj).all(axis=-1)[v, u]
        depth[v, u] = 29.0
        assert np.isfinite(build_gt_projection(depth, INTR, POSE, META)[v, u]).all()

    def test_missing_depth_invalid(self):
        proj = build_gt_projection(flat_depth(np.nan), INTR, POSE, META)
        assert not np.isfinite(proj).all(axis=-1).any()

    def test_out_of_image_invalid(self):
        pose = Pose3DoF(np.array([2.0, 256.0]), math.pi)  # looking off the west edge
        depth = flat_depth(np.nan)
        u, v = INTR.panorama_width // 2, INTR.panorama_height // 2
        depth[v, u] = 10.0
        proj = build_gt_projection(depth, INTR, pose, META)
        assert not np.isfinite(proj).all(axis=-1)[v, u]

    def test_round_trip_recovers_planar_point(self):
        rng = np.random.default_rng(0)
        depth = rng.uniform(1.0, 25.0, (INTR.panorama_height, INTR.panorama_width))
        proj = build_gt_projection(depth, INTR, POSE, META)
        vs, us = np.nonzero(np.isfinite(proj).all(axis=-1))
        for v, u in list(zip(vs, us))[::97]:
            dx, dy, _ = panorama_pixel_ray(INTR, u, v)
            expected = (depth[v, u] * dx, depth[v, u] * dy)
            back = aerial_px_to_metric(META, POSE, *proj[v, u])
            assert math.hypot(back[0] - expected[0], back[1] - expected[1]) < 1e-6

    def test_matches_per_pixel_oracle(self):
        rng = np.random.default_rng(1)
        depth = rng.uniform(0.5, 45.0, (INTR.panorama_height, INTR.panorama_width))
        depth[rng.uniform(size=depth.shape) < 0.05] = np.nan
        proj = build_gt_projection(depth, INTR, POSE, META)
        size = META.image_size_px
        for v in range(INTR.panorama_height):
            for u in range(INTR.panorama_width):
                d = depth[v, u]
                if not np.isfinite(d) or d <= 0 or d > 30.0:
                    assert not np.isfinite(proj).all(axis=-1)[v, u]
                    continue
                az = (u / INTR.panorama_width - 0.5) * 2 * math.pi
                el = (0.5 - v / INTR.panorama_height) * math.pi
                x = d * math.cos(el) * math.cos(az)
                y = d * math.cos(el) * math.sin(az)
                xs, ys = metric_to_aerial_px(META, POSE, x, y)
                inside = 0 <= xs <= size - 1 and 0 <= ys <= size - 1
                assert np.isfinite(proj).all(axis=-1)[v, u] == inside
                if inside:
                    assert proj[v, u, 0] == pytest.approx(xs, abs=1e-9)
                    assert proj[v, u, 1] == pytest.approx(ys, abs=1e-9)

    def test_matches_meshgrid_ray_oracle_exactly(self):
        # rays of every pixel from a full (H, W) meshgrid, the unfactored form
        intr = CameraIntrinsics(panorama_width=256, panorama_height=128, camera_height_m=2.5,
                                azimuth_offset_rad=0.7)
        pose = Pose3DoF(np.array([231.5, 270.25]), -2.1)
        rng = np.random.default_rng(3)
        depth = rng.uniform(-5.0, 45.0, (intr.panorama_height, intr.panorama_width))
        depth[rng.uniform(size=depth.shape) < 0.05] = np.nan
        proj = build_gt_projection(depth, intr, pose, META)

        vv, uu = np.meshgrid(np.arange(intr.panorama_height), np.arange(intr.panorama_width),
                             indexing="ij")
        dx, dy, _ = panorama_pixel_ray(intr, uu, vv)
        with np.errstate(invalid="ignore"):
            xs, ys = metric_to_aerial_px(META, pose, depth * dx, depth * dy)
            valid = (np.isfinite(depth) & (depth > 0) & (depth <= 30.0)
                     & META.contains(xs) & META.contains(ys))
        sat = np.where(valid[..., None], np.stack([xs, ys], axis=-1), np.nan)
        assert valid.any() and not valid.all()
        assert np.array_equal(np.isfinite(proj).all(axis=-1), valid)
        assert np.array_equal(proj, sat, equal_nan=True)

    def test_matches_out_of_place_formula_exactly(self):
        # the pose map written out as whole-array expressions, rotation included,
        # over missing, non-positive, infinite and beyond-range depths
        intr = CameraIntrinsics(panorama_width=256, panorama_height=128, camera_height_m=2.5,
                                azimuth_offset_rad=-0.4)
        rng = np.random.default_rng(8)
        h, w = intr.panorama_height, intr.panorama_width
        for yaw in (0.0, 0.9, -2.7, math.pi):
            pose = Pose3DoF(rng.uniform(100.0, 400.0, 2), yaw)
            depth = rng.uniform(-5.0, 60.0, (h, w))
            for value, share in ((np.nan, 0.05), (np.inf, 0.01), (-np.inf, 0.01), (0.0, 0.01)):
                depth[rng.uniform(size=depth.shape) < share] = value
            dx, dy, _ = panorama_pixel_ray(intr, np.arange(w), np.arange(h)[:, None])
            c, s = math.cos(pose.yaw_rad), math.sin(pose.yaw_rad)
            with np.errstate(invalid="ignore"):
                x, y = depth * dx, depth * dy
                xs = pose.t_px[0] + (c * x - s * y) / META.gsd_m_per_px
                ys = pose.t_px[1] + (s * x + c * y) / META.gsd_m_per_px
                valid = (np.isfinite(depth) & (depth > 0) & (depth <= 30.0)
                         & META.contains(xs) & META.contains(ys))
            sat = np.where(valid[..., None], np.stack([xs, ys], axis=-1), np.nan)
            proj = build_gt_projection(depth, intr, pose, META)
            assert valid.any() and not valid.all()
            assert np.array_equal(np.isfinite(proj).all(axis=-1), valid)
            assert np.array_equal(proj, sat, equal_nan=True)

    def test_row_blocks_match_the_whole_array_formula_exactly(self):
        # 150 rows: two full blocks of rows and a partial one
        intr = CameraIntrinsics(panorama_width=300, panorama_height=150, camera_height_m=2.5,
                                azimuth_offset_rad=0.3)
        assert intr.panorama_height % evaluation._PROJECTION_ROWS != 0
        assert intr.panorama_height > 2 * evaluation._PROJECTION_ROWS
        pose = Pose3DoF(np.array([210.0, 290.5]), 1.1)
        rng = np.random.default_rng(12)
        h, w = intr.panorama_height, intr.panorama_width
        depth = rng.uniform(-5.0, 45.0, (h, w))
        depth[rng.uniform(size=depth.shape) < 0.05] = np.nan
        dx, dy, _ = panorama_pixel_ray(intr, np.arange(w), np.arange(h)[:, None])
        with np.errstate(invalid="ignore"):
            xs, ys = metric_to_aerial_px(META, pose, depth * dx, depth * dy)
            valid = (np.isfinite(depth) & (depth > 0) & (depth <= 30.0)
                     & META.contains(xs) & META.contains(ys))
        sat = np.where(valid[..., None], np.stack([xs, ys], axis=-1), np.nan)
        proj = build_gt_projection(depth, intr, pose, META)
        assert valid[:64].any() and valid[128:].any() and not valid.all()
        assert np.array_equal(np.isfinite(proj).all(axis=-1), valid)
        assert np.array_equal(proj, sat, equal_nan=True)

    @staticmethod
    def whole_array_formula(depth, intr, pose):
        dx, dy, _ = panorama_pixel_ray(intr, np.arange(intr.panorama_width),
                                       np.arange(intr.panorama_height)[:, None])
        with np.errstate(invalid="ignore"):
            xs, ys = metric_to_aerial_px(META, pose, depth * dx, depth * dy)
            valid = (np.isfinite(depth) & (depth > 0) & (depth <= 30.0)
                     & META.contains(xs) & META.contains(ys))
        return valid, np.where(valid[..., None], np.stack([xs, ys], axis=-1), np.nan)

    @pytest.mark.parametrize("block", [0, 1, 2], ids=["first", "middle", "partial-last"])
    @pytest.mark.parametrize("case", ["nan", "out-of-range", "one-on-first-row",
                                      "one-on-last-row"])
    def test_blocks_with_no_or_one_valid_depth_match_the_whole_array_formula(self, case, block):
        # one block of a 150-row panorama holds no valid depth, or a single one on its
        # first or last row; the blocks around it are random
        intr = CameraIntrinsics(panorama_width=300, panorama_height=150, camera_height_m=2.5,
                                azimuth_offset_rad=0.3)
        pose = Pose3DoF(np.array([210.0, 290.5]), 1.1)
        rng = np.random.default_rng(13)
        h, w = intr.panorama_height, intr.panorama_width
        depth = rng.uniform(-5.0, 45.0, (h, w))
        depth[rng.uniform(size=depth.shape) < 0.05] = np.nan
        top = block * evaluation._PROJECTION_ROWS
        rows = slice(top, min(top + evaluation._PROJECTION_ROWS, h))
        if case == "out-of-range":
            beyond = rng.uniform(30.0, 60.0, depth[rows].shape)
            beyond[beyond == 30.0] = 60.0
            nonpositive = -rng.uniform(0.0, 5.0, depth[rows].shape)
            depth[rows] = np.where(rng.uniform(size=beyond.shape) < 0.5, beyond, nonpositive)
            depth[top, :3] = (0.0, np.inf, -np.inf)
        else:
            depth[rows] = np.nan
        if case == "one-on-first-row":
            depth[top, 17] = 12.0
        elif case == "one-on-last-row":
            depth[rows.stop - 1, 211] = 12.0
        valid, sat = self.whole_array_formula(depth, intr, pose)
        proj = build_gt_projection(depth, intr, pose, META)
        assert np.count_nonzero(valid[rows]) == case.startswith("one-on")
        assert np.array_equal(proj, sat, equal_nan=True)

    def test_only_blocks_with_a_valid_depth_are_projected(self, monkeypatch):
        # the top half of a 512 x 1024 panorama is sky: 4 of its 8 blocks hold no depth
        intr = CameraIntrinsics(panorama_width=1024, panorama_height=512)
        depth = np.random.default_rng(14).uniform(1.0, 25.0, (512, 1024))
        depth[:256] = np.nan
        pose = Pose3DoF(np.array([250.0, 260.0]), 0.4)
        projected = []

        def counting_ray(intr, u, v):
            projected.append((int(v[0, 0]), int(v[-1, 0])))
            return panorama_pixel_ray(intr, u, v)

        monkeypatch.setattr(evaluation, "panorama_pixel_ray", counting_ray)
        proj = build_gt_projection(depth, intr, pose, META)
        assert projected == [(top, top + 63) for top in range(256, 512, 64)]
        assert np.isnan(proj[:256]).all() and np.isfinite(proj[256:]).any()
        assert np.array_equal(proj, self.whole_array_formula(depth, intr, pose)[1],
                              equal_nan=True)

    def test_leaves_the_depth_map_unchanged(self):
        rng = np.random.default_rng(9)
        depth = rng.uniform(-5.0, 45.0, (INTR.panorama_height, INTR.panorama_width))
        depth[rng.uniform(size=depth.shape) < 0.05] = np.nan
        before = depth.copy()
        build_gt_projection(depth, INTR, Pose3DoF(np.array([250.0, 260.0]), 1.3), META)
        assert depth.tobytes() == before.tobytes()

    def test_paper_size_peak_memory(self):
        # one (512, 1024) float64 plane is 4.2 MB and the (512, 1024, 2) result 8.4 MB;
        # whole-array expressions and a boolean-index NaN fill peaked at 38.3 MB;
        # releasing the scaled ray planes before the result is built gave 21.5 MB,
        # projecting 64 rows at a time into the result 12.7 MB, and dropping the
        # separate (512, 1024) validity mask gives 12.2 MB
        intr = CameraIntrinsics(panorama_width=1024, panorama_height=512)
        depth = np.random.default_rng(10).uniform(-5.0, 45.0, (512, 1024))
        pose = Pose3DoF(np.array([300.0, 310.0]), 0.4)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            build_gt_projection(depth, intr, pose, META)
            peak_mb = (tracemalloc.get_traced_memory()[1] - base) / 1e6
        finally:
            tracemalloc.stop()
        assert peak_mb < 13.0

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        depth = rng.uniform(1.0, 40.0, (INTR.panorama_height, INTR.panorama_width))
        proj = build_gt_projection(depth, INTR, POSE, META)
        save_gt_projection(tmp_path / "gt", proj)
        back = load_gt_projection(tmp_path / "gt")
        valid = np.isfinite(proj).all(axis=-1)
        assert np.array_equal(np.isfinite(back).all(axis=-1), valid)
        assert np.allclose(back[valid], proj[valid], atol=1e-3)
        assert np.all(np.isnan(back[~valid]))

    def test_load_returns_float64_targets_nan_outside_the_region(self, tmp_path):
        sat = np.where(np.eye(4, 6, dtype=bool)[..., None], np.arange(48.0).reshape(4, 6, 2),
                       np.nan)
        save_gt_projection(tmp_path / "gt", sat)
        back = load_gt_projection(tmp_path / "gt")
        assert back.dtype == np.float64
        assert np.array_equal(back, sat, equal_nan=True)

    def test_load_rejects_wrong_format(self, tmp_path):
        save_tensor_dir(tmp_path / "gt", "scene-v1", {"gt_xy": np.ones((2, 4, 2))})
        with pytest.raises(ValueError, match="unknown format"):
            load_gt_projection(tmp_path / "gt")

    def test_directory_holds_the_map_once(self, tmp_path):
        proj = build_gt_projection(flat_depth(10.0), INTR, POSE, META)
        save_gt_projection(tmp_path / "gt", proj)
        assert sorted(p.name for p in (tmp_path / "gt").iterdir()) == ["gt_xy.cvt", MANIFEST]
        stored = load_tensor(tmp_path / "gt" / "gt_xy.cvt")
        assert np.array_equal(stored, proj.astype(np.float32), equal_nan=True)
        back = load_gt_projection(tmp_path / "gt")
        assert back.dtype == np.float64
        assert np.array_equal(back, stored.astype(float), equal_nan=True)

    def test_save_writes_nan_at_every_pixel_with_a_non_finite_coordinate(self, tmp_path):
        sat = np.arange(24.0).reshape(3, 4, 2)
        sat[0, 1, 0] = np.nan
        sat[1, 2, 1] = np.inf
        sat[2, 3] = -np.inf
        save_gt_projection(tmp_path / "gt", sat)
        back = load_gt_projection(tmp_path / "gt")
        outside = np.zeros((3, 4), dtype=bool)
        outside[0, 1] = outside[1, 2] = outside[2, 3] = True
        assert np.isnan(back[outside]).all()
        assert np.array_equal(back[~outside], sat[~outside])

    def test_load_rejects_a_v1_directory(self, tmp_path):
        # the retired layout: zero-filled targets beside a 0/1 region mask
        tensors = {"gt_sat_x": np.zeros((4, 8)), "gt_sat_y": np.zeros((4, 8)),
                   "gt_valid": np.ones((4, 8))}
        save_tensor_dir(tmp_path / "gt", "gt-projection-v1", tensors)
        message = "unknown format 'gt-projection-v1', expected 'gt-projection-v2'"
        with pytest.raises(ValueError, match=re.escape(f"{tmp_path / 'gt'}: {message}")):
            load_gt_projection(tmp_path / "gt")

    @pytest.mark.parametrize("shape", [(8,), (4, 8), (4, 8, 3), (4, 8, 2, 1), (0, 8, 2),
                                       (4, 0, 2)],
                             ids=["W", "HxW", "HxWx3", "HxWx2x1", "0xWx2", "Hx0x2"])
    def test_load_rejects_a_tensor_not_shaped_hxwx2(self, tmp_path, shape):
        save_tensor_dir(tmp_path / "gt", "gt-projection-v2", {"gt_xy": np.zeros(shape)})
        with pytest.raises(ValueError, match=re.escape(
                f"{tmp_path / 'gt'}: gt_xy has shape {shape}, expected (H, W, 2)")):
            load_gt_projection(tmp_path / "gt")

    @pytest.mark.parametrize("coord", [0, 1], ids=["x", "y"])
    @pytest.mark.parametrize("value, detail", [
        (np.inf, "gt_xy holds an infinite entry"),
        (-np.inf, "gt_xy holds an infinite entry"),
        # a pixel is inside the region or outside it, never half of each
        (np.nan, "gt_xy holds a pixel with exactly one NaN coordinate"),
    ], ids=["inf", "-inf", "nan"])
    def test_load_rejects_a_non_finite_target_inside_the_region(self, tmp_path, value, detail,
                                                                 coord):
        proj = build_gt_projection(flat_depth(10.0), INTR, POSE, META)
        save_gt_projection(tmp_path / "gt", proj)
        stored = load_tensor(tmp_path / "gt" / "gt_xy.cvt")
        v, u = np.argwhere(np.isfinite(proj).all(axis=-1))[0]
        stored[v, u, coord] = value
        save_tensor(tmp_path / "gt" / "gt_xy.cvt", stored)
        with pytest.raises(ValueError, match=re.escape(f"{tmp_path / 'gt'}: {detail}")):
            load_gt_projection(tmp_path / "gt")

    def test_save_refuses_a_target_beyond_the_float32_range(self, tmp_path):
        # written as inf, the map would be refused by its own reader
        sat = np.arange(12.0).reshape(2, 3, 2)
        sat[1, 0, 1] = 1e39
        gt_dir = tmp_path / "gt"
        with pytest.raises(ValueError, match=re.escape(
                f"{gt_dir / 'gt_xy.cvt'}: entry (1, 0, 1) overflows float32")):
            save_gt_projection(gt_dir, sat)
        assert not gt_dir.exists()

    def test_load_rejects_missing_manifest(self, tmp_path):
        proj = build_gt_projection(flat_depth(10.0), INTR, POSE, META)
        save_gt_projection(tmp_path / "gt", proj)
        (tmp_path / "gt" / MANIFEST).unlink()
        with pytest.raises(OSError):
            load_gt_projection(tmp_path / "gt")


def make_gt(size=64):
    """Simple synthetic gt: left half of the panorama valid, fixed targets."""
    h, w = 32, 64
    valid = np.zeros((h, w), dtype=bool)
    valid[:, : w // 2] = True
    sat = np.full((h, w, 2), np.nan)
    vv, uu = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    sat[..., 0] = 100.0 + uu
    sat[..., 1] = 50.0 + vv
    sat[~valid] = np.nan
    return sat


class TestMatchingSuccessRatio:
    def test_all_exact(self):
        gt = make_gt()
        grd = np.array([[u, v] for u, v in zip(range(30), range(30))], dtype=float)
        sat = np.stack([100.0 + grd[:, 0], 50.0 + grd[:, 1]], axis=1)
        report = matching_success_ratio(MatchPrediction(grd, sat), gt)
        assert report["ratios"] == [1.0, 1.0, 1.0]
        assert report["valid_ratio"] == 1.0

    def test_planted_partial_success(self):
        # 12 valid pairs within 5 px, 18 in the invalid half
        gt = make_gt()
        grd = [[u, 5] for u in range(12)] + [[u % 30 + 33, 5] for u in range(18)]
        grd = np.array(grd, dtype=float)
        sat = np.stack([100.0 + grd[:, 0] + 3.0, np.full(30, 55.0)], axis=1)
        report = matching_success_ratio(MatchPrediction(grd, sat), gt, (5.0,))
        assert report["ratios"][0] == pytest.approx(0.4)
        assert report["valid_ratio"] == pytest.approx(0.4)

    def test_invalid_region_counts_in_denominator_only(self):
        gt = make_gt()
        grd = np.array([[40.0, 5.0]])  # invalid half
        sat = np.array([[140.0, 55.0]])
        report = matching_success_ratio(MatchPrediction(grd, sat), gt, (1000.0,))
        assert report["ratios"][0] == 0.0
        assert report["valid_ratio"] == 0.0

    def test_out_of_panorama_prediction_is_invalid(self):
        gt = make_gt()
        pred = MatchPrediction(np.array([[-5.0, 2.0]]), np.array([[0.0, 0.0]]))
        report = matching_success_ratio(pred, gt, (5.0,))
        assert report["valid_ratio"] == 0.0

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(3)
        gt = make_gt()
        grd = np.stack([rng.uniform(0, 63, 40), rng.uniform(0, 31, 40)], axis=1)
        sat = np.stack([100.0 + grd[:, 0] + rng.normal(0, 6, 40),
                        50.0 + grd[:, 1] + rng.normal(0, 6, 40)], axis=1)
        report = matching_success_ratio(MatchPrediction(grd, sat), gt,
                                        (1.0, 3.0, 9.0, 27.0))
        assert report["ratios"] == sorted(report["ratios"])

    def test_invariant_under_prediction_permutation(self):
        rng = np.random.default_rng(4)
        gt = make_gt()
        grd = np.stack([rng.uniform(0, 63, 25), rng.uniform(0, 31, 25)], axis=1)
        sat = rng.uniform(0, 200, (25, 2))
        a = matching_success_ratio(MatchPrediction(grd, sat), gt)
        perm = rng.permutation(25)
        b = matching_success_ratio(MatchPrediction(grd[perm], sat[perm]), gt)
        assert a == b

    @pytest.mark.parametrize("shape", [(32, 64), (32, 64, 3), (64, 2), (0, 5, 2), (4, 0, 2)],
                             ids=["HxW", "HxWx3", "Kx2", "0xWx2", "Hx0x2"])
    def test_target_map_of_another_shape_rejected(self, shape):
        pred = MatchPrediction(np.array([[1.0, 1.0]]), np.array([[1.0, 1.0]]))
        with pytest.raises(ValueError, match=r"target map has shape .*expected \(H, W, 2\)"):
            matching_success_ratio(pred, np.zeros(shape))

    def test_empty_predictions_rejected(self):
        with pytest.raises(ValueError):
            matching_success_ratio(
                MatchPrediction(np.zeros((0, 2)), np.zeros((0, 2))), make_gt())

    def test_non_positive_threshold_rejected(self):
        gt = make_gt()
        pred = MatchPrediction(np.array([[1.0, 1.0]]), np.array([[1.0, 1.0]]))
        with pytest.raises(ValueError):
            matching_success_ratio(pred, gt, (0.0,))
        for bad in ((math.nan, 5.0), (math.inf,), (-1.0,)):
            with pytest.raises(ValueError, match="finite and positive"):
                matching_success_ratio(pred, gt, bad)

    @pytest.mark.parametrize("value", ["15", b"5", [], 5.0, np.array(5.0), [True]],
                             ids=["str", "bytes", "empty", "number", "0-d array", "bool"])
    def test_string_or_empty_thresholds_rejected(self, value):
        # a string would read as one-character thresholds, "15" as 1 px and 5 px; True as 1 px
        pred = MatchPrediction(np.array([[1.0, 1.0]]), np.array([[1.0, 1.0]]))
        with pytest.raises(ValueError, match="thresholds must"):
            matching_success_ratio(pred, make_gt(), value)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", [1e300, -1e300])
    def test_huge_finite_pixel_is_outside_the_panorama(self, value):
        # casting rint(1e300) to int is platform-defined; only clipped pixels are cast
        gt = make_gt()
        grd = np.array([[value, 2.0], [2.0, value], [1.0, 1.0]])
        sat = np.array([[3.0, 4.0], [3.0, 4.0], [101.0, 51.0]])
        report = matching_success_ratio(MatchPrediction(grd, sat), gt, (5.0,))
        assert report["ratios"] == [1 / 3]
        assert report["valid_ratio"] == 1 / 3

    @pytest.mark.parametrize("grd_shape, sat_shape", [((3, 4), (6, 2)), ((2, 3), (2, 3)),
                                                      ((4,), (4,)), ((2, 2, 2), (4, 2))])
    def test_prediction_arrays_not_k_by_2_rejected(self, grd_shape, sat_shape):
        # read in twos, each pair would pass: a (3, 4) beside a (6, 2) as six pairs
        with pytest.raises(ValueError, match=r"prediction arrays must be \(K, 2\) of one length"):
            MatchPrediction(np.zeros(grd_shape), np.zeros(sat_shape))

    @pytest.mark.parametrize("side", ["grd", "sat"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_prediction_rejected(self, side, value):
        # rint(nan).astype(int) would otherwise pick a platform-defined pixel
        px = {"grd": np.array([[1.0, 1.0], [2.0, 2.0]]), "sat": np.array([[1.0, 1.0], [2.0, 2.0]])}
        px[side][1, 0] = value
        with pytest.raises(ValueError, match="prediction pixel coordinates must be finite"):
            MatchPrediction(px["grd"], px["sat"])


class TestLocalizationStats:
    def test_even_count_uses_lower_middle(self):
        stats = localization_stats([(1.0, 10.0), (3.0, 30.0)])
        assert stats["mean_translation_m"] == 2.0
        assert stats["mean_orientation_deg"] == 20.0
        assert stats["median_translation_m"] == 1.0
        assert stats["median_orientation_deg"] == 10.0

    def test_single_element(self):
        stats = localization_stats([(2.5, 7.0)])
        assert stats["median_translation_m"] == 2.5
        assert stats["median_orientation_deg"] == 7.0

    def test_all_equal(self):
        stats = localization_stats([(1.5, 4.0)] * 5)
        assert stats["mean_translation_m"] == 1.5
        assert stats["median_orientation_deg"] == 4.0

    def test_components_sorted_independently(self):
        stats = localization_stats([(1.0, 30.0), (3.0, 10.0)])
        assert stats["median_translation_m"] == 1.0
        assert stats["median_orientation_deg"] == 10.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            localization_stats([])


class TestPredictionCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        pred = MatchPrediction(rng.uniform(0, 100, (7, 2)), rng.uniform(0, 500, (7, 2)))
        path = tmp_path / "pred.csv"
        lines = ["xg,yg,xs,ys"] + [",".join(repr(float(v)) for v in row)
                                   for row in np.hstack([pred.grd_px, pred.sat_px])]
        path.write_text("\n".join(lines) + "\n")
        back = MatchPrediction.from_csv(path)
        assert np.array_equal(back.grd_px, pred.grd_px)
        assert np.array_equal(back.sat_px, pred.sat_px)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "pred.csv"
        for text, detail in (
                ("xg,yg,xs,ys\n1,2,3,4\nbad,2,3,4\n", "malformed row at line 3"),
                # the line of the file, not the count of rows: blank lines count too
                ("xg,yg,xs,ys\n1,2,3,4\n\n\nbad,2,3,4\n", "malformed row at line 5"),
                ("xg,yg,xs,ys\n\n1,2,3,4\n\nnan,2,3,4\n", "non-finite value at line 5"),
                # past the csv module's field size limit (131,072 characters)
                ("xg,yg,xs,ys\n1,2,3,4\n\n" + "1" * 131_073 + ",2,3,4\n",
                 "malformed row at line 4"),
                ("xg" * 70_000 + ",yg,xs,ys\n1,2,3,4\n", "malformed row at line 1")):
            path.write_text(text)
            with pytest.raises(ValueError, match=rf"pred\.csv: {detail}$"):
                MatchPrediction.from_csv(path)

    @pytest.mark.parametrize("row", ["1,2,3", "1,2,3,4,5", "1,2,3,4,"],
                             ids=["short", "long", "trailing-comma"])
    def test_row_of_other_than_four_fields_reports_line(self, tmp_path, row):
        path = tmp_path / "pred.csv"
        path.write_text(f"xg,yg,xs,ys\n1,2,3,4\n{row}\n")
        with pytest.raises(ValueError, match=r"pred\.csv: malformed row at line 3$"):
            MatchPrediction.from_csv(path)

    def test_non_utf8_byte_reports_file_and_line(self, tmp_path):
        path = tmp_path / "pred.csv"
        path.write_bytes(b"xg,yg,xs,ys\n1,2,3,4\n1,2,3,\xff\n")
        with pytest.raises(ValueError, match=r"pred\.csv: not UTF-8 at line 3: 'utf-8' codec "
                                             r"can't decode byte 0xff in position 26"):
            MatchPrediction.from_csv(path)

    def test_byte_order_mark_is_dropped(self, tmp_path):
        # as Excel's "CSV UTF-8" writes it
        path = tmp_path / "pred.csv"
        path.write_bytes(codecs.BOM_UTF8 + b"xg,yg,xs,ys\r\n1,2,3,4\r\n")
        back = MatchPrediction.from_csv(path)
        assert back.grd_px.tolist() == [[1.0, 2.0]] and back.sat_px.tolist() == [[3.0, 4.0]]
        # a bad byte's position stays its offset in the file, the mark counted
        path.write_bytes(codecs.BOM_UTF8 + b"xg\n\xff,yg,xs,ys\n")
        with pytest.raises(ValueError, match=r"pred\.csv: not UTF-8 at line 2: 'utf-8' codec "
                                             r"can't decode byte 0xff in position 6"):
            MatchPrediction.from_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "pred.csv"
        path.write_text("xg,yg,xs,ys\n")
        with pytest.raises(ValueError, match="no prediction rows"):
            MatchPrediction.from_csv(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_field_reports_file_and_line(self, tmp_path, value):
        path = tmp_path / "pred.csv"
        path.write_text(f"xg,yg,xs,ys\n1,2,3,4\n1,2,{value},4\n")
        with pytest.raises(ValueError, match=r"pred\.csv: non-finite value at line 3"):
            MatchPrediction.from_csv(path)
