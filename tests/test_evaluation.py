import math

import numpy as np
import pytest

from crossview.evaluation import (GroundTruthProjection, MatchPrediction,
                                  build_gt_projection, localization_stats,
                                  matching_success_ratio, read_pose_csv)
from crossview.geometry import (AerialMeta, CameraIntrinsics, Pose3DoF,
                                aerial_px_to_metric, metric_to_aerial_px,
                                panorama_pixel_ray)
from crossview.tensorio import MANIFEST, save_tensor_dir

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
        assert proj.valid[v, u]
        assert proj.sat_xy[v, u, 0] == pytest.approx(POSE.t_px[0] + 100.0, abs=1e-9)
        assert proj.sat_xy[v, u, 1] == pytest.approx(POSE.t_px[1], abs=1e-9)

    def test_range_threshold(self):
        depth = flat_depth(np.nan)
        u, v = 64, 32
        depth[v, u] = 31.0
        proj = build_gt_projection(depth, INTR, POSE, META)
        assert not proj.valid[v, u]
        depth[v, u] = 29.0
        assert build_gt_projection(depth, INTR, POSE, META).valid[v, u]

    def test_missing_depth_invalid(self):
        proj = build_gt_projection(flat_depth(np.nan), INTR, POSE, META)
        assert not proj.valid.any()

    def test_out_of_image_invalid(self):
        pose = Pose3DoF(np.array([2.0, 256.0]), math.pi)  # looking off the west edge
        depth = flat_depth(np.nan)
        u, v = INTR.panorama_width // 2, INTR.panorama_height // 2
        depth[v, u] = 10.0
        proj = build_gt_projection(depth, INTR, pose, META)
        assert not proj.valid[v, u]

    def test_round_trip_recovers_planar_point(self):
        rng = np.random.default_rng(0)
        depth = rng.uniform(1.0, 25.0, (INTR.panorama_height, INTR.panorama_width))
        proj = build_gt_projection(depth, INTR, POSE, META)
        vs, us = np.nonzero(proj.valid)
        for v, u in list(zip(vs, us))[::97]:
            dx, dy, _ = panorama_pixel_ray(INTR, u, v)
            expected = (depth[v, u] * dx, depth[v, u] * dy)
            back = aerial_px_to_metric(META, POSE, *proj.sat_xy[v, u])
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
                    assert not proj.valid[v, u]
                    continue
                az = (u / INTR.panorama_width - 0.5) * 2 * math.pi
                el = (0.5 - v / INTR.panorama_height) * math.pi
                x = d * math.cos(el) * math.cos(az)
                y = d * math.cos(el) * math.sin(az)
                xs, ys = metric_to_aerial_px(META, POSE, x, y)
                inside = 0 <= xs <= size - 1 and 0 <= ys <= size - 1
                assert proj.valid[v, u] == inside
                if inside:
                    assert proj.sat_xy[v, u, 0] == pytest.approx(xs, abs=1e-9)
                    assert proj.sat_xy[v, u, 1] == pytest.approx(ys, abs=1e-9)

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
        assert np.array_equal(proj.valid, valid)
        assert np.array_equal(proj.sat_xy, sat, equal_nan=True)

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        depth = rng.uniform(1.0, 40.0, (INTR.panorama_height, INTR.panorama_width))
        proj = build_gt_projection(depth, INTR, POSE, META)
        proj.save(tmp_path / "gt")
        back = GroundTruthProjection.load(tmp_path / "gt")
        assert np.array_equal(back.valid, proj.valid)
        assert np.allclose(back.sat_xy[proj.valid], proj.sat_xy[proj.valid], atol=1e-3)
        assert np.all(np.isnan(back.sat_xy[~proj.valid]))

    def test_load_rejects_wrong_format(self, tmp_path):
        save_tensor_dir(tmp_path / "gt", "scene-v1", {"gt_valid": np.ones((2, 4))})
        with pytest.raises(ValueError, match="unknown format"):
            GroundTruthProjection.load(tmp_path / "gt")

    def test_load_rejects_missing_manifest(self, tmp_path):
        proj = build_gt_projection(flat_depth(10.0), INTR, POSE, META)
        proj.save(tmp_path / "gt")
        (tmp_path / "gt" / MANIFEST).unlink()
        with pytest.raises(OSError):
            GroundTruthProjection.load(tmp_path / "gt")


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
    return GroundTruthProjection(sat, valid)


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
        path.write_text("xg,yg,xs,ys\n1,2,3,4\nbad,2,3,4\n")
        with pytest.raises(ValueError, match="line 3"):
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


class TestPoseCsv:
    def test_reads_degrees_as_radians(self, tmp_path):
        path = tmp_path / "poses.csv"
        path.write_text("tx_px,ty_px,yaw_deg\n100,101.5,90\n-2,3,-180\n")
        poses = read_pose_csv(path)
        assert len(poses) == 2
        assert np.array_equal(poses[0].t_px, [100.0, 101.5])
        assert poses[0].yaw_rad == math.pi / 2
        assert np.array_equal(poses[1].t_px, [-2.0, 3.0])
        assert poses[1].yaw_rad == math.pi   # wrapped into (-pi, pi]

    def test_non_finite_field_reports_file_and_line(self, tmp_path):
        path = tmp_path / "poses.csv"
        path.write_text("tx_px,ty_px,yaw_deg\n1,2,3\ninf,2,3\n")
        with pytest.raises(ValueError, match=r"poses\.csv: non-finite value at line 3"):
            read_pose_csv(path)
