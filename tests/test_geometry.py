import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossview.geometry import (AerialMeta, BevGridSpec, CameraIntrinsics,
                                HeightLayerSpec, Pose3DoF, SceneSpec, _nearest_cells,
                                aerial_px_to_metric, aerial_cell_in_ground_grid, aerial_cell_to_ground_cell,
                                grid_cells, ground_cell_to_aerial_cell, metric_to_aerial_px,
                                panorama_pixel_ray, wrap_angle)

from conftest import (cell_center_coords, identity_pose, layer_heights,
                      project_point_to_panorama)

INTR = CameraIntrinsics(panorama_width=1024, panorama_height=512, camera_height_m=2.5)


class TestBevGridSpec:
    def test_spacing(self):
        assert BevGridSpec(41, 71.0).spacing_m == pytest.approx(1.775)

    @pytest.mark.parametrize("n,extent", [(1, 71.0), (0, 71.0), (41, 0.0), (41, -3.0)])
    def test_invalid_specs_rejected(self, n, extent):
        with pytest.raises(ValueError):
            BevGridSpec(n, extent)

    @pytest.mark.parametrize("extent", [math.inf, math.nan])
    def test_non_finite_extent_rejected(self, extent):
        # an infinite extent gives an infinite cell spacing, and so a non-finite pose
        with pytest.raises(ValueError, match="grid extent must be finite and positive"):
            BevGridSpec(41, extent)


class TestBevCellToMetric:
    """Grid cell -> camera-relative meters through its owner, ``BevGridSpec.cell_m``."""

    def test_center_cell_is_origin(self):
        spec = BevGridSpec(41, 71.0)
        assert tuple(spec.cell_m([20, 20])) == (0.0, 0.0)

    def test_east_edge_cell(self):
        # 20 cells out at 71/40 m spacing
        spec = BevGridSpec(41, 71.0)
        x, y = spec.cell_m([40, 20])
        assert x == pytest.approx(20 * 71.0 / 40.0, abs=1e-12)
        assert y == 0.0

    def test_corner_of_unit_extent_grid(self):
        spec = BevGridSpec(3, 2.0)
        assert tuple(spec.cell_m([0, 0])) == (-1.0, -1.0)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 15), extent=st.floats(0.5, 200.0),
           ix=st.integers(0, 14), iy=st.integers(0, 14))
    def test_point_symmetry_about_center(self, n, extent, ix, iy):
        ix, iy = ix % n, iy % n
        spec = BevGridSpec(n, extent)
        a = spec.cell_m([ix, iy])
        b = spec.cell_m([n - 1 - ix, n - 1 - iy])
        assert a[0] == pytest.approx(-b[0], abs=1e-9)
        assert a[1] == pytest.approx(-b[1], abs=1e-9)

    def test_matches_dense_grid(self):
        spec = BevGridSpec(5, 8.0)
        assert np.array_equal(spec.cell_m(grid_cells(spec)), cell_center_coords(spec))


class TestFrameRuleOwners:
    """The cell <-> meter, pixel <-> cell, in-grid and in-image rules each have one owner."""

    @pytest.mark.parametrize("n", [9, 41])
    def test_cell_meter_round_trip(self, n):
        spec = BevGridSpec(n, 71.0)
        idx = np.linspace(-2.0, n + 1.0, 97)
        assert np.max(np.abs(spec.m_cell(spec.cell_m(idx)) - idx)) < 1e-12
        assert spec.cell_m(spec.center_index) == 0.0

    @pytest.mark.parametrize("n", [9, 41])
    def test_pixel_cell_round_trip(self, n):
        specs = SceneSpec(grid=BevGridSpec(n, 71.0))
        cells = np.random.default_rng(n).uniform(-2.0, n + 1.0, (50, 2))
        back = specs.aerial_px_cell(specs.aerial_cell_px(cells))
        assert np.max(np.abs(back - cells)) < 1e-12

    @pytest.mark.parametrize("n", [9, 41])
    def test_grid_contains_endpoints(self, n):
        spec = BevGridSpec(n, 71.0)
        assert spec.contains(np.array([0, n - 1, 0.0, n - 1.0])).all()
        assert not spec.contains(np.array([-1e-9, n - 1 + 1e-9])).any()
        idx = np.arange(-3, n + 3)
        assert np.array_equal(spec.contains(idx), (idx >= 0) & (idx < n))

    def test_image_contains_endpoints(self):
        meta = AerialMeta(gsd_m_per_px=0.12, image_size_px=640)
        assert meta.contains(np.array([0, 639, 0.0, 639.0])).all()
        assert not meta.contains(np.array([-1e-9, 639 + 1e-9])).any()

    def test_fractional_index_past_last_cell_rejected(self):
        spec = BevGridSpec(3, 2.0)
        assert spec.contains([2.0, 0.5]).all()
        assert tuple(spec.cell_m([2.0, 0.5])) == (1.0, -0.5)
        assert not spec.contains(2.5)

    def test_scalar_calls_return_floats(self):
        meta = AerialMeta()
        pose = Pose3DoF(np.array([100.0, 200.0]), 0.3)
        spec = BevGridSpec(41, 71.0)
        for pair in ((spec.cell_m(3), spec.cell_m(7)),
                     metric_to_aerial_px(meta, pose, 1.5, -2.0),
                     aerial_px_to_metric(meta, pose, 101.0, 190.0)):
            assert len(pair) == 2
            assert all(isinstance(v, float) for v in pair)


class TestHeightLayerSpec:
    def test_endpoints_and_midpoint(self):
        spec = HeightLayerSpec(11, -10.0, 10.0)
        heights = layer_heights(spec)
        assert heights[0] == -10.0
        assert heights[10] == 10.0
        assert heights[5] == 0.0  # midpoint of an odd layer count

    def test_heights_affine_in_index(self):
        spec = HeightLayerSpec(7, -3.0, 9.0)
        heights = layer_heights(spec)
        diffs = np.diff(heights)
        assert np.allclose(diffs, diffs[0])

    def test_nearest_index_ties_round_down(self):
        spec = HeightLayerSpec(11, -10.0, 10.0)
        assert spec.nearest_index(-3.0) == 3  # equidistant between -4 and -2
        assert spec.nearest_index(-2.9) == 4
        assert spec.nearest_index(-3.1) == 3

    def test_nearest_index_clamps(self):
        spec = HeightLayerSpec(11, -10.0, 10.0)
        assert spec.nearest_index(-99.0) == 0
        assert spec.nearest_index(99.0) == 10

    def test_nearest_index_clamps_heights_beyond_int64(self):
        # a height beyond int64 clips to the nearest end layer, with no cast warning
        spec = HeightLayerSpec(11, -10.0, 10.0)
        idx = spec.nearest_index([1e30, 1e18, -1e30])
        assert idx.tolist() == [10, 10, 0]
        assert idx.dtype == np.int64
        # spacing 0.1 m: the largest finite heights overflow to +-inf before the clip
        assert HeightLayerSpec(11, -0.5, 0.5).nearest_index([1.7e308, -1.7e308]).tolist() \
            == [10, 0]

    def test_nearest_index_in_range_matches_cast_then_clip(self):
        spec = HeightLayerSpec(11, -10.0, 10.0)
        heights = np.random.default_rng(0).uniform(-30.0, 30.0, (41, 41))
        heights[0, :3] = (-3.0, 11.0, -11.0)
        frac = (heights - spec.z_min_m) / spec.spacing_m
        expected = np.clip(np.ceil(frac - 0.5).astype(np.int64), 0, 10)
        assert np.array_equal(spec.nearest_index(heights), expected)

    @pytest.mark.parametrize("m,zmin,zmax", [(1, -10, 10), (5, 3.0, 3.0), (5, 4.0, 2.0)])
    def test_invalid_specs_rejected(self, m, zmin, zmax):
        with pytest.raises(ValueError):
            HeightLayerSpec(m, zmin, zmax)

    @pytest.mark.parametrize("zmin,zmax", [(-math.inf, 10.0), (math.nan, 10.0)],
                             ids=["-inf", "nan"])
    def test_non_finite_z_min_rejected(self, zmin, zmax):
        with pytest.raises(ValueError, match="z_min_m and z_max_m must be finite"):
            HeightLayerSpec(11, zmin, zmax)

    @pytest.mark.parametrize("zmin,zmax", [(-10.0, math.inf), (-10.0, math.nan)],
                             ids=["inf", "nan"])
    def test_non_finite_z_max_rejected(self, zmin, zmax):
        # an infinite top layer gives infinite layer spacing and heights
        with pytest.raises(ValueError, match="z_min_m and z_max_m must be finite"):
            HeightLayerSpec(11, zmin, zmax)


class TestCameraIntrinsics:
    def test_aspect_invariant(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(1000, 512)

    @pytest.mark.parametrize("w,h", [(0, 0), (-2, -1)])
    def test_empty_or_negative_panorama_rejected(self, w, h):
        # both keep width == 2 * height
        with pytest.raises(ValueError, match=f"panorama height must be positive, got {h}"):
            CameraIntrinsics(w, h)

    @pytest.mark.parametrize("h", [1.9, 3.2])
    def test_camera_height_prior(self, h):
        with pytest.raises(ValueError):
            CameraIntrinsics(1024, 512, camera_height_m=h)

    @pytest.mark.parametrize("offset", [math.nan, math.inf, -math.inf])
    def test_non_finite_azimuth_offset_rejected(self, offset):
        with pytest.raises(ValueError, match="azimuth offset must be finite"):
            CameraIntrinsics(256, 128, 2.5, offset)


class TestAerialMeta:
    @pytest.mark.parametrize("gsd", [math.inf, math.nan, 0.0, -0.12])
    def test_non_finite_or_non_positive_gsd_rejected(self, gsd):
        with pytest.raises(ValueError, match="gsd must be finite and positive"):
            AerialMeta(gsd_m_per_px=gsd)


@pytest.mark.parametrize("cls, kwargs, key", [
    (BevGridSpec, {"n_points_per_side": 9.0, "extent_m": 16.0}, "n_points_per_side"),
    (HeightLayerSpec, {"num_layers": 11.0}, "num_layers"),
    (CameraIntrinsics, {"panorama_width": 1024.0, "panorama_height": 512}, "panorama_width"),
    (CameraIntrinsics, {"panorama_width": 1024, "panorama_height": 512.0}, "panorama_height"),
    (AerialMeta, {"gsd_m_per_px": 0.12, "image_size_px": 640.0}, "image_size_px"),
], ids=["grid", "layers", "pano-width", "pano-height", "image-size"])
def test_spec_count_of_another_kind_rejected(cls, kwargs, key):
    # a float count would build and fail later in the generator or the scene reader
    with pytest.raises(ValueError, match=f"^{key}: expected an integer, got {kwargs[key]!r}$"):
        cls(**kwargs)


class TestPanoramaProjection:
    def test_point_straight_ahead_at_camera_height(self):
        u, v = project_point_to_panorama(INTR, 10.0, 0.0, INTR.camera_height_m)
        assert u == pytest.approx(INTR.panorama_width / 2)
        assert v == pytest.approx(INTR.panorama_height / 2)

    def test_point_directly_left(self):
        # azimuth -pi/2
        u, v = project_point_to_panorama(INTR, 0.0, -10.0, INTR.camera_height_m)
        assert u == pytest.approx(INTR.panorama_width / 4)
        assert v == pytest.approx(INTR.panorama_height / 2)

    def test_elevated_point(self):
        # elevation pi/4 -> v = H * (0.5 - 0.25)
        u, v = project_point_to_panorama(INTR, 10.0, 0.0, INTR.camera_height_m + 10.0)
        assert v == pytest.approx(0.25 * INTR.panorama_height)

    def test_degenerate_point_raises(self):
        with pytest.raises(ValueError):
            project_point_to_panorama(INTR, 0.0, 0.0, INTR.camera_height_m)

    def test_nadir_is_outside(self):
        assert project_point_to_panorama(INTR, 0.0, 0.0, INTR.camera_height_m - 5.0) is None

    def test_zenith_is_row_zero(self):
        u, v = project_point_to_panorama(INTR, 0.0, 0.0, INTR.camera_height_m + 5.0)
        assert v == 0.0

    @settings(max_examples=50, deadline=None)
    @given(x=st.floats(-50, 50), y=st.floats(-50, 50), z=st.floats(-20, 20))
    def test_azimuth_wraps_under_full_turn(self, x, y, z):
        if math.hypot(x, y) < 1e-6:
            return
        u1, v1 = project_point_to_panorama(INTR, x, y, z) or (None, None)
        c, s = math.cos(2 * math.pi), math.sin(2 * math.pi)
        res = project_point_to_panorama(INTR, c * x - s * y, s * x + c * y, z)
        assert res is not None
        assert res[0] == pytest.approx(u1, abs=1e-6) or \
            abs(res[0] - u1) == pytest.approx(INTR.panorama_width, abs=1e-6)
        assert res[1] == pytest.approx(v1, abs=1e-9)

    def test_rear_seam_wraps_to_zero(self):
        # azimuth exactly pi lands on u = 0 after the modulo
        u, _ = project_point_to_panorama(INTR, -10.0, 0.0, INTR.camera_height_m)
        assert u == 0.0

    def test_azimuth_offset_shifts_center(self):
        intr = CameraIntrinsics(1024, 512, 2.5, azimuth_offset_rad=-math.pi / 2)
        u, _ = project_point_to_panorama(intr, 0.0, -10.0, intr.camera_height_m)
        assert u == pytest.approx(intr.panorama_width / 2)

    def test_pixel_ray_inverts_projection(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = rng.uniform(-30, 30, 3)
            res = project_point_to_panorama(INTR, *p)
            if res is None:
                continue
            dx, dy, dz = panorama_pixel_ray(INTR, res[0], res[1])
            vec = np.array([p[0], p[1], p[2] - INTR.camera_height_m])
            vec /= np.linalg.norm(vec)
            assert np.allclose([dx, dy, dz], vec, atol=1e-9)


class TestPose3DoF:
    @pytest.mark.parametrize("yaw,expected", [
        (0.0, 0.0), (math.pi, math.pi), (-math.pi, math.pi),
        (3 * math.pi, math.pi), (math.pi / 2, math.pi / 2),
    ])
    def test_yaw_normalized_to_half_open_interval(self, yaw, expected):
        assert Pose3DoF(np.zeros(2), yaw).yaw_rad == pytest.approx(expected)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Pose3DoF(np.array([np.nan, 0.0]), 0.0)
        with pytest.raises(ValueError):
            Pose3DoF(np.zeros(2), math.inf)

    def test_wrap_angle_interval(self):
        angles = np.linspace(-10, 10, 400)
        wrapped = wrap_angle(angles)
        assert np.all(wrapped > -math.pi) and np.all(wrapped <= math.pi)

    @pytest.mark.parametrize("angle", [0.0, -0.0, 2 * math.pi, -2 * math.pi])
    def test_wrap_angle_to_zero_has_no_sign_bit(self, angle):
        assert not np.signbit(wrap_angle(angle))

    def test_wrap_angle_matches_the_negated_wrap_elsewhere(self):
        # the earlier expression, which gave -0.0 wherever the result is zero; bit for bit
        angles = np.random.default_rng(3).uniform(-50.0, 50.0, 10**5)
        old = -((-angles + math.pi) % (2 * math.pi) - math.pi)
        assert np.array_equal(wrap_angle(angles).view(np.uint64), old.view(np.uint64))


class TestAerialMapping:
    META = AerialMeta(gsd_m_per_px=0.12, image_size_px=640)

    def test_identity_pose_scaling(self):
        pose = Pose3DoF(np.array([100.0, 200.0]), 0.0)
        xs, ys = metric_to_aerial_px(self.META, pose, 1.2, 0.0)
        assert xs == pytest.approx(110.0)
        assert ys == pytest.approx(200.0)

    def test_origin_maps_to_translation_for_any_yaw(self):
        for yaw in (0.0, 0.7, -2.1, math.pi):
            pose = Pose3DoF(np.array([31.0, 7.0]), yaw)
            assert metric_to_aerial_px(self.META, pose, 0.0, 0.0) == (31.0, 7.0)

    def test_rotation_equivariance(self):
        t = np.array([50.0, 50.0])
        a = metric_to_aerial_px(self.META, Pose3DoF(t, math.pi / 2), 1.0, 0.0)
        b = metric_to_aerial_px(self.META, Pose3DoF(t, 0.0), 0.0, 1.0)
        assert a[0] == pytest.approx(b[0], abs=1e-12)
        assert a[1] == pytest.approx(b[1], abs=1e-12)

    def test_round_trip_thousand_random_poses(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            pose = Pose3DoF(rng.uniform(-500, 500, 2), rng.uniform(-math.pi, math.pi))
            x, y = rng.uniform(-200, 200, 2)
            px = metric_to_aerial_px(self.META, pose, x, y)
            back = aerial_px_to_metric(self.META, pose, *px)
            assert math.hypot(back[0] - x, back[1] - y) < 1e-9


    POSE = Pose3DoF(np.array([231.5, 270.25]), -2.1)
    INPUTS = {
        "python-float": (3.5, -2.25),
        "python-int": (3, -2),
        "zero-d": (np.float64(3.5), np.array(-2.25)),
        "array": (np.linspace(-40.0, 40.0, 35).reshape(7, 5),
                  np.linspace(30.0, -50.0, 35).reshape(7, 5)),
        "int-array": (np.arange(6), np.arange(6)[::-1]),
        "broadcast": (np.arange(5.0), np.arange(3.0)[:, None]),
    }

    @staticmethod
    def assert_same_floats(got, want):
        for g, w in zip(got, want):
            assert type(g) is type(w)
            assert np.shape(g) == np.shape(w) and np.array_equal(g, w)

    @pytest.mark.parametrize("kind", list(INPUTS))
    def test_forward_map_matches_out_of_place_formula(self, kind):
        x, y = self.INPUTS[kind]
        c, s = math.cos(self.POSE.yaw_rad), math.sin(self.POSE.yaw_rad)
        x, y = np.asarray(x), np.asarray(y)
        want = (self.POSE.t_px[0] + (c * x - s * y) / self.META.gsd_m_per_px,
                self.POSE.t_px[1] + (s * x + c * y) / self.META.gsd_m_per_px)
        self.assert_same_floats(metric_to_aerial_px(self.META, self.POSE, *self.INPUTS[kind]),
                                want)

    @pytest.mark.parametrize("kind", list(INPUTS))
    def test_inverse_map_matches_out_of_place_formula(self, kind):
        x, y = self.INPUTS[kind]
        c, s = math.cos(-self.POSE.yaw_rad), math.sin(-self.POSE.yaw_rad)
        xm = (np.asarray(x) - self.POSE.t_px[0]) * self.META.gsd_m_per_px
        ym = (np.asarray(y) - self.POSE.t_px[1]) * self.META.gsd_m_per_px
        want = (c * xm - s * ym, s * xm + c * ym)
        self.assert_same_floats(aerial_px_to_metric(self.META, self.POSE, *self.INPUTS[kind]),
                                want)

    @pytest.mark.parametrize("fn", [metric_to_aerial_px, aerial_px_to_metric])
    def test_leaves_array_inputs_unchanged(self, fn):
        rng = np.random.default_rng(6)
        x, y = rng.uniform(-40.0, 40.0, (2, 9, 4))
        before = x.copy(), y.copy()
        fn(self.META, self.POSE, x, y)
        assert x.tobytes() == before[0].tobytes() and y.tobytes() == before[1].tobytes()


class TestAerialSampleCoords:
    """The N x N aerial sampling grid: ``aerial_cell_px`` of ``grid_cells``, in-image per cell."""

    @staticmethod
    def sample(spec, meta):
        coords = SceneSpec(grid=spec, aerial=meta).aerial_cell_px(grid_cells(spec))
        return coords, np.all(meta.contains(coords), axis=-1)

    def test_pixel_spacing(self):
        spec = BevGridSpec(41, 71.0)
        coords, _ = self.sample(spec, AerialMeta(0.12, 1024))
        spacing = coords[1, 0, 0] - coords[0, 0, 0]
        assert spacing == pytest.approx(71.0 / 40.0 / 0.12)

    def test_center_cell_hits_center(self):
        spec = BevGridSpec(41, 71.0)
        coords, _ = self.sample(spec, AerialMeta(0.12, 1024))
        assert tuple(coords[20, 20]) == (511.5, 511.5)

    def test_two_point_grid_one_pixel_apart(self):
        meta = AerialMeta(0.12, 64)
        spec = BevGridSpec(2, meta.gsd_m_per_px)
        coords, inb = self.sample(spec, meta)
        assert coords[1, 0, 0] - coords[0, 0, 0] == pytest.approx(1.0)
        assert coords[0, 1, 1] - coords[0, 0, 1] == pytest.approx(1.0)
        assert inb.all()

    def test_out_of_bounds_flagged_per_cell(self):
        spec = BevGridSpec(41, 71.0)
        meta = AerialMeta(0.12, 400)
        coords, inb = self.sample(spec, meta)
        assert not inb[0, 20]      # far west cell falls off the image
        assert inb[20, 20]
        outside = ~((coords[..., 0] >= 0) & (coords[..., 0] <= 399)
                    & (coords[..., 1] >= 0) & (coords[..., 1] <= 399))
        assert np.array_equal(inb, ~outside)


class TestSceneSpecJson:
    def test_round_trip(self, default_specs):
        blob = json.dumps(default_specs.to_json_dict())
        restored = SceneSpec.from_json_dict(json.loads(blob))
        assert restored == default_specs

    def test_optional_keys_defaulted(self):
        d = {"n": 41, "extent_m": 71.0, "m_layers": 11, "z_min": -10.0, "z_max": 10.0,
             "gsd": 0.12, "pano_w": 1024, "pano_h": 512}
        specs = SceneSpec.from_json_dict(d)
        assert specs.aerial.image_size_px == 640
        assert specs.intrinsics.camera_height_m == 2.5

    @pytest.mark.parametrize("key, value", [
        ("n", 9.7), ("n", 9.0), ("n", True), ("n", "9"), ("m_layers", None),
        ("pano_w", False), ("pano_h", 128.0), ("image_size", "640"),
        ("extent_m", True), ("gsd", "0.12"), ("z_min", None), ("z_max", [10.0]),
        ("camera_height", False), ("azimuth_offset", "0"),
    ])
    def test_field_of_wrong_kind_rejected(self, key, value):
        d = {**SceneSpec(grid=BevGridSpec(9)).to_json_dict(), key: value}
        with pytest.raises(ValueError, match=f"^{key}: expected an? "):
            SceneSpec.from_json_dict(d)

    def test_unknown_key_rejected(self):
        d = {**SceneSpec(grid=BevGridSpec(9)).to_json_dict(), "camera_heigth": 3.0}
        with pytest.raises(ValueError, match="unknown scene spec key.*'camera_heigth'"):
            SceneSpec.from_json_dict(d)

    def test_integer_taken_for_a_float_field(self):
        d = {**SceneSpec(grid=BevGridSpec(9)).to_json_dict(), "extent_m": 16, "gsd": 1}
        specs = SceneSpec.from_json_dict(d)
        assert specs.grid.extent_m == 16.0 and isinstance(specs.grid.extent_m, float)
        assert specs.aerial.gsd_m_per_px == 1.0 and isinstance(specs.aerial.gsd_m_per_px, float)


class TestPoseJson:
    def test_round_trip(self):
        pose = Pose3DoF(np.array([12.5, -3.25]), 0.75)
        back = Pose3DoF.from_json_dict(json.loads(json.dumps(pose.to_json_dict())))
        assert np.array_equal(back.t_px, pose.t_px) and back.yaw_rad == pose.yaw_rad

    def test_integers_and_degrees_accepted(self):
        pose = Pose3DoF.from_json_dict({"tx_px": 200, "ty_px": 100, "yaw_deg": 90})
        assert np.array_equal(pose.t_px, [200.0, 100.0])
        assert pose.yaw_rad == pytest.approx(math.pi / 2)

    @pytest.mark.parametrize("key, value", [
        ("tx_px", True), ("tx_px", "1.5"), ("ty_px", None), ("ty_px", [2.0]),
        ("yaw_deg", "90"), ("yaw_rad", False),
    ])
    def test_field_of_wrong_kind_rejected(self, key, value):
        d = {"tx_px": 1.0, "ty_px": 2.0, "yaw_deg": 0.0, key: value}
        with pytest.raises(ValueError, match=f"^{key}: expected a number"):
            Pose3DoF.from_json_dict(d)


class TestCellMappings:
    def test_identity_pose_maps_cells_onto_themselves(self, small_specs):
        n = small_specs.grid.n_points_per_side
        cells = np.stack(np.meshgrid(np.arange(n), np.arange(n), indexing="ij"),
                         axis=-1).reshape(-1, 2)
        tgt, valid = ground_cell_to_aerial_cell(small_specs, identity_pose(small_specs), cells)
        assert valid.all()
        assert np.array_equal(tgt, cells)

    def test_quarter_turn_is_a_cell_permutation(self, small_specs):
        n = small_specs.grid.n_points_per_side
        pose = Pose3DoF(small_specs.grid_center_px, math.pi / 2)
        cells = np.stack(np.meshgrid(np.arange(n), np.arange(n), indexing="ij"),
                         axis=-1).reshape(-1, 2)
        tgt, valid = ground_cell_to_aerial_cell(small_specs, pose, cells)
        assert valid.all()
        flat = tgt[:, 0] * n + tgt[:, 1]
        assert len(set(flat.tolist())) == n * n

    def test_aerial_cell_px_rule(self, small_specs):
        spacing_px = small_specs.grid.spacing_m / small_specs.aerial.gsd_m_per_px
        assert small_specs.cell_spacing_px == spacing_px
        c = small_specs.grid.center_index
        assert np.array_equal(small_specs.aerial_cell_px([c, c]), small_specs.grid_center_px)
        px = small_specs.aerial_cell_px(grid_cells(small_specs.grid))
        assert np.allclose(px[2, 5], small_specs.grid_center_px + (np.array([2, 5]) - c)
                           * spacing_px, rtol=0, atol=1e-12)
        assert np.allclose(px[1:, :, 0] - px[:-1, :, 0], spacing_px, rtol=0, atol=1e-12)

    def test_identity_pose_puts_aerial_cells_on_ground_cells(self, small_specs):
        cells = grid_cells(small_specs.grid)
        fx, fy = aerial_cell_in_ground_grid(small_specs, identity_pose(small_specs), cells)
        assert np.allclose(np.stack([fx, fy], axis=-1), cells, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("n", [9, 11])
    @pytest.mark.parametrize("turns", [0, 1, 2, 3])
    def test_snapped_round_trip_returns_every_in_grid_cell(self, n, turns):
        specs = SceneSpec(grid=BevGridSpec(n, 2.0 * (n - 1)),
                          intrinsics=CameraIntrinsics(256, 128), aerial=AerialMeta(0.12, 400))
        cells = grid_cells(specs.grid).reshape(-1, 2)
        for offset in [(0, 0), (1, -2), (-3, 2), (n // 4, n // 4)]:
            t_px = specs.grid_center_px + np.array(offset) * specs.cell_spacing_px
            pose = Pose3DoF(t_px, turns * math.pi / 2)
            ground, valid = aerial_cell_to_ground_cell(specs, pose, cells)
            assert valid.sum() == (n - abs(offset[0])) * (n - abs(offset[1]))
            back, back_valid = ground_cell_to_aerial_cell(specs, pose, ground[valid])
            assert back_valid.all()
            assert np.array_equal(back, cells[valid])

    def test_half_cell_ties_round_up(self, small_specs):
        n = small_specs.grid.n_points_per_side
        frac = np.array([-0.5, 0.5, 2.5, n - 1.5, n - 0.5])
        cells, valid = _nearest_cells(small_specs, frac, frac)
        expected = np.array([0, 1, 3, n - 1, n])
        assert np.array_equal(cells, np.stack([expected, expected], axis=-1))
        assert valid.tolist() == [True, True, True, True, False]
