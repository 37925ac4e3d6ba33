import dataclasses
import json
import math
import re
import shutil

import numpy as np
import pytest

from crossview.geometry import (AerialMeta, BevGridSpec, CameraIntrinsics, Pose3DoF,
                                SceneSpec, ground_cell_to_aerial_cell)
from crossview.pipeline import PipelineConfig, run_localization
from crossview.refiner import initial_similarity
from crossview.solver import pose_error
from crossview.surface import (aerial_depth_to_height_index,
                               normalize_confidence,
                               surface_from_accumulation)
from crossview.synthetic import (DEPTH_SCALE, GROUND_LEVEL_M, SceneTruth,
                                 _resample_to_aerial, generate_scene, load_scene_dir,
                                 make_scene_bundle, render_inputs, save_scene_dir)
from crossview.tensorio import save_tensor

from conftest import (aerial_gt_surface, ground_gt_surface, regenerate_scene,
                      to_legacy_scene_layout)

# Ground offset (in cells) seen by an aerial cell offset under k quarter turns:
# the inverse rotation, written out by hand as an independent oracle.
_QUARTER_INVERSE = {
    0: lambda x, y: (x, y),
    1: lambda x, y: (y, -x),    # inverse of a +90 deg turn
    2: lambda x, y: (-x, -y),
    3: lambda x, y: (-y, x),
}


def quarter_turn_oracle(scene, n, offset, turns):
    """(texture, masked height, inside) on the aerial grid for a snapped pose, by integer cells."""
    c = (n - 1) // 2
    ai, aj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    gx, gy = _QUARTER_INVERSE[turns](ai - c - offset[0], aj - c - offset[1])
    gx, gy = gx + c, gy + c
    inside = (gx >= 0) & (gx < n) & (gy >= 0) & (gy < n)
    sx, sy = np.clip(gx, 0, n - 1), np.clip(gy, 0, n - 1)
    height = np.where(inside, scene.height_field_m[sx, sy], GROUND_LEVEL_M)
    return scene.feature_texture[sx, sy], height, inside


class TestGenerateScene:
    def test_deterministic_under_fixed_seed(self, small_specs):
        a = generate_scene(small_specs, seed=5, noise_sigma=0.2)
        b = generate_scene(small_specs, seed=5, noise_sigma=0.2)
        assert np.array_equal(a.height_field_m, b.height_field_m)
        assert np.array_equal(a.feature_texture, b.feature_texture)
        assert np.array_equal(a.gt_pose.t_px, b.gt_pose.t_px)
        assert a.gt_pose.yaw_rad == b.gt_pose.yaw_rad

    def test_different_seeds_differ(self, small_specs):
        a = generate_scene(small_specs, seed=5)
        b = generate_scene(small_specs, seed=6)
        assert not np.array_equal(a.height_field_m, b.height_field_m)

    def test_heights_span_layer_range(self, small_specs):
        for seed in range(5):
            scene = generate_scene(small_specs, seed=seed)
            assert scene.height_field_m.min() == GROUND_LEVEL_M
            assert scene.height_field_m.max() == small_specs.layers.z_max_m
            assert np.all(scene.height_field_m >= small_specs.layers.z_min_m)
            assert np.all(scene.height_field_m <= small_specs.layers.z_max_m)

    def test_texture_rows_unit_norm(self, small_specs):
        scene = generate_scene(small_specs, seed=1)
        norms = np.linalg.norm(scene.feature_texture, axis=2)
        assert np.allclose(norms, 1.0, atol=1e-12)

    def test_snapped_pose_is_grid_aligned(self, small_specs):
        scene = generate_scene(small_specs, seed=2)
        spacing_px = small_specs.grid.spacing_m / small_specs.aerial.gsd_m_per_px
        k = (scene.gt_pose.t_px - small_specs.grid_center_px) / spacing_px
        assert np.allclose(k, np.rint(k), atol=1e-9)
        turns = scene.gt_pose.yaw_rad / (math.pi / 2)
        assert abs(turns - round(turns)) < 1e-9

    def test_even_grid_rejected(self):
        specs = SceneSpec(grid=BevGridSpec(8, 16.0))
        with pytest.raises(ValueError):
            generate_scene(specs, seed=0)

    def test_negative_noise_rejected(self, small_specs):
        with pytest.raises(ValueError):
            generate_scene(small_specs, seed=0, noise_sigma=-0.1)

    @pytest.mark.parametrize("noise", [math.nan, math.inf])
    def test_non_finite_noise_rejected(self, small_specs, noise):
        with pytest.raises(ValueError, match="noise_sigma must be finite and non-negative"):
            generate_scene(small_specs, seed=0, noise_sigma=noise)

    def test_negative_seed_rejected(self, small_specs):
        with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
            generate_scene(small_specs, seed=-1)

    @pytest.mark.parametrize("channels", [0, -1])
    def test_channels_below_one_rejected(self, small_specs, channels):
        # zero channels would give zero-norm features that no solve can normalize
        with pytest.raises(ValueError, match="channels must be at least 1"):
            generate_scene(small_specs, seed=0, channels=channels)


class TestRenderInputs:
    def test_deterministic(self, small_specs):
        scene = generate_scene(small_specs, seed=3, noise_sigma=0.3)
        a = render_inputs(scene, small_specs)
        b = render_inputs(scene, small_specs)
        assert np.array_equal(a.volume.data, b.volume.data)
        assert np.array_equal(a.conf_logits, b.conf_logits)
        assert np.array_equal(a.f_sat.data, b.f_sat.data)
        assert np.array_equal(a.depth_sat, b.depth_sat)

    def test_noise_free_confidences_recover_gt_surface(self, small_specs):
        scene = generate_scene(small_specs, seed=4)
        inputs = render_inputs(scene, small_specs)
        conf = normalize_confidence(inputs.conf_logits)
        surf = surface_from_accumulation(conf, 0.5, small_specs.layers)
        assert np.array_equal(surf, ground_gt_surface(scene, small_specs))

    def test_noise_free_aerial_features_equal_transformed_texture(self, small_specs):
        scene = generate_scene(small_specs, seed=5)
        inputs = render_inputs(scene, small_specs)
        n = small_specs.grid.n_points_per_side
        cells = np.stack(np.meshgrid(np.arange(n), np.arange(n), indexing="ij"),
                         axis=-1).reshape(-1, 2)
        tgt, valid = ground_cell_to_aerial_cell(small_specs, scene.gt_pose, cells)
        assert valid.any()
        for (gx, gy), (ax, ay) in zip(cells[valid], tgt[valid]):
            assert np.array_equal(inputs.f_sat.data[ax, ay],
                                  scene.feature_texture[gx, gy])

    def test_similarity_diagonal_dominates_after_alignment(self, small_specs):
        scene = generate_scene(small_specs, seed=6)
        inputs = render_inputs(scene, small_specs)
        conf = normalize_confidence(inputs.conf_logits)
        surf = surface_from_accumulation(conf, 0.5, small_specs.layers)
        from crossview.surface import fuse_height_features
        f_grd = fuse_height_features(inputs.volume, conf, surf)
        s = initial_similarity(f_grd, inputs.f_sat, tau=0.1).s

        n = small_specs.grid.n_points_per_side
        cells = np.stack(np.meshgrid(np.arange(n), np.arange(n), indexing="ij"),
                         axis=-1).reshape(-1, 2)
        tgt, valid = ground_cell_to_aerial_cell(small_specs, scene.gt_pose, cells)
        for (gx, gy), (ax, ay) in zip(cells[valid], tgt[valid]):
            row = s[gx * n + gy]
            aligned = row[ax * n + ay]
            others = np.delete(row, ax * n + ay)
            assert aligned > others.max()

    def test_depth_inverts_to_aerial_surface_indices(self, small_specs):
        for seed in range(5):
            bundle = make_scene_bundle(small_specs, seed=seed)
            gt_sat = aerial_gt_surface(regenerate_scene(bundle), small_specs)
            rec = aerial_depth_to_height_index(
                bundle.inputs.depth_sat, small_specs.layers,
                ground_anchor_m=bundle.depth_anchor_m, scale=bundle.depth_scale)
            assert np.array_equal(rec, gt_sat)


class TestSnappedRenderOracle:
    @pytest.mark.parametrize("n", [9, 11])
    @pytest.mark.parametrize("turns", [0, 1, 2, 3])
    def test_snapped_renders_equal_quarter_turn_oracle(self, n, turns):
        specs = SceneSpec(grid=BevGridSpec(n, 2.0 * (n - 1)),
                          intrinsics=CameraIntrinsics(256, 128), aerial=AerialMeta(0.12, 400))
        for seed, offset in enumerate([(0, 0), (1, -2), (-2, 1), (n // 4, -(n // 4))]):
            scene = generate_scene(specs, seed=seed)
            t_px = specs.grid_center_px + np.array(offset) * specs.cell_spacing_px
            scene = dataclasses.replace(scene, gt_pose=Pose3DoF(t_px, turns * math.pi / 2))
            tex, height, inside = quarter_turn_oracle(scene, n, offset, turns)

            got_tex, got_height, got_inside = _resample_to_aerial(scene, specs)
            assert np.array_equal(got_inside, inside)
            assert np.array_equal(got_tex, tex)
            assert np.array_equal(got_height, height)

            inputs = render_inputs(scene, specs)
            assert np.array_equal(inputs.f_sat.data[inside], tex[inside])
            assert np.array_equal(inputs.depth_sat, (height - GROUND_LEVEL_M) / DEPTH_SCALE)
            assert np.array_equal(aerial_gt_surface(scene, specs),
                                  specs.layers.nearest_index(height))


class TestEndToEnd:
    def test_noise_free_scene_recovers_pose_exactly(self, small_specs):
        bundle = make_scene_bundle(small_specs, seed=7)
        res = run_localization(bundle.inputs.volume, bundle.inputs.conf_logits,
                               bundle.inputs.f_sat, small_specs,
                               config=PipelineConfig(top_k=20))
        trans_m, orient_deg = pose_error(res.pose_px, bundle.scene.gt_pose,
                                         small_specs.aerial)
        assert not res.degenerate
        assert trans_m < 1e-6
        assert math.radians(orient_deg) < 1e-8

    def test_known_yaw_path(self, small_specs):
        for seed in range(8):
            bundle = make_scene_bundle(small_specs, seed=seed)
            if bundle.scene.gt_pose.yaw_rad != 0.0:
                continue
            res = run_localization(bundle.inputs.volume, bundle.inputs.conf_logits,
                                   bundle.inputs.f_sat, small_specs,
                                   config=PipelineConfig(top_k=20, known_yaw_rad=0.0))
            assert res.pose_px.yaw_rad == 0.0
            assert pose_error(res.pose_px, bundle.scene.gt_pose,
                              small_specs.aerial)[0] < 1e-6
            return
        pytest.fail("no north-aligned scene among the test seeds")

    def test_continuous_pose_within_one_cell(self, mid_specs):
        errs = []
        for seed in range(5):
            bundle = make_scene_bundle(mid_specs, seed=seed, snapped=False)
            res = run_localization(bundle.inputs.volume, bundle.inputs.conf_logits,
                                   bundle.inputs.f_sat, mid_specs)
            errs.append(pose_error(res.pose_px, bundle.scene.gt_pose,
                                   mid_specs.aerial)[0])
        assert np.median(errs) < mid_specs.grid.spacing_m

    def test_noise_raises_median_error_monotonically(self, mid_specs):
        sigmas = (0.0, 0.25, 0.35, 0.5)
        medians = []
        for sigma in sigmas:
            errs = []
            for seed in range(50):
                bundle = make_scene_bundle(mid_specs, seed=seed, noise_sigma=sigma)
                res = run_localization(bundle.inputs.volume, bundle.inputs.conf_logits,
                                       bundle.inputs.f_sat, mid_specs)
                errs.append(pose_error(res.pose_px, bundle.scene.gt_pose,
                                       mid_specs.aerial)[0])
            medians.append(float(np.median(errs)))
        assert medians == sorted(medians)
        assert medians[-1] > medians[0]


class TestSceneIo:
    def test_save_load_round_trip(self, tmp_path, small_specs):
        bundle = make_scene_bundle(small_specs, seed=8, noise_sigma=0.1)
        save_scene_dir(tmp_path / "scene", bundle)
        back = load_scene_dir(tmp_path / "scene")
        assert back.specs == small_specs
        assert back.scene.seed == 8
        assert back.scene.noise_sigma == pytest.approx(0.1)
        assert np.array_equal(back.scene.gt_pose.t_px, bundle.scene.gt_pose.t_px)
        # tensors persist in float32
        assert np.array_equal(back.inputs.volume.data,
                              bundle.inputs.volume.data.astype(np.float32))
        assert np.array_equal(back.inputs.f_sat.data,
                              bundle.inputs.f_sat.data.astype(np.float32))

    def test_legacy_layout_loads_the_same_scene(self, tmp_path, small_specs):
        # scene-v1 directories written before the world left the format also hold
        # height_field and texture; older ones also surf_gt_index and a channels key.
        # All of them are read past.
        new = tmp_path / "new"
        save_scene_dir(new, make_scene_bundle(small_specs, seed=8, noise_sigma=0.1))
        a = load_scene_dir(new)
        for with_surface in (False, True):
            old = tmp_path / f"old-{with_surface}"
            shutil.copytree(new, old)
            to_legacy_scene_layout(old, with_surface)
            assert (old / "surf_gt_index.cvt").exists() == with_surface
            b = load_scene_dir(old)
            assert type(b.scene) is SceneTruth
            assert a.specs == b.specs
            assert (a.scene.seed, a.scene.noise_sigma) == (b.scene.seed, b.scene.noise_sigma)
            assert np.array_equal(a.scene.gt_pose.t_px, b.scene.gt_pose.t_px)
            assert a.scene.gt_pose.yaw_rad == b.scene.gt_pose.yaw_rad
            for name in ("volume", "f_sat"):
                assert np.array_equal(getattr(a.inputs, name).data,
                                      getattr(b.inputs, name).data)
            assert np.array_equal(a.inputs.conf_logits, b.inputs.conf_logits)
            assert np.array_equal(a.inputs.depth_sat, b.inputs.depth_sat)

    def test_saves_no_ground_truth_surface(self, tmp_path, small_specs):
        save_scene_dir(tmp_path / "scene", make_scene_bundle(small_specs, seed=8))
        assert not (tmp_path / "scene" / "surf_gt_index.cvt").exists()

    def test_bundles_hold_the_truth_and_the_solve_inputs_only(self, tmp_path, small_specs):
        bundle = make_scene_bundle(small_specs, seed=8)
        save_scene_dir(tmp_path / "scene", bundle)
        assert sorted(p.name for p in (tmp_path / "scene").iterdir()) == [
            "conf_logits.cvt", "depth_sat.cvt", "f_sat.cvt", "manifest.json", "volume.cvt"]
        for b in (bundle, load_scene_dir(tmp_path / "scene")):
            assert type(b.scene) is SceneTruth   # not a SyntheticScene: no world arrays

    @pytest.mark.parametrize("sigma", [0.0, 0.3])
    @pytest.mark.parametrize("snapped", [True, False], ids=["snapped", "continuous"])
    def test_loaded_scene_regenerates_the_generated_world(self, tmp_path, small_specs,
                                                          snapped, sigma):
        # a channel count other than the default: the regenerated world reads it off f_sat
        drawn = generate_scene(small_specs, seed=11, noise_sigma=sigma, snapped=snapped,
                               channels=5)
        save_scene_dir(tmp_path / "scene", make_scene_bundle(
            small_specs, seed=11, noise_sigma=sigma, snapped=snapped, channels=5))
        back = regenerate_scene(load_scene_dir(tmp_path / "scene"))
        assert np.array_equal(back.height_field_m, drawn.height_field_m)
        assert np.array_equal(back.feature_texture, drawn.feature_texture)
        assert np.array_equal(back.gt_pose.t_px, drawn.gt_pose.t_px)
        assert (back.seed, back.noise_sigma) == (drawn.seed, drawn.noise_sigma)

    @pytest.mark.parametrize("name, shape, wanted", [
        ("depth_sat", (9, 8), "(9, 9)"),
        ("conf_logits", (10, 9, 9), "(11, 9, 9)"),
        ("volume", (11, 9, 8, 16), "(11, 9, 9, 16)"),
        ("f_sat", (8, 9, 16), "(9, 9, 16)"),
        ("f_sat", (9, 9, 15), "(9, 9, 16)"),
    ], ids=["depth_sat", "conf_logits", "volume", "f_sat", "f_sat-channels"])
    def test_tensor_shape_off_the_grid_rejected(self, tmp_path, small_specs, name, shape,
                                                wanted):
        # the manifest is rewritten to match, so only the scene's specs can catch the shape
        scene = tmp_path / "scene"
        save_scene_dir(scene, make_scene_bundle(small_specs, seed=8))
        save_tensor(scene / f"{name}.cvt", np.zeros(shape, dtype=np.float32))
        manifest = json.loads((scene / "manifest.json").read_text())
        manifest["tensors"][name] = list(shape)
        (scene / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=re.escape(
                f"{scene}: {name} must be {wanted} for the scene's specs, got {shape}")):
            load_scene_dir(scene)

    @pytest.mark.parametrize("key, value, rule", [
        ("seed", -1, "seed must be non-negative, got -1"),
        ("noise_sigma", math.nan, "noise_sigma must be finite and non-negative, got nan"),
        ("noise_sigma", -0.5, "noise_sigma must be finite and non-negative, got -0.5"),
        ("depth_anchor_m", math.inf, "depth_anchor_m must be finite, got inf"),
        ("depth_anchor_m", math.nan, "depth_anchor_m must be finite, got nan"),
        ("depth_scale", math.nan, "depth_scale must be finite and positive, got nan"),
        ("depth_scale", math.inf, "depth_scale must be finite and positive, got inf"),
        ("depth_scale", 0.0, "depth_scale must be finite and positive, got 0.0"),
        ("depth_scale", -1.0, "depth_scale must be finite and positive, got -1.0"),
    ], ids=["seed-negative", "noise-nan", "noise-negative", "anchor-infinite", "anchor-nan",
            "scale-nan", "scale-infinite", "scale-zero", "scale-negative"])
    def test_manifest_number_outside_the_generator_rules_rejected(self, tmp_path, small_specs,
                                                                   key, value, rule):
        # a non-finite depth rule casts NaN to layer indices, a negative scale flips the
        # aerial surface upside down: the height loss would read a number for either
        scene = tmp_path / "scene"
        save_scene_dir(scene, make_scene_bundle(small_specs, seed=8))
        manifest = json.loads((scene / "manifest.json").read_text())
        manifest[key] = value
        (scene / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=re.escape(f"{scene}: ") + ".*" + re.escape(rule)):
            load_scene_dir(scene)

    def test_loaded_scene_still_recovers_pose(self, tmp_path, small_specs):
        bundle = make_scene_bundle(small_specs, seed=9)
        save_scene_dir(tmp_path / "scene", bundle)
        back = load_scene_dir(tmp_path / "scene")
        res = run_localization(back.inputs.volume, back.inputs.conf_logits,
                               back.inputs.f_sat, back.specs,
                               config=PipelineConfig(top_k=20))
        assert pose_error(res.pose_px, back.scene.gt_pose,
                          back.specs.aerial)[0] < 1e-6

    def test_manifest_lists_tensor_shapes(self, tmp_path, small_specs):
        import json
        from crossview.tensorio import load_tensor
        bundle = make_scene_bundle(small_specs, seed=10)
        save_scene_dir(tmp_path / "scene", bundle)
        manifest = json.loads((tmp_path / "scene" / "manifest.json").read_text())
        for name, dims in manifest["tensors"].items():
            arr = load_tensor(tmp_path / "scene" / f"{name}.cvt")
            assert list(arr.shape) == dims
