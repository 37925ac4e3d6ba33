import json
import logging
import math

import numpy as np
import pytest

import crossview.pipeline as pipeline
from crossview.geometry import Pose3DoF
from crossview.losses import LossConfig, height_loss, loss_report, matching_loss, vce_loss
from crossview.pipeline import (PipelineConfig, ground_similarity, run_localization,
                                scene_loss_report)
from crossview.refiner import RefinerParams, initial_similarity
from crossview.surface import (aerial_depth_to_height_index, fuse_height_features,
                               normalize_confidence, surface_from_accumulation)
from crossview.synthetic import make_scene_bundle

from conftest import python_subprocess


class TestConfigValidation:
    @pytest.mark.parametrize("top_k", [0, -3])
    def test_top_k_below_one_rejected(self, top_k):
        with pytest.raises(ValueError, match="top_k"):
            PipelineConfig(top_k=top_k)

    # 5e-324 and 1e-310 are positive, but 1 / tau overflows
    @pytest.mark.parametrize("tau", [math.inf, math.nan, 0.0, -0.1, 5e-324, 1e-310])
    def test_non_finite_or_non_positive_tau_rejected(self, tau):
        with pytest.raises(ValueError, match="temperature must be finite and positive"):
            PipelineConfig(tau=tau)

    @pytest.mark.parametrize("yaw", [math.nan, math.inf, -math.inf])
    def test_non_finite_known_yaw_rejected(self, yaw):
        with pytest.raises(ValueError, match="known yaw"):
            PipelineConfig(known_yaw_rad=yaw)

    @pytest.mark.parametrize("threshold", [0.0, 1.0, 1.5, -0.1, math.nan])
    def test_surface_threshold_outside_unit_interval_rejected(self, threshold):
        with pytest.raises(ValueError, match=r"threshold must lie strictly inside \(0, 1\)"):
            PipelineConfig(surface_threshold=threshold)

    def test_negative_fuse_window_rejected(self):
        with pytest.raises(ValueError, match="window must be >= 0"):
            PipelineConfig(fuse_window=-1)

    def test_top_k_above_matrix_size_rejected_before_any_stage(self, small_specs, monkeypatch):
        bundle = make_scene_bundle(small_specs, seed=0)

        def never(*args, **kwargs):
            raise AssertionError("stage ran before the settings were checked")

        monkeypatch.setattr(pipeline, "normalize_confidence", never)
        monkeypatch.setattr(pipeline, "initial_similarity", never)
        n4 = small_specs.grid.num_cells ** 2
        with pytest.raises(ValueError, match="k exceeds the number of matrix entries"):
            run_localization(bundle.inputs.volume, bundle.inputs.conf_logits,
                             bundle.inputs.f_sat, small_specs, config=PipelineConfig(top_k=n4 + 1))

    def test_refiner_params_for_another_grid_rejected(self, small_specs):
        bundle = make_scene_bundle(small_specs, seed=0)
        with pytest.raises(ValueError, match="parameters sized for a different patch count"):
            run_localization(bundle.inputs.volume, bundle.inputs.conf_logits,
                             bundle.inputs.f_sat, small_specs, RefinerParams.random(16, seed=0))


class TestLogging:
    def test_solve_without_refiner_params_logs_nothing(self, small_specs, caplog):
        bundle = make_scene_bundle(small_specs, seed=0)
        with caplog.at_level(logging.DEBUG, logger="crossview"):
            result = run_localization(bundle.inputs.volume, bundle.inputs.conf_logits,
                                      bundle.inputs.f_sat, small_specs)
        assert result.num_matches == PipelineConfig().top_k
        assert caplog.records == []


class TestSharedChain:
    def test_ground_similarity_matches_stage_by_stage_chain(self, small_specs):
        bundle = make_scene_bundle(small_specs, seed=2, noise_sigma=0.2)
        inputs = bundle.inputs
        config = PipelineConfig(surface_threshold=0.3, tau=0.2, fuse_window=1)
        surf, sim = ground_similarity(inputs.volume, inputs.conf_logits, inputs.f_sat,
                                      small_specs, config)
        conf = normalize_confidence(inputs.conf_logits)
        surf_ref = surface_from_accumulation(conf, 0.3, small_specs.layers)
        f_grd = fuse_height_features(inputs.volume, conf, surf_ref, window=1)
        sim_ref = initial_similarity(f_grd, inputs.f_sat, 0.2)
        assert np.array_equal(surf, surf_ref)
        assert np.array_equal(sim.s, sim_ref.s)

    def test_scene_loss_report_matches_hand_chain(self, small_specs):
        bundle = make_scene_bundle(small_specs, seed=3, noise_sigma=0.1)
        bundle.depth_anchor_m = -5.0   # off the default, so a dropped anchor shows
        inputs, gt = bundle.inputs, bundle.scene.gt_pose
        pred = Pose3DoF(gt.t_px + np.array([4.0, -2.0]), gt.yaw_rad + 0.1)
        cfg = LossConfig(beta1=0.5, rng_seed=7)
        report = scene_loss_report(bundle, pred, cfg)

        conf = normalize_confidence(inputs.conf_logits)
        surf_grd = surface_from_accumulation(conf, 0.5, small_specs.layers)
        sim = initial_similarity(fuse_height_features(inputs.volume, conf, surf_grd),
                                 inputs.f_sat, 0.1)
        surf_sat = aerial_depth_to_height_index(inputs.depth_sat, small_specs.layers,
                                                ground_anchor_m=bundle.depth_anchor_m,
                                                scale=bundle.depth_scale)
        gsd = small_specs.aerial.gsd_m_per_px
        expected = loss_report(
            vce_loss(Pose3DoF(pred.t_px * gsd, pred.yaw_rad),
                     Pose3DoF(gt.t_px * gsd, gt.yaw_rad), cfg),
            matching_loss(sim, gt, small_specs, cfg),
            height_loss(surf_grd, surf_sat, gt, small_specs, cfg),
            cfg)
        assert report == expected
        assert report["vce"] > 0.0

    def test_true_pose_has_zero_vce(self, small_specs):
        bundle = make_scene_bundle(small_specs, seed=4)
        report = scene_loss_report(bundle, bundle.scene.gt_pose)
        assert report["vce"] == 0.0


# one refined solve at n=21, printed as JSON: the pose and the matched cells in metric frames
_REFINED_N21_SOLVE = """
import json
from crossview.geometry import BevGridSpec, SceneSpec
from crossview.pipeline import run_localization
from crossview.refiner import RefinerParams
from crossview.synthetic import make_scene_bundle
specs = SceneSpec(grid=BevGridSpec(21))
inputs = make_scene_bundle(specs, 0, noise_sigma=0.2).inputs
params = RefinerParams.random(specs.grid.num_cells, scale=0.03, seed=0)
res = run_localization(inputs.volume, inputs.conf_logits, inputs.f_sat, specs, params)
print(json.dumps({"t_px": res.pose_px.t_px.tolist(), "yaw_rad": res.pose_px.yaw_rad,
                  "ground": res.matches_m.ground_xy.tolist(),
                  "aerial": res.matches_m.aerial_xy.tolist()}))
"""


class TestReproducibilityContract:
    """Bit-reproducible poses hold at a fixed BLAS thread count; across counts the
    refined path agrees in its matches and within 1e-9 in its pose."""

    def test_refined_solve_across_blas_thread_counts(self):
        runs = []
        for threads in ("1", "2"):
            proc = python_subprocess("-c", _REFINED_N21_SOLVE,
                                     env={"OPENBLAS_NUM_THREADS": threads})
            assert proc.returncode == 0, proc.stderr
            runs.append(json.loads(proc.stdout))
        one, two = runs
        assert one["ground"] == two["ground"] and one["aerial"] == two["aerial"]
        assert np.allclose(one["t_px"], two["t_px"], rtol=0.0, atol=1e-9)
        assert abs(one["yaw_rad"] - two["yaw_rad"]) <= 1e-9
