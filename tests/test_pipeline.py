import dataclasses
import json
import logging
import math
import re

import numpy as np
import pytest

import crossview.pipeline as pipeline
from crossview import refiner
from crossview.geometry import BevGridSpec, HeightLayerSpec, Pose3DoF
from crossview.losses import LossConfig, height_loss, loss_report, matching_loss, vce_loss
from crossview.pipeline import (PipelineConfig, ground_similarity, run_localization,
                                scene_loss_report)
from crossview.refiner import (RefinerParams, extract_matches, initial_similarity,
                               match_probabilities, refine)
from crossview.solver import solve_weighted_procrustes
from crossview.surface import (BevFeatureMap, aerial_depth_to_height_index,
                               fuse_height_features, normalize_confidence,
                               surface_from_accumulation)
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

    # one rule, one message, whichever caller applies it
    @pytest.mark.parametrize("threshold", [math.nan, 0.0, 1.0, -0.5, 1.5])
    def test_surface_threshold_rule_has_one_message(self, threshold):
        conf = np.full((3, 2, 2), 1 / 3)
        for call in (lambda: PipelineConfig(surface_threshold=threshold),
                     lambda: surface_from_accumulation(conf, threshold, HeightLayerSpec(3))):
            with pytest.raises(ValueError, match=r"^threshold must lie strictly inside \(0, 1\)$"):
                call()

    # at construction, not after the solve: a float top_k failed in extract_matches' slicing
    @pytest.mark.parametrize("field, value", [("top_k", 30.0), ("top_k", True), ("top_k", "30")])
    def test_integer_field_of_another_kind_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field}: expected an integer, got {value!r}$"):
            PipelineConfig(**{field: value})

    def test_numpy_integers_pass_the_integer_rule(self):
        assert PipelineConfig(top_k=np.int64(5)).top_k == 5
        assert LossConfig(n_v=np.int64(3), n_s=np.uint16(4), rng_seed=np.int8(2)).n_s == 4
        report = loss_report(1.0, 2.0, 3.0, LossConfig(rng_seed=np.int64(7)))
        assert json.loads(json.dumps(report))["seed"] == 7

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

    # the match-count rule: the config and run_localization give extract_matches' messages
    @pytest.mark.parametrize("k, message", [
        (0, "top_k must be at least 1"), (-3, "top_k must be at least 1"),
        (None, "top_k exceeds the number of matrix entries"),   # None: N^4 + 1
    ], ids=["zero", "negative", "above"])
    def test_top_k_rule_has_one_message_per_bound(self, small_specs, k, message):
        n2 = small_specs.grid.num_cells
        k = n2 ** 2 + 1 if k is None else k
        inputs = make_scene_bundle(small_specs, seed=0).inputs
        for call in (lambda: extract_matches(np.full((n2, n2), 0.5), k),
                     lambda: run_localization(inputs.volume, inputs.conf_logits, inputs.f_sat,
                                              small_specs, config=PipelineConfig(top_k=k))):
            with pytest.raises(ValueError, match=f"^{message}$"):
                call()

    @pytest.mark.parametrize("change, message", [
        ("grid", "volume must be (11, 11, 11, 16) for the scene's specs, got (11, 9, 9, 16)"),
        ("channels", "f_sat must be (9, 9, 16) for the scene's specs, got (9, 9, 15)"),
    ], ids=["grid", "channels"])
    def test_inputs_off_the_specs_rejected_before_any_stage(self, small_specs, monkeypatch,
                                                            change, message):
        # 9x9 inputs solved with an 11x11 spec used to return a pose metres off, silently
        inputs = make_scene_bundle(small_specs, seed=0).inputs
        specs, f_sat = small_specs, inputs.f_sat
        if change == "grid":
            specs = dataclasses.replace(specs, grid=BevGridSpec(11, specs.grid.extent_m))
        else:
            f_sat = BevFeatureMap(f_sat.data[..., :15])

        def never(*args, **kwargs):
            raise AssertionError("stage ran before the input shapes were checked")

        monkeypatch.setattr(pipeline, "normalize_confidence", never)
        with pytest.raises(ValueError, match=re.escape(message)):
            run_localization(inputs.volume, inputs.conf_logits, f_sat, specs)

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
        config = PipelineConfig(surface_threshold=0.3, tau=0.2)
        surf, sim = ground_similarity(inputs.volume, inputs.conf_logits, inputs.f_sat,
                                      small_specs, config)
        conf = normalize_confidence(inputs.conf_logits)
        surf_ref = surface_from_accumulation(conf, 0.3, small_specs.layers)
        f_grd = fuse_height_features(inputs.volume, conf, surf_ref)
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

    @pytest.mark.parametrize("window", [None, 10], ids=["one-window", "nine-windows"])
    def test_refined_solve_equals_the_public_stages(self, small_specs, monkeypatch, window):
        # the solve refines its similarity in place; refine works on a copy, and the
        # matches, weights and pose of the two chains agree bit for bit
        if window is not None:
            monkeypatch.setattr(refiner, "_W_WINDOW", window)
        inputs = make_scene_bundle(small_specs, seed=6, noise_sigma=0.2).inputs
        params = RefinerParams.random(small_specs.grid.num_cells, scale=0.1, seed=6)
        res = run_localization(inputs.volume, inputs.conf_logits, inputs.f_sat, small_specs,
                               params)
        _, sim = ground_similarity(inputs.volume, inputs.conf_logits, inputs.f_sat, small_specs)
        cells = extract_matches(match_probabilities(refine(sim, params), params),
                                PipelineConfig().top_k)
        expected = pipeline.matches_cells_to_metric(cells, small_specs)
        pose_m, degenerate = solve_weighted_procrustes(expected)
        for got, want in ((res.matches_m.ground_xy, expected.ground_xy),
                          (res.matches_m.aerial_xy, expected.aerial_xy),
                          (res.matches_m.weights, expected.weights),
                          (res.pose_px.t_px, pose_m.t_px / small_specs.aerial.gsd_m_per_px)):
            assert got.tobytes() == want.tobytes()
        assert (res.pose_px.yaw_rad, res.degenerate) == (pose_m.yaw_rad, degenerate)

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
