"""End-to-end localization: surface fusion, similarity, refinement, matching, pose.

The ground-similarity chain (confidence softmax -> surface -> height
fusion -> initial similarity) lives here once and serves both
``run_localization`` and ``scene_loss_report``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .geometry import Pose3DoF, SceneSpec
from .losses import (LossConfig, height_loss, loss_report, matching_loss,
                     vce_loss)
from .refiner import (RefinerParams, SimilarityMatrix, _check_top_k, _refine_in_place,
                      check_temperature, extract_matches, initial_similarity,
                      match_probabilities)
from .solver import (CorrespondenceSet, solve_translation_only,
                     solve_weighted_procrustes)
from .surface import (BevFeatureMap, _check_threshold, aerial_depth_to_height_index,
                      check_inputs, fuse_height_features, normalize_confidence,
                      surface_from_accumulation)
from .synthetic import SceneBundle


@dataclass(frozen=True)
class PipelineConfig:
    """Solve settings, checked on construction: ``surface_threshold`` per ``_check_threshold``,
    ``top_k`` per ``_check_top_k`` (an integer >= 1), ``tau`` per ``check_temperature`` and a
    finite ``known_yaw_rad``. Every solve fuses with the class constant ``fuse_window``."""
    surface_threshold: float = 0.5
    tau: float = 0.1
    top_k: int = 30
    known_yaw_rad: float | None = None
    fuse_window: ClassVar[int | None] = None   # all layers: the surface does not reach the pose

    def __post_init__(self):
        _check_threshold(self.surface_threshold)
        _check_top_k(self.top_k, math.inf)   # the grid, and so the upper bound, comes later
        check_temperature(self.tau)
        if self.known_yaw_rad is not None and not math.isfinite(self.known_yaw_rad):
            raise ValueError("known yaw must be finite")


@dataclass
class PipelineResult:
    """One solve. ``pose_px`` maps the BEV metric frame into aerial pixels (``Pose3DoF``: a
    translation in aerial pixels, a yaw in radians). ``matches_m`` holds the matches in metres,
    ground points in the BEV metric frame and aerial points as aerial pixels times the GSD,
    weighted by their match probabilities; ``num_matches == len(matches_m)``. ``degenerate``
    is ``solve_weighted_procrustes``' flag: the rotation is unobservable (below
    ``DEGENERACY_EPS``), so the pose is a translation-only fit at yaw 0. A known-yaw solve
    hard-wires it to ``False``."""
    pose_px: Pose3DoF
    degenerate: bool
    num_matches: int
    surface: np.ndarray  # (N, N) int64 ground surface layer index
    matches_m: CorrespondenceSet


def matches_cells_to_metric(matches: CorrespondenceSet, specs: SceneSpec) -> CorrespondenceSet:
    """Convert cell-unit matches to metric frames shared by the pose solver.

    Ground cells land in the camera metric frame; aerial cells become
    aerial pixel coordinates scaled by the GSD, so the recovered
    translation divided by the GSD is the pose translation in pixels.
    """
    ground = specs.grid.cell_m(matches.ground_xy)
    aerial_px = specs.aerial_cell_px(matches.aerial_xy)
    return CorrespondenceSet(ground, aerial_px * specs.aerial.gsd_m_per_px, matches.weights)


def ground_similarity(volume: np.ndarray, conf_logits: np.ndarray, f_sat: BevFeatureMap,
                      specs: SceneSpec, config: PipelineConfig = PipelineConfig()
                      ) -> tuple[np.ndarray, SimilarityMatrix]:
    """``check_inputs`` against ``specs``, then confidence softmax -> ground surface ->
    height fusion of the (M, N, N, C) float64 volume -> initial similarity."""
    check_inputs(specs, volume, conf_logits, f_sat.data)
    conf = normalize_confidence(conf_logits)
    surf = surface_from_accumulation(conf, config.surface_threshold, specs.layers)
    f_grd = fuse_height_features(volume, conf, surf, window=config.fuse_window)
    return surf, initial_similarity(f_grd, f_sat, config.tau)


def run_localization(volume: np.ndarray, conf_logits: np.ndarray, f_sat: BevFeatureMap,
                     specs: SceneSpec, params: RefinerParams | None = None,
                     config: PipelineConfig = PipelineConfig()) -> PipelineResult:
    """Surface model -> similarity -> refine -> normalize -> match -> pose; a ``top_k`` above
    the N^4 matrix entries is rejected before any stage runs, and refiner parameters sized
    for another patch count before any refiner stage. ``params=None`` skips the refinement
    and uses zero dustbins, without a log line.

    The similarity is refined in place (``refine``'s numbers, not its copy) and then
    normalized in place by ``match_probabilities``, so a solve holds one N^2 x N^2
    matrix, refined or not (22.6 MB at n=41). A refined solve peaks in the conv
    phase, beside which it holds only the global stack's hidden layer and one
    aerial-axis window's conv buffers (41.2 MB traced at n=41)."""
    _check_top_k(config.top_k, specs.grid.num_cells ** 2)
    surf, sim = ground_similarity(volume, conf_logits, f_sat, specs, config)
    if params is not None:
        sim = _refine_in_place(sim, params)
    probs = match_probabilities(sim, params)
    matches = extract_matches(probs, config.top_k)
    matches_m = matches_cells_to_metric(matches, specs)

    gsd = specs.aerial.gsd_m_per_px
    if config.known_yaw_rad is not None:
        pose_m = solve_translation_only(matches_m, config.known_yaw_rad)
        degenerate = False
    else:
        pose_m, degenerate = solve_weighted_procrustes(matches_m)
    pose_px = Pose3DoF(pose_m.t_px / gsd, pose_m.yaw_rad)
    return PipelineResult(pose_px, degenerate, len(matches_m), surf, matches_m)


def scene_loss_report(bundle: SceneBundle, pred_px: Pose3DoF, loss_cfg: LossConfig = LossConfig(),
                      config: PipelineConfig = PipelineConfig()) -> dict:
    """Training losses of a predicted pose (aerial pixels) against the scene's true pose.

    The matching and height losses read the ground similarity and surface
    that ``run_localization`` starts from; the aerial surface comes from
    the scene's pseudo-depth and its recorded anchor and scale.
    """
    specs = bundle.specs
    inputs = bundle.inputs
    gt = bundle.scene.gt_pose
    surf_grd, sim = ground_similarity(inputs.volume, inputs.conf_logits, inputs.f_sat,
                                      specs, config)
    surf_sat = aerial_depth_to_height_index(inputs.depth_sat, specs.layers,
                                            ground_anchor_m=bundle.depth_anchor_m,
                                            scale=bundle.depth_scale)
    gsd = specs.aerial.gsd_m_per_px
    vce = vce_loss(Pose3DoF(pred_px.t_px * gsd, pred_px.yaw_rad),
                   Pose3DoF(gt.t_px * gsd, gt.yaw_rad), loss_cfg)
    return loss_report(vce, matching_loss(sim, gt, specs, loss_cfg),
                       height_loss(surf_grd, surf_sat, gt, specs, loss_cfg), loss_cfg)
