"""The three workloads: inputs built from the seed, one operation, its correctness check.

All run the paper-default ``SceneSpec()`` (a 41 x 41 grid, so a 1681 x 1681
similarity matrix) and call only public ``crossview`` functions.

- ``localize-n41``: ``run_localization`` without refiner parameters, sigma
  cycling over 0.0/0.1/0.2/0.3; the conv3d refiner is bypassed.
- ``refine-n41``: ``run_localization`` with ``RefinerParams.random(1681,
  scale=0.03)``; nearly all of its time is ``local_residual``.
- ``score-n41``: the offline loss/eval path, in the style of ``crossview
  loss``, on scene directories written during set-up.

Each workload gives the harness ``setup``, ``op``, ``check`` and
``within_cell``, plus ``traced_op`` (the same work with every stage called
through a recorder, in ``run_localization``'s order) and ``trace_findings``
for the per-layer numbers that are not times.
"""

from __future__ import annotations

import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from crossview.evaluation import (DEFAULT_MAX_RANGE_M, DEFAULT_THRESHOLDS_PX, MatchPrediction,
                                  build_gt_projection, matching_success_ratio)
from crossview.geometry import (BevGridSpec, Pose3DoF, SceneSpec,
                                ground_cell_to_aerial_cell, metric_to_aerial_px,
                                panorama_pixel_ray)
from crossview.losses import (LossConfig, height_loss, matching_loss, total_loss,
                              vce_loss)
from crossview.pipeline import (PipelineConfig, PipelineResult,
                                matches_cells_to_metric, run_localization)
from crossview.refiner import (RefinerParams, SimilarityMatrix, dustbin_extend,
                               extract_matches, gate_values, global_residual,
                               initial_similarity, local_residual,
                               normalize_doubly_stochastic, refine)
from crossview.solver import CorrespondenceSet, pose_error, solve_weighted_procrustes
from crossview.surface import (aerial_depth_to_height_index, fuse_height_features,
                               normalize_confidence, surface_from_accumulation)
from crossview.synthetic import SceneBundle, load_scene_dir, make_scene_bundle, save_scene_dir

import reference
from harness import Untraced

PAPER_N = 41
EXACT_TRANSLATION_M = 1e-6    # noise-free gates of the acceptance suite
EXACT_YAW_RAD = 1e-8
WITHIN_CELL_YAW_DEG = 5.0
CONV_TAPS = 27                # 3 x 3 x 3 kernels


def _scene_seed(seed: int, index: int) -> int:
    return seed * 10_000 + index


def _within_cell(specs: SceneSpec, trans_m: float, yaw_deg: float) -> bool:
    return trans_m < specs.grid.spacing_m and yaw_deg < WITHIN_CELL_YAW_DEG


@dataclass
class SolveProblem:
    sigma: float
    bundle: SceneBundle
    params: RefinerParams | None = None


@dataclass
class TracedSolve:
    """A solve run stage by stage, with the intermediates the findings need."""

    result: PipelineResult
    matches_cells: CorrespondenceSet
    sim: SimilarityMatrix
    refined: SimilarityMatrix | None = None
    local: np.ndarray | None = None


class Localize:
    """``run_localization`` end to end; the refiner runs when ``refiner_scale`` is set.

    Problems interleave the sigmas, so every prefix of the pool mixes them.
    With ``solve_all`` every problem is solved once per run, timed or not,
    which makes ``within_cell_ratio`` a fixed number for a fixed seed.
    """

    def __init__(self, name: str, n: int, sigmas, scenes_per_sigma: int,
                 refiner_scale: float | None, warmup: int, solve_all: bool,
                 reference_record: dict | None = None):
        self.name = name
        self.n = n
        self.specs = SceneSpec(grid=BevGridSpec(n))
        self.sigmas = tuple(sigmas)
        self.pool_size = len(self.sigmas) * scenes_per_sigma
        self.refiner_scale = refiner_scale
        self.warmup = warmup
        self.solve_all = solve_all
        self.reference_record = reference_record
        self.config = PipelineConfig()

    def _problem(self, rec, scene_seed: int, sigma: float, params_seed: int,
                 scale: float | None) -> SolveProblem:
        bundle = rec("synthetic.make_scene_bundle", make_scene_bundle, self.specs, scene_seed,
                     noise_sigma=sigma)
        params = None
        if scale is not None:
            params = rec("refiner.RefinerParams.random", RefinerParams.random, self.n ** 2,
                         seed=params_seed, scale=scale)
        return SolveProblem(sigma, bundle, params)

    def setup(self, seed: int, rec) -> list:
        problems = []
        for i in range(self.pool_size):
            s = _scene_seed(seed, i)
            sigma = self.sigmas[(seed + i) % len(self.sigmas)]
            problems.append(self._problem(rec, s, sigma, s, self.refiner_scale))
        return problems

    def reference_problem(self, spec: dict) -> SolveProblem:
        return self._problem(Untraced(), spec["scene_seed"], spec["sigma"],
                             spec["params_seed"], spec["scale"])

    def op(self, p: SolveProblem) -> PipelineResult:
        inputs = p.bundle.inputs
        return run_localization(inputs.volume, inputs.conf_logits, inputs.f_sat, self.specs,
                                p.params, self.config)

    def check(self, p: SolveProblem, outcome) -> str | None:
        """top_k matches always; the exact pose when noise-free; on a traced refiner
        solve, also a changed matrix and ``local_residual`` agreeing with the record."""
        traced = isinstance(outcome, TracedSolve)
        res = outcome.result if traced else outcome
        if res.num_matches != self.config.top_k:
            return f"{res.num_matches} matches, expected top_k = {self.config.top_k}"
        if p.sigma == 0.0:
            trans_m, yaw_deg = pose_error(res.pose_px, p.bundle.scene.gt_pose, self.specs.aerial)
            if res.degenerate or not (trans_m < EXACT_TRANSLATION_M
                                      and math.radians(yaw_deg) < EXACT_YAW_RAD):
                return (f"noise-free pose off by {trans_m:.3g} m / {yaw_deg:.3g} deg "
                        f"(degenerate={res.degenerate})")
        if traced and outcome.local is not None:
            if np.array_equal(outcome.refined.s, outcome.sim.s):
                return "refine returned the similarity matrix unchanged"
            return reference.compare(outcome.local, self.reference_record)
        return None

    def within_cell(self, p: SolveProblem, outcome) -> bool:
        res = outcome.result if isinstance(outcome, TracedSolve) else outcome
        return _within_cell(self.specs, *pose_error(res.pose_px, p.bundle.scene.gt_pose,
                                                    self.specs.aerial))

    def agrees(self, untraced: PipelineResult, traced: TracedSolve) -> bool:
        """Whether the stage-by-stage solve returned run_localization's pose bit for bit."""
        a, b = untraced.pose_px, traced.result.pose_px
        return bool(np.array_equal(a.t_px, b.t_px) and a.yaw_rad == b.yaw_rad)

    def trace_problems(self, problems) -> list:
        """(index, problem) pairs the traced pass runs: the pool, or the reference input."""
        if self.refiner_scale is None:
            return list(enumerate(problems))
        return [(-1, self.reference_problem(self.reference_record["input"]))]

    def traced_op(self, p: SolveProblem, rec, reuse: TracedSolve | None = None) -> TracedSolve:
        """The stages of ``run_localization`` called one by one through ``rec``.

        With ``reuse`` (a traced solve of the same problem) the refined
        matrix is taken from it instead of calling ``refine`` again.
        """
        inputs, specs, cfg = p.bundle.inputs, self.specs, self.config
        conf = rec("surface.normalize_confidence", normalize_confidence, inputs.conf_logits)
        surf = rec("surface.surface_from_accumulation", surface_from_accumulation, conf,
                   cfg.surface_threshold, specs.layers)
        f_grd = rec("surface.fuse_height_features", fuse_height_features, inputs.volume, conf,
                    surf, window=cfg.fuse_window)
        sim = rec("refiner.initial_similarity", initial_similarity, f_grd, inputs.f_sat, cfg.tau)
        refined = local = None
        if p.params is not None:
            rec.branch("refiner.gate_values", gate_values, sim, p.params)
            local = rec.branch("refiner.local_residual", local_residual, sim, p.params)
            rec.branch("refiner.global_residual", global_residual, sim, p.params)
            refined = reuse.refined if reuse is not None else \
                rec("refiner.refine", refine, sim, p.params)
        extended = rec("refiner.dustbin_extend", dustbin_extend,
                       refined if refined is not None else sim, p.params)
        probs = rec("refiner.normalize_doubly_stochastic", normalize_doubly_stochastic, extended)
        cells = rec("refiner.extract_matches", extract_matches, probs, cfg.top_k)
        matches_m = rec("pipeline.matches_cells_to_metric", matches_cells_to_metric, cells, specs)
        pose_m, degenerate = rec("solver.solve_weighted_procrustes", solve_weighted_procrustes,
                                 matches_m)
        pose_px = Pose3DoF(pose_m.t_px / specs.aerial.gsd_m_per_px, pose_m.yaw_rad)
        result = PipelineResult(pose_px, degenerate, len(matches_m), surf, matches_m)
        return TracedSolve(result, cells, sim, refined, local)

    def trace_findings(self, traced, stage_ms: dict) -> dict:
        """Per-layer numbers that are not times.

        ``traced`` holds (problem, TracedSolve) for every traced solve that
        passed its check; ``stage_ms`` the median stage times of the pass.
        """
        inliers = total = 0
        for p, t in traced:
            cells = t.matches_cells
            target, valid = ground_cell_to_aerial_cell(
                self.specs, p.bundle.scene.gt_pose, cells.ground_xy.astype(np.int64))
            inliers += int(np.count_nonzero(valid & np.all(target == cells.aerial_xy, axis=1)))
            total += len(cells)
        found = {"refiner.extract_matches.inlier_ratio": inliers / total if total else 0.0}
        if self.refiner_scale is not None and traced:
            p, t = traced[0]
            gflop = _conv_gflop(t.sim, p.params)
            found["refiner.local_residual.gflop"] = gflop
            found["refiner.local_residual.gflop_s"] = \
                gflop / (stage_ms["refiner.local_residual.ms"] / 1e3)
        return found


def _conv_gflop(sim: SimilarityMatrix, params: RefinerParams) -> float:
    """Multiply-adds of the three 3D convolutions, computed from array shapes (x2 flop)."""
    voxels = sim.num_patches ** 2     # the (N, N, N^2) cube
    channel_pairs = sum(k.shape[0] * k.shape[1] for k in params.conv_kernels)
    return 2.0 * CONV_TAPS * channel_pairs * voxels / 1e9


# --- score-n41 -------------------------------------------------------------

PLANTED_OFFSETS_PX = (2.0, 7.0, 12.0, 20.0)   # each clear of every threshold
RANGE_MARGIN_M = 0.5     # planted pixels keep clear of the range and image borders,
EDGE_MARGIN_PX = 1.0     # so the expected valid mask does not hinge on rounding
PREDICTIONS_PER_SCENE = 2048
LOSS_BETAS = (0.5, 2.0)


def ground_plane_range(intr) -> np.ndarray:
    """Range along each panorama pixel ray to the ground plane; NaN at and above the horizon."""
    h, w = intr.panorama_height, intr.panorama_width
    vv, uu = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    _, _, dz = panorama_pixel_ray(intr, uu, vv)
    out = np.full((h, w), np.nan)
    down = dz < 0
    out[down] = intr.camera_height_m / -dz[down]
    return out


@dataclass
class ScoreProblem:
    scene_dir: Path
    gt_pose: Pose3DoF
    f_sat_stored: np.ndarray   # f_sat as the float32 tensor file holds it
    range_map: np.ndarray
    loss_cfg: LossConfig
    pred_pose: Pose3DoF
    expected_pose_error: tuple
    pred: MatchPrediction
    expected_ratios: list
    expected_valid_ratio: float


@dataclass
class ScoreOutcome:
    gt_pose: Pose3DoF
    f_sat: np.ndarray
    vce: float
    matching: float
    height: float
    total: float
    report: dict
    pose_error: tuple


def _planted_predictions(rng, range_map, specs: SceneSpec, gt: Pose3DoF):
    """Pixel matches at known distances from their true aerial targets.

    Returns the prediction, its expected per-threshold success ratios and
    its expected valid ratio, all fixed by construction.
    """
    h, w = range_map.shape
    size = specs.aerial.image_size_px
    us, vs, targets, valids = [], [], [], []
    count = 0
    while count < PREDICTIONS_PER_SCENE:
        u = rng.integers(0, w, PREDICTIONS_PER_SCENE)
        v = rng.integers(0, h, PREDICTIONS_PER_SCENE)
        r = range_map[v, u]
        dx, dy, _ = panorama_pixel_ray(specs.intrinsics, u, v)
        present = np.isfinite(r)
        xs, ys = metric_to_aerial_px(specs.aerial, gt, np.where(present, r, 0.0) * dx,
                                     np.where(present, r, 0.0) * dy)
        edge = np.minimum(np.minimum(xs, size - 1 - xs), np.minimum(ys, size - 1 - ys))
        clear = ~present | ((np.abs(r - DEFAULT_MAX_RANGE_M) > RANGE_MARGIN_M)
                            & (np.abs(edge) > EDGE_MARGIN_PX))
        keep = np.nonzero(clear)[0][:PREDICTIONS_PER_SCENE - count]
        us.append(u[keep])
        vs.append(v[keep])
        targets.append(np.stack([xs[keep], ys[keep]], axis=1))
        valids.append(present[keep] & (r[keep] <= DEFAULT_MAX_RANGE_M) & (edge[keep] > 0))
        count += len(keep)
    u, v = np.concatenate(us), np.concatenate(vs)
    target, valid = np.concatenate(targets), np.concatenate(valids)
    offset = np.resize(np.asarray(PLANTED_OFFSETS_PX), len(u))
    angle = rng.uniform(0.0, 2.0 * math.pi, len(u))
    sat = target + offset[:, None] * np.stack([np.cos(angle), np.sin(angle)], axis=1)
    pred = MatchPrediction(np.stack([u, v], axis=1).astype(float), sat)
    ratios = [float(np.count_nonzero(valid & (offset <= t)) / len(u))
              for t in DEFAULT_THRESHOLDS_PX]
    return pred, ratios, float(np.count_nonzero(valid) / len(u))


def _planted_pose(rng, specs: SceneSpec, gt: Pose3DoF):
    """A prediction within one cell of the true pose, and its exact pose error."""
    trans_m = rng.uniform(0.1, 0.8 * specs.grid.spacing_m)
    heading = rng.uniform(0.0, 2.0 * math.pi)
    yaw_deg = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 0.8 * WITHIN_CELL_YAW_DEG)
    shift_px = trans_m / specs.aerial.gsd_m_per_px * np.array([math.cos(heading),
                                                                math.sin(heading)])
    pred = Pose3DoF(gt.t_px + shift_px, gt.yaw_rad + math.radians(yaw_deg))
    return pred, (trans_m, abs(yaw_deg))


class Score:
    """Offline scoring of a scene directory: load, losses, GT projection, metrics."""

    def __init__(self, name: str, n: int, sigmas, scenes: int, work_dir: Path, warmup: int):
        self.name = name
        self.specs = SceneSpec(grid=BevGridSpec(n))
        self.sigmas = tuple(sigmas)
        self.scenes = scenes
        self.work_dir = Path(work_dir)
        self.warmup = warmup
        self.solve_all = False
        self.config = PipelineConfig()

    def setup(self, seed: int, rec) -> list:
        shutil.rmtree(self.work_dir, ignore_errors=True)
        range_map = ground_plane_range(self.specs.intrinsics)
        loss_cfg = LossConfig(beta1=LOSS_BETAS[0], beta2=LOSS_BETAS[1], rng_seed=seed)
        problems = []
        for i in range(self.scenes):
            s = _scene_seed(seed, i)
            sigma = self.sigmas[(seed + i) % len(self.sigmas)]
            bundle = rec("synthetic.make_scene_bundle", make_scene_bundle, self.specs, s,
                         noise_sigma=sigma)
            scene_dir = self.work_dir / f"scene-{i:03d}"
            rec("synthetic.save_scene_dir", save_scene_dir, scene_dir, bundle)
            rng = np.random.default_rng([seed, i, 2])
            gt = bundle.scene.gt_pose
            pred, ratios, valid_ratio = _planted_predictions(rng, range_map, self.specs, gt)
            pred_pose, err = _planted_pose(rng, self.specs, gt)
            f_sat = bundle.inputs.f_sat.data.astype(np.float32).astype(float)
            problems.append(ScoreProblem(scene_dir, gt, f_sat, range_map, loss_cfg, pred_pose,
                                         err, pred, ratios, valid_ratio))
        return problems

    def op(self, p: ScoreProblem) -> ScoreOutcome:
        return self.traced_op(p, Untraced())

    def traced_op(self, p: ScoreProblem, rec, reuse=None) -> ScoreOutcome:
        cfg, loss_cfg = self.config, p.loss_cfg
        bundle = rec("synthetic.load_scene_dir", load_scene_dir, p.scene_dir)
        specs, inputs, gt = bundle.specs, bundle.inputs, bundle.scene.gt_pose
        conf = rec("surface.normalize_confidence", normalize_confidence, inputs.conf_logits)
        surf = rec("surface.surface_from_accumulation", surface_from_accumulation, conf,
                   cfg.surface_threshold, specs.layers)
        f_grd = rec("surface.fuse_height_features", fuse_height_features, inputs.volume, conf,
                    surf, window=cfg.fuse_window)
        sim = rec("refiner.initial_similarity", initial_similarity, f_grd, inputs.f_sat, cfg.tau)
        surf_sat = rec("surface.aerial_depth_to_height_index", aerial_depth_to_height_index,
                       inputs.depth_sat, specs.layers, ground_anchor_m=bundle.depth_anchor_m,
                       scale=bundle.depth_scale)
        gsd = specs.aerial.gsd_m_per_px
        pred_m = Pose3DoF(p.pred_pose.t_px * gsd, p.pred_pose.yaw_rad)
        vce = rec("losses.vce_loss", vce_loss, pred_m, Pose3DoF(gt.t_px * gsd, gt.yaw_rad),
                  loss_cfg)
        matching = rec("losses.matching_loss", matching_loss, sim, gt, specs, loss_cfg)
        height = rec("losses.height_loss", height_loss, surf, surf_sat, gt, specs, loss_cfg)
        total = rec("losses.total_loss", total_loss, vce, matching, height, loss_cfg)
        projection = rec("evaluation.build_gt_projection", build_gt_projection, p.range_map,
                         specs.intrinsics, gt, specs.aerial)
        report = rec("evaluation.matching_success_ratio", matching_success_ratio, p.pred,
                     projection, DEFAULT_THRESHOLDS_PX)
        err = rec("solver.pose_error", pose_error, p.pred_pose, gt, specs.aerial)
        return ScoreOutcome(gt, inputs.f_sat.data, vce, matching, height, total, report, err)

    def check(self, p: ScoreProblem, o: ScoreOutcome) -> str | None:
        if not (np.array_equal(o.gt_pose.t_px, p.gt_pose.t_px)
                and o.gt_pose.yaw_rad == p.gt_pose.yaw_rad):
            return "scene directory round trip changed the true pose"
        if not np.array_equal(o.f_sat, p.f_sat_stored):
            return "scene directory round trip changed f_sat"
        want = o.vce + p.loss_cfg.beta1 * o.matching + p.loss_cfg.beta2 * o.height
        if not abs(o.total - want) <= 1e-12 * max(1.0, abs(want)):
            return f"total_loss {o.total!r} != vce + beta1*matching + beta2*height = {want!r}"
        if not (o.vce > 0.0 and o.matching >= 0.0 and o.height >= 0.0):
            return f"loss out of range: vce {o.vce}, matching {o.matching}, height {o.height}"
        if o.report["ratios"] != p.expected_ratios \
                or o.report["valid_ratio"] != p.expected_valid_ratio:
            return (f"matching_success_ratio {o.report['ratios']} / valid "
                    f"{o.report['valid_ratio']}, planted {p.expected_ratios} / valid "
                    f"{p.expected_valid_ratio}")
        if not all(abs(a - b) <= 1e-9 for a, b in zip(o.pose_error, p.expected_pose_error)):
            return f"pose_error {o.pose_error}, planted {p.expected_pose_error}"
        return None

    def within_cell(self, p: ScoreProblem, o: ScoreOutcome) -> bool:
        """The scored pose is planted within a cell, so on this workload the ratio reads 1
        whenever ``pose_error`` is right: a check, not an accuracy measurement."""
        return _within_cell(self.specs, *o.pose_error)

    def agrees(self, untraced: ScoreOutcome, traced: ScoreOutcome) -> bool:
        return untraced.total == traced.total and untraced.report == traced.report

    def trace_problems(self, problems) -> list:
        return list(enumerate(problems))

    def trace_findings(self, traced, stage_ms: dict) -> dict:
        return {}


def make_workloads(work_dir: Path, n: int = PAPER_N, small: bool = False,
                   reference_record: dict | None = None) -> dict:
    """The benchmark's workloads by name; ``small`` shrinks the pools for the smoke check.

    ``score-n41`` writes its scene directories under ``work_dir`` and clears it on set-up.
    """
    sigmas = (0.0, 0.1, 0.2, 0.3)
    return {
        "localize-n41": Localize("localize-n41", n, sigmas, scenes_per_sigma=1 if small else 24,
                                 refiner_scale=None, warmup=1, solve_all=True),
        "refine-n41": Localize("refine-n41", n, sigmas[:2], scenes_per_sigma=1,
                               refiner_scale=0.03, warmup=0, solve_all=False,
                               reference_record=reference_record),
        "score-n41": Score("score-n41", n, sigmas, scenes=4 if small else 24,
                           work_dir=work_dir / "score", warmup=1),
    }
