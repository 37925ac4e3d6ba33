#!/usr/bin/env python3
"""Print one sha256 over the outputs of a fixed list of solves.

Two trees that print the same digest give bit-identical solves on this
list: un-refined ``run_localization`` at n = 9, 21 and 41, snapped and
continuous, sigma 0, 0.2 and 0.4, two seeds each, and refined solves with
``RefinerParams.random(n^2, scale=0.03)`` at n = 9 and 21, two seeds each, and
at n = 41, snapped, sigma 0.2, seed 0, whose conv runs over several aerial-axis
windows; their parameters first make a ``RefinerParams.save``/``load`` round
trip through a temporary directory. Un-refined solves at n = 9 and 21, snapped and continuous,
sigma 0.2, two seeds each, run twice more: under ``PipelineConfig(tau=0.005)``,
whose similarity range takes the two-exp path of ``refiner._normalize``, and
with ``known_yaw_rad`` set to the scene's true yaw, which solves through
``solve_translation_only``. The hash covers each solve's pose, degenerate
flag, matches (metric coordinates of the matched cells), match weights and
ground surface. For each refined solve it also covers the refined matrix,
``refine`` of the solve's ground similarity, so a change that moves the
refiner's numbers changes the digest even where the solve keeps its outputs.
For each un-refined solve it also covers the loss path: the
JSON text of ``scene_loss_report`` for the solved pose under the solve's
config, on the scene after a ``save_scene_dir``/``load_scene_dir`` round trip
through a temporary directory, under the default ``LossConfig`` and under
``LOSS_CONFIG``, a non-default one decoded by ``LossConfig.from_json_dict``,
and the ground-truth projection (``build_gt_projection``) under the scene's
true pose of one fixed seeded depth map, ``depth_map``, whose top third is NaN
like the sky rows of a panorama, so that both the skipped and the projected
row blocks are hashed.
Run it on both trees with the same BLAS thread count: the refiner's GEMMs are
bit-reproducible only for a fixed one. It takes no flags.
"""

import hashlib
import tempfile
from pathlib import Path

import numpy as np

from crossview.evaluation import build_gt_projection
from crossview.geometry import BevGridSpec, CameraIntrinsics, SceneSpec
from crossview.losses import LossConfig
from crossview.pipeline import (PipelineConfig, ground_similarity, run_localization,
                                scene_loss_report)
from crossview.refiner import RefinerParams, refine
from crossview.synthetic import load_scene_dir, make_scene_bundle, save_scene_dir
from crossview.tensorio import json_text

SEEDS = (0, 1)
UNREFINED = [(n, snapped, sigma) for n in (9, 21, 41) for snapped in (True, False)
             for sigma in (0.0, 0.2, 0.4)]
REFINED = [(n, snapped, sigma) for n in (9, 21) for snapped in (True, False)
           for sigma in (0.0, 0.2)]
WINDOWED = [(41, True, 0.2)]   # N^2 above refiner._W_WINDOW: the conv crosses window seams
OTHER_PATHS = [(n, snapped, 0.2) for n in (9, 21) for snapped in (True, False)]
LOSS_CONFIG = {"beta2": 0.5, "k_norm": 7.5, "n_s": 300, "rng_seed": 3}
DEPTH_SEED = 5


def depth_map(intr: CameraIntrinsics) -> np.ndarray:
    """Ranges drawn from -5 to 45 m, 5% of them NaN, with the top third of the rows NaN."""
    h, w = intr.panorama_height, intr.panorama_width
    rng = np.random.default_rng(DEPTH_SEED)
    depth = rng.uniform(-5.0, 45.0, (h, w))
    depth[rng.uniform(size=depth.shape) < 0.05] = np.nan
    depth[:h // 3] = np.nan
    return depth


def solves():
    """(specs, bundle, params, config) of every solve on the list, in a fixed order."""
    for kind, cases, seeds in (("default", UNREFINED, SEEDS), ("refined", REFINED, SEEDS),
                               ("refined", WINDOWED, SEEDS[:1]), ("tau", OTHER_PATHS, SEEDS),
                               ("known-yaw", OTHER_PATHS, SEEDS)):
        for n, snapped, sigma in cases:
            specs = SceneSpec(grid=BevGridSpec(n))
            for seed in seeds:
                bundle = make_scene_bundle(specs, seed=seed, noise_sigma=sigma, snapped=snapped)
                params = (RefinerParams.random(specs.grid.num_cells, scale=0.03, seed=seed)
                          if kind == "refined" else None)
                config = PipelineConfig()
                if kind == "tau":
                    config = PipelineConfig(tau=0.005)
                elif kind == "known-yaw":
                    config = PipelineConfig(known_yaw_rad=bundle.scene.gt_pose.yaw_rad)
                yield specs, bundle, params, config


def main():
    digest = hashlib.sha256()
    loss_cfgs = (LossConfig(), LossConfig.from_json_dict(LOSS_CONFIG))
    depth = depth_map(SceneSpec().intrinsics)
    with tempfile.TemporaryDirectory() as tmp:
        scene_dir, params_dir = Path(tmp) / "scene", Path(tmp) / "params"
        for specs, bundle, params, config in solves():
            if params is not None:
                params.save(params_dir)
                params = RefinerParams.load(params_dir)
            inputs = bundle.inputs
            res = run_localization(inputs.volume, inputs.conf_logits, inputs.f_sat, specs,
                                   params, config)
            matches = res.matches_m
            parts = [res.pose_px.t_px, np.float64(res.pose_px.yaw_rad), np.bool_(res.degenerate),
                     matches.ground_xy, matches.aerial_xy, matches.weights, res.surface]
            if params is not None:
                _, sim = ground_similarity(inputs.volume, inputs.conf_logits, inputs.f_sat,
                                           specs, config)
                parts.append(refine(sim, params).s)
            else:
                parts.append(build_gt_projection(depth, specs.intrinsics, bundle.scene.gt_pose,
                                                 specs.aerial))
            for part in parts:
                part = np.ascontiguousarray(part)
                digest.update(f"{part.dtype.str}{part.shape}".encode())
                digest.update(part.tobytes())
            if params is None:
                save_scene_dir(scene_dir, bundle)
                loaded = load_scene_dir(scene_dir)
                for cfg in loss_cfgs:
                    report = scene_loss_report(loaded, res.pose_px, cfg, config)
                    digest.update(json_text(report).encode())
    print(digest.hexdigest())


if __name__ == "__main__":
    main()
