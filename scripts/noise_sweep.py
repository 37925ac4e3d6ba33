#!/usr/bin/env python3
"""Sweep feature noise and report localization error statistics per level.

Shows the matching pipeline's degradation curve: errors stay at numerical
zero while matches remain exact, then grow once noise starts flipping
mutual argmaxes. ``--continuous`` draws continuous poses instead of
whole-cell, quarter-turn ones, so nearest-cell resampling is no longer exact.
The solves use no refiner parameters, and p90 is numpy's interpolated
percentile.
"""

import argparse
import math

import numpy as np

from crossview.evaluation import localization_stats
from crossview.geometry import AerialMeta, BevGridSpec, CameraIntrinsics, SceneSpec
from crossview.pipeline import run_localization
from crossview.solver import pose_error
from crossview.synthetic import make_scene_bundle


def sigma_list(text: str) -> list[float]:
    """Comma-separated noise levels, each finite and non-negative."""
    try:
        sigmas = [float(s) for s in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    bad = [s for s in sigmas if not 0 <= s < math.inf]   # also catches NaN
    if bad:
        raise argparse.ArgumentTypeError(f"noise levels must be finite and non-negative, "
                                         f"got {bad[0]}")
    return sigmas


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=21)
    parser.add_argument("--extent", type=float, default=40.0)
    parser.add_argument("--seeds", type=int, default=50)
    parser.add_argument("--sigmas", type=sigma_list, default="0.0,0.1,0.2,0.3,0.4,0.5")
    parser.add_argument("--continuous", action="store_true",
                        help="draw continuous poses instead of snapped ones")
    args = parser.parse_args()
    if args.seeds < 1:
        parser.error(f"--seeds must be at least 1, got {args.seeds}")
    try:
        specs = SceneSpec(
            grid=BevGridSpec(n_points_per_side=args.n, extent_m=args.extent),
            intrinsics=CameraIntrinsics(512, 256),
            aerial=AerialMeta(image_size_px=512),
        )
    except ValueError as exc:
        parser.error(str(exc))
    # the synthetic harness's rule, checked here so the error comes before the header
    if args.n % 2 == 0:
        parser.error(f"--n must be odd so the camera sits on a grid point, got {args.n}")

    print(f"{'sigma':>6} {'median_m':>10} {'mean_m':>10} {'p90_m':>10} {'median_deg':>11}")
    for sigma in args.sigmas:
        errors = []
        for seed in range(args.seeds):
            bundle = make_scene_bundle(specs, seed=seed, noise_sigma=sigma,
                                       snapped=not args.continuous)
            res = run_localization(bundle.inputs.volume, bundle.inputs.conf_logits,
                                   bundle.inputs.f_sat, specs)
            errors.append(pose_error(res.pose_px, bundle.scene.gt_pose, specs.aerial))
        # the median and mean rule of `crossview eval --mode localization`
        stats = localization_stats(errors)
        p90 = np.percentile([t for t, _ in errors], 90)
        print(f"{sigma:>6.2f} {stats['median_translation_m']:>10.4g} "
              f"{stats['mean_translation_m']:>10.4g} {p90:>10.4g} "
              f"{stats['median_orientation_deg']:>11.4g}")


if __name__ == "__main__":
    main()
