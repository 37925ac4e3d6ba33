#!/usr/bin/env python3
"""Run the full localization pipeline on one synthetic scene and print a report."""

import argparse
import json
import math

from crossview.geometry import BevGridSpec, SceneSpec
from crossview.losses import LossConfig
from crossview.pipeline import run_localization, scene_loss_report
from crossview.solver import pose_error
from crossview.synthetic import make_scene_bundle


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n", type=int, default=BevGridSpec.n_points_per_side)
    parser.add_argument("--noise", type=float, default=0.0)
    parser.add_argument("--continuous-pose", action="store_true")
    args = parser.parse_args()

    specs = SceneSpec(grid=BevGridSpec(n_points_per_side=args.n))
    bundle = make_scene_bundle(specs, seed=args.seed, noise_sigma=args.noise,
                               snapped=not args.continuous_pose)
    gt = bundle.scene.gt_pose
    res = run_localization(bundle.inputs.volume, bundle.inputs.conf_logits,
                           bundle.inputs.f_sat, specs)
    trans_m, orient_deg = pose_error(res.pose_px, gt, specs.aerial)
    losses = scene_loss_report(bundle, res.pose_px, LossConfig(rng_seed=args.seed))

    print(json.dumps({
        "seed": args.seed,
        "noise_sigma": args.noise,
        "gt": {"tx_px": gt.t_px[0], "ty_px": gt.t_px[1],
               "yaw_deg": math.degrees(gt.yaw_rad)},
        "pred": {"tx_px": res.pose_px.t_px[0], "ty_px": res.pose_px.t_px[1],
                 "yaw_deg": res.pose_px.yaw_deg},
        "translation_error_m": trans_m,
        "orientation_error_deg": orient_deg,
        "num_matches": res.num_matches,
        "degenerate": res.degenerate,
        "losses": losses,
    }, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
