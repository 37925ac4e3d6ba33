"""Command-line surface: scene generation, pose solving, evaluation, losses.

Exit codes: 0 success, 2 input error, 3 degenerate solution. All randomness
flows from explicit --seed flags; set CROSSVIEW_LOG=DEBUG|INFO|WARNING (any
case) for verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from pathlib import Path

from .evaluation import (DEFAULT_THRESHOLDS_PX, GroundTruthProjection,
                         MatchPrediction, localization_stats,
                         matching_success_ratio, read_pose_csv)
from .geometry import BevGridSpec, Pose3DoF, SceneSpec
from .losses import LossConfig
from .pipeline import PipelineConfig, run_localization, scene_loss_report
from .refiner import RefinerParams
from .solver import pose_error
from .surface import BevFeatureMap, FeatureVolume
from .synthetic import FEATURE_CHANNELS, load_scene_dir, make_scene_bundle, save_scene_dir
from .tensorio import decode_json, json_text, load_tensor

log = logging.getLogger("crossview")

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_DEGENERATE = 3


def _dump_json(payload: dict, out: str | None) -> None:
    text = json_text(payload)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _read_json(path, decode):
    """Decode the JSON object in ``path``; a malformed one is a ``ValueError`` naming the file."""
    return decode_json(path, json.loads(Path(path).read_text()), decode)


def _write_csv_report(path: str, rows: list[tuple]) -> None:
    with open(path, "w") as fh:
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


def cmd_generate(args) -> int:
    specs = _read_json(args.spec_json, SceneSpec.from_json_dict) if args.spec_json \
        else SceneSpec(grid=BevGridSpec(args.n))
    bundle = make_scene_bundle(specs, seed=args.seed, noise_sigma=args.noise,
                               channels=args.channels, snapped=not args.continuous_pose)
    save_scene_dir(args.out_dir, bundle)
    log.info("wrote scene (seed=%d, noise=%g) to %s", args.seed, args.noise, args.out_dir)
    return EXIT_OK


def _load_solve_inputs(args):
    if args.scene_dir:
        bundle = load_scene_dir(args.scene_dir)
        return bundle.inputs.volume, bundle.inputs.conf_logits, bundle.inputs.f_sat, bundle.specs
    needed = (args.volume, args.conf_logits, args.f_sat, args.spec_json)
    if any(p is None for p in needed):
        raise ValueError("either --scene-dir or all of --volume/--conf-logits/--f-sat/--spec-json")
    specs = _read_json(args.spec_json, SceneSpec.from_json_dict)
    volume = FeatureVolume(load_tensor(args.volume), specs.layers, specs.grid)
    conf_logits = load_tensor(args.conf_logits)
    f_sat = BevFeatureMap(load_tensor(args.f_sat), specs.grid)
    return volume, conf_logits, f_sat, specs


def cmd_solve(args) -> int:
    config = PipelineConfig(
        surface_threshold=args.threshold,
        top_k=args.topk,
        known_yaw_rad=math.radians(args.known_yaw) if args.known_yaw is not None else None,
    )
    volume, conf_logits, f_sat, specs = _load_solve_inputs(args)
    params = RefinerParams.load(args.refiner_params) if args.refiner_params else None
    result = run_localization(volume, conf_logits, f_sat, specs, params, config)
    if params is None:
        log.warning("no refiner parameters given: skipping refinement (identity)")
    payload = {
        "tx_px": float(result.pose_px.t_px[0]),
        "ty_px": float(result.pose_px.t_px[1]),
        "yaw_deg": result.pose_px.yaw_deg,
        "num_matches": result.num_matches,
        "degenerate_flag": result.degenerate,
    }
    _dump_json(payload, args.out)
    return EXIT_DEGENERATE if result.degenerate else EXIT_OK


def cmd_eval(args) -> int:
    if args.mode == "matching":
        pred = MatchPrediction.from_csv(args.pred_csv)
        gt = GroundTruthProjection.load(args.gt_dir)
        try:
            thresholds = list(DEFAULT_THRESHOLDS_PX) if args.thresholds is None \
                else [float(t) for t in args.thresholds.split(",")]
        except ValueError as exc:
            raise ValueError(f"--thresholds: {exc}") from None
        report = matching_success_ratio(pred, gt, thresholds)
        report["mode"] = "matching"
        rows = [("threshold_px", "ratio")]
        rows += list(zip(report["thresholds_px"], report["ratios"]))
        rows += [("valid_ratio", report["valid_ratio"])]
    else:
        if args.thresholds is not None:
            raise ValueError("--thresholds applies only to --mode matching")
        pred_poses = read_pose_csv(args.pred_csv)
        gt_dir = Path(args.gt_dir)
        gt_poses = read_pose_csv(gt_dir / "poses.csv")
        if len(pred_poses) != len(gt_poses):
            raise ValueError(
                f"prediction count {len(pred_poses)} != ground-truth count {len(gt_poses)}")
        specs = _read_json(gt_dir / "spec.json", SceneSpec.from_json_dict)
        errors = [pose_error(p, g, specs.aerial) for p, g in zip(pred_poses, gt_poses)]
        report = localization_stats(errors)
        report["mode"] = "localization"
        rows = [("metric", "value")] + sorted(
            (k, v) for k, v in report.items() if k != "mode")
    _dump_json(report, args.out)
    if args.out_csv:
        _write_csv_report(args.out_csv, rows)
    return EXIT_OK


def cmd_loss(args) -> int:
    config = PipelineConfig(surface_threshold=args.threshold, tau=args.tau)
    cfg = _read_json(args.config, LossConfig.from_json_dict) if args.config else LossConfig()
    pred = _read_json(args.pred_pose, Pose3DoF.from_json_dict)
    bundle = load_scene_dir(args.scene_dir)
    _dump_json(scene_loss_report(bundle, pred, cfg, config), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossview",
        description="Ground-to-aerial localization pipeline over BEV feature grids.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic scene directory")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n", type=int, default=BevGridSpec.n_points_per_side,
                   help="grid points per side (odd)")
    p.add_argument("--noise", type=float, default=0.0, help="feature noise sigma")
    p.add_argument("--channels", type=int, default=FEATURE_CHANNELS)
    p.add_argument("--continuous-pose", action="store_true",
                   help="draw a continuous pose instead of a grid-snapped one")
    p.add_argument("--spec-json", help="scene spec JSON (overrides --n)")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("solve", help="recover the pose from scene tensors")
    p.add_argument("--scene-dir")
    p.add_argument("--volume")
    p.add_argument("--conf-logits")
    p.add_argument("--f-sat")
    p.add_argument("--spec-json")
    p.add_argument("--refiner-params", help="directory of refiner parameter tensors")
    p.add_argument("--threshold", type=float, default=PipelineConfig.surface_threshold,
                   help="surface threshold")
    p.add_argument("--topk", type=int, default=PipelineConfig.top_k)
    p.add_argument("--known-yaw", type=float, default=None,
                   help="fix the yaw (degrees) and solve translation only")
    p.add_argument("--out")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("eval", help="score predictions against ground truth")
    p.add_argument("--pred-csv", required=True)
    p.add_argument("--gt-dir", required=True)
    p.add_argument("--mode", choices=("localization", "matching"), required=True)
    p.add_argument("--thresholds", help="comma-separated pixel thresholds (matching mode)")
    p.add_argument("--out")
    p.add_argument("--out-csv")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("loss", help="evaluate the training losses on a scene")
    p.add_argument("--scene-dir", required=True)
    p.add_argument("--pred-pose", required=True, help="pose JSON (as emitted by solve)")
    p.add_argument("--config", help="loss config JSON")
    p.add_argument("--threshold", type=float, default=PipelineConfig.surface_threshold)
    p.add_argument("--tau", type=float, default=PipelineConfig.tau)
    p.add_argument("--out")
    p.set_defaults(func=cmd_loss)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        level = os.environ.get("CROSSVIEW_LOG", "WARNING")
        if level.upper() not in ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"):
            raise ValueError(f"CROSSVIEW_LOG: unknown log level {level!r}; "
                             "expected DEBUG, INFO, WARNING, ERROR or CRITICAL")
        logging.basicConfig(level=level.upper())
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
