"""Command-line surface: scene generation, pose solving, evaluation, losses.

Exit codes: 0 success, 2 input error, 3 degenerate solution. All randomness
flows from explicit --seed flags; set CROSSVIEW_LOG=DEBUG|INFO|WARNING (any
case) for verbosity; an unknown level is an input error naming CROSSVIEW_LOG,
raised before the command runs. Reports go to stdout or --out. ``loss`` reads
its JSON inputs before the scene.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from pathlib import Path

from .evaluation import (DEFAULT_THRESHOLDS_PX, MatchPrediction, check_thresholds,
                         load_gt_projection, localization_stats,
                         matching_success_ratio)
from .geometry import BevGridSpec, Pose3DoF, SceneSpec
from .losses import LossConfig
from .pipeline import PipelineConfig, run_localization, scene_loss_report
from .refiner import RefinerParams
from .solver import pose_error
from .surface import BevFeatureMap, FeatureVolume
from .synthetic import (FEATURE_CHANNELS, load_scene_dir, make_scene_bundle,
                        read_scene_manifest, save_scene_dir)
from .tensorio import decode_json, json_text, load_tensor, read_json

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


def cmd_generate(args) -> int:
    """``--n`` next to ``--spec-json`` is a ``ValueError``, raised before any file is read."""
    if args.spec_json and args.n is not None:
        raise ValueError("--n cannot be combined with --spec-json")
    n = BevGridSpec.n_points_per_side if args.n is None else args.n
    specs = decode_json(args.spec_json, read_json(args.spec_json), SceneSpec.from_json_dict) \
        if args.spec_json else SceneSpec(grid=BevGridSpec(n))
    bundle = make_scene_bundle(specs, seed=args.seed, noise_sigma=args.noise,
                               channels=args.channels, snapped=not args.continuous_pose)
    save_scene_dir(args.out_dir, bundle)
    log.info("wrote scene (seed=%d, noise=%g) to %s", args.seed, args.noise, args.out_dir)
    return EXIT_OK


def _load_solve_inputs(args):
    """A scene directory, or all four loose tensor flags; a loose flag next to ``--scene-dir``
    is a ``ValueError`` naming the first one, raised before any file is read."""
    loose = {"--volume": args.volume, "--conf-logits": args.conf_logits,
             "--f-sat": args.f_sat, "--spec-json": args.spec_json}
    if args.scene_dir:
        given = [flag for flag, path in loose.items() if path is not None]
        if given:
            raise ValueError(f"{given[0]} cannot be combined with --scene-dir")
        bundle = load_scene_dir(args.scene_dir)
        return bundle.inputs.volume, bundle.inputs.conf_logits, bundle.inputs.f_sat, bundle.specs
    if None in loose.values():
        raise ValueError("either --scene-dir or all of --volume/--conf-logits/--f-sat/--spec-json")
    specs = decode_json(args.spec_json, read_json(args.spec_json), SceneSpec.from_json_dict)
    volume = FeatureVolume(load_tensor(args.volume))
    conf_logits = load_tensor(args.conf_logits)
    f_sat = BevFeatureMap(load_tensor(args.f_sat))
    return volume, conf_logits, f_sat, specs


def cmd_solve(args) -> int:
    """Without ``--refiner-params`` the solve skips the refinement and uses zero dustbins; the
    CLI then logs a warning after the solve, where the library logs nothing."""
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


# eval mode -> {flag: whether the mode requires it}
_EVAL_FLAGS = {"matching": {"--pred-csv": True, "--gt-dir": True, "--thresholds": False},
               "localization": {"--scene-dir": True, "--pred-pose": True}}


def _check_eval_flags(args) -> None:
    """A flag of the other mode, or a missing one of this mode, is a ``ValueError`` naming it."""
    for mode, flags in _EVAL_FLAGS.items():
        for flag, required in flags.items():
            given = getattr(args, flag[2:].replace("-", "_")) is not None
            if given and mode != args.mode:
                raise ValueError(f"{flag} applies only to --mode {mode}")
            if required and not given and mode == args.mode:
                raise ValueError(f"--mode {mode} needs {flag}")


def cmd_eval(args) -> int:
    """Matching mode: a ``--thresholds`` value that is not a comma-separated list that
    ``check_thresholds`` accepts is a ``ValueError`` naming the flag, before any file is read.

    Localization mode: the repeated ``--pred-pose`` and ``--scene-dir`` pair in order, and
    each pose is scored in meters at its own scene's GSD. Every pose is read before any
    scene, and of a scene only its manifest. Flag errors (``_check_eval_flags``) and counts
    that differ are raised before any file is read.
    """
    _check_eval_flags(args)
    if args.mode == "matching":
        try:
            thresholds = check_thresholds(DEFAULT_THRESHOLDS_PX if args.thresholds is None
                                          else args.thresholds.split(","))
        except ValueError as exc:
            raise ValueError(f"--thresholds: {exc}") from None
        pred = MatchPrediction.from_csv(args.pred_csv)
        gt = load_gt_projection(args.gt_dir)
        report = matching_success_ratio(pred, gt, thresholds)
    else:
        if len(args.pred_pose) != len(args.scene_dir):
            raise ValueError(f"{len(args.pred_pose)} --pred-pose files for "
                             f"{len(args.scene_dir)} --scene-dir directories")
        poses = [decode_json(path, read_json(path), Pose3DoF.from_json_dict)
                 for path in args.pred_pose]
        truths = map(read_scene_manifest, args.scene_dir)
        report = localization_stats([pose_error(pose, t["gt_pose"], t["specs"].aerial)
                                     for pose, t in zip(poses, truths)])
    report["mode"] = args.mode
    _dump_json(report, args.out)
    return EXIT_OK


def cmd_loss(args) -> int:
    config = PipelineConfig(surface_threshold=args.threshold, tau=args.tau)
    cfg = decode_json(args.config, read_json(args.config), LossConfig.from_json_dict) \
        if args.config else LossConfig()
    pred = decode_json(args.pred_pose, read_json(args.pred_pose), Pose3DoF.from_json_dict)
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
    p.add_argument("--n", type=int, help="grid points per side (odd)")
    p.add_argument("--noise", type=float, default=0.0, help="feature noise sigma")
    p.add_argument("--channels", type=int, default=FEATURE_CHANNELS)
    p.add_argument("--continuous-pose", action="store_true",
                   help="draw a continuous pose instead of a grid-snapped one")
    p.add_argument("--spec-json", help="scene spec JSON (not with --n)")
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
    p.add_argument("--mode", choices=("localization", "matching"), required=True)
    p.add_argument("--pred-csv", help="match prediction CSV (matching mode)")
    p.add_argument("--gt-dir", help="ground-truth projection directory (matching mode)")
    p.add_argument("--thresholds", help="comma-separated pixel thresholds (matching mode)")
    p.add_argument("--scene-dir", action="append",
                   help="scene directory (localization mode; repeat, paired with --pred-pose)")
    p.add_argument("--pred-pose", action="append",
                   help="pose JSON from solve --out (localization mode; repeat, in order)")
    p.add_argument("--out")
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
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
