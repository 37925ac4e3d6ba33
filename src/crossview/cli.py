"""Command-line surface: scene generation, pose solving, evaluation, losses.

Exit codes: 0 success, 2 input error, 3 degenerate solution. All randomness
flows from explicit --seed flags; set CROSSVIEW_LOG=DEBUG|INFO|WARNING|ERROR|CRITICAL
(any case) for verbosity; an unknown level is an input error naming CROSSVIEW_LOG,
raised before the command runs. Reports go to stdout or --out. ``loss`` reads
its JSON inputs before the scene. ``eval`` takes its mode as a subcommand,
``eval matching`` or ``eval localization``. The parser owns every flag rule: a flag
of another command or mode, a missing required one, two flags of one exclusive group
(``generate --n``/``--spec-json``, ``solve --scene-dir``/``--tensors``), a wrong value
count and a bad ``--thresholds`` exit 2 before any file is read.
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
from .surface import BevFeatureMap, check_inputs
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
    n = BevGridSpec.n_points_per_side if args.n is None else args.n
    specs = decode_json(args.spec_json, read_json(args.spec_json), SceneSpec.from_json_dict) \
        if args.spec_json else SceneSpec(grid=BevGridSpec(n))
    bundle = make_scene_bundle(specs, seed=args.seed, noise_sigma=args.noise,
                               channels=args.channels, snapped=not args.continuous_pose)
    save_scene_dir(args.out_dir, bundle)
    log.info("wrote scene (seed=%d, noise=%g) to %s", args.seed, args.noise, args.out_dir)
    return EXIT_OK


def _load_solve_inputs(args):
    """The inputs of ``--scene-dir``, or of ``--tensors VOLUME CONF_LOGITS F_SAT SPEC_JSON``:
    the spec is read first, then ``check_inputs`` checks each tensor as it is read, naming
    its file (f_sat against the volume's c)."""
    if args.scene_dir:
        bundle = load_scene_dir(args.scene_dir)
        return bundle.inputs.volume, bundle.inputs.conf_logits, bundle.inputs.f_sat, bundle.specs
    volume_path, conf_logits_path, f_sat_path, spec_path = args.tensors
    specs = decode_json(spec_path, read_json(spec_path), SceneSpec.from_json_dict)
    volume = load_tensor(volume_path).astype(float)
    check_inputs(specs, volume, None, None, where=f"{volume_path}: ")
    conf_logits = load_tensor(conf_logits_path)
    check_inputs(specs, None, conf_logits, None, where=f"{conf_logits_path}: ")
    f_sat = load_tensor(f_sat_path)
    check_inputs(specs, volume, None, f_sat, where=f"{f_sat_path}: ")
    return volume, conf_logits, BevFeatureMap(f_sat), specs


def cmd_solve(args) -> int:
    """Without ``--refiner-params`` the solve skips the refinement and uses zero dustbins; the
    CLI then logs a warning after the solve, where the library logs nothing."""
    config = PipelineConfig(
        top_k=args.topk,
        known_yaw_rad=math.radians(args.known_yaw) if args.known_yaw is not None else None,
    )
    volume, conf_logits, f_sat, specs = _load_solve_inputs(args)
    params = RefinerParams.load(args.refiner_params) if args.refiner_params else None
    result = run_localization(volume, conf_logits, f_sat, specs, params, config)
    if params is None:
        log.warning("no refiner parameters given: skipping refinement (identity)")
    _dump_json({**result.pose_px.to_json_dict(), "num_matches": result.num_matches,
                "degenerate_flag": result.degenerate}, args.out)
    return EXIT_DEGENERATE if result.degenerate else EXIT_OK


def _thresholds(value: str) -> list:
    """The ``--thresholds`` type: a comma-separated list that ``check_thresholds`` accepts."""
    try:
        return check_thresholds(value.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def cmd_eval_matching(args) -> int:
    report = matching_success_ratio(MatchPrediction.from_csv(args.pred_csv),
                                    load_gt_projection(args.gt_dir), args.thresholds)
    _dump_json({**report, "mode": args.mode}, args.out)
    return EXIT_OK


def cmd_eval_localization(args) -> int:
    """Each ``--pair`` pose is scored in meters at its own scene's GSD. Every pose is read
    before any scene, and of a scene only its manifest."""
    poses = [decode_json(path, read_json(path), Pose3DoF.from_json_dict)
             for _, path in args.pair]
    truths = (read_scene_manifest(scene_dir) for scene_dir, _ in args.pair)
    report = localization_stats([pose_error(pose, t["gt_pose"], t["specs"].aerial)
                                 for pose, t in zip(poses, truths)])
    _dump_json({**report, "mode": args.mode}, args.out)
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
    # --n keeps no default: the group counts a flag as given only if it differs from its default
    grid = p.add_mutually_exclusive_group()
    grid.add_argument("--n", type=int, help="grid points per side (odd)")
    grid.add_argument("--spec-json", help="scene spec JSON")
    p.add_argument("--noise", type=float, default=0.0, help="feature noise sigma")
    p.add_argument("--channels", type=int, default=FEATURE_CHANNELS)
    p.add_argument("--continuous-pose", action="store_true",
                   help="draw a continuous pose instead of a grid-snapped one")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("solve", help="recover the pose from scene tensors")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--scene-dir", help="scene directory")
    source.add_argument("--tensors", nargs=4,
                        metavar=("VOLUME", "CONF_LOGITS", "F_SAT", "SPEC_JSON"),
                        help="tensor files and a scene spec JSON, in place of a scene directory")
    p.add_argument("--refiner-params", help="directory of refiner parameter tensors")
    p.add_argument("--topk", type=int, default=PipelineConfig.top_k)
    p.add_argument("--known-yaw", type=float, default=None,
                   help="fix the yaw (degrees) and solve translation only")
    p.add_argument("--out")
    p.set_defaults(func=cmd_solve)

    modes = sub.add_parser("eval", help="score predictions against ground truth") \
        .add_subparsers(dest="mode", required=True)
    p = modes.add_parser("matching", help="match prediction CSV against a ground-truth projection")
    p.add_argument("--pred-csv", required=True, help="match prediction CSV")
    p.add_argument("--gt-dir", required=True, help="ground-truth projection directory")
    p.add_argument("--thresholds", type=_thresholds, default=DEFAULT_THRESHOLDS_PX,
                   help="comma-separated pixel thresholds")
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval_matching)
    p = modes.add_parser("localization", help="solved poses against the scenes' true poses")
    p.add_argument("--pair", nargs=2, action="append", required=True,
                   metavar=("SCENE_DIR", "POSE_JSON"),
                   help="a scene directory and a pose JSON from solve --out (repeat)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval_localization)

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
