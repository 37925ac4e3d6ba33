"""Acceptance gate: one test per release criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import json
import math
import time

import numpy as np

from crossview.geometry import BevGridSpec, Pose3DoF, SceneSpec, rotation_matrix, wrap_angle
from crossview.losses import LossConfig, height_loss, matching_loss, vce_loss
from crossview.pipeline import run_localization
from crossview.refiner import (RefinerParams, SimilarityMatrix,
                               global_residual, local_residual,
                               normalize_doubly_stochastic, refine)
from crossview.solver import (CorrespondenceSet, pose_error,
                              solve_weighted_procrustes)
from crossview.surface import BevFeatureMap, normalize_confidence, surface_from_accumulation
from crossview.synthetic import make_scene_bundle

from conftest import col_softmax, factored, identity_pose, python_subprocess, row_softmax
from test_refiner import conv3d_naive

CELL_M = 71.0 / 40.0  # default grid spacing


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_procrustes_oracle():
    rng = np.random.default_rng(20260809)
    max_trans = 0.0
    max_yaw = 0.0
    start = time.perf_counter()
    for _ in range(10_000):
        n = int(rng.integers(5, 201))
        g = rng.uniform(-50, 50, (n, 2))
        yaw = float(rng.uniform(-math.pi, math.pi))
        t = rng.uniform(-60, 60, 2)
        a = g @ rotation_matrix(yaw).T + t
        w = rng.uniform(0.05, 4.0, n)
        pose, degenerate = solve_weighted_procrustes(CorrespondenceSet(g, a, w))
        assert not degenerate
        max_trans = max(max_trans, float(np.linalg.norm(pose.t_px - t)))
        err = abs(pose.yaw_rad - yaw)
        max_yaw = max(max_yaw, min(err, 2 * math.pi - err))
    elapsed = time.perf_counter() - start
    ok = max_trans < 1e-8 and max_yaw < 1e-8 and elapsed < 5.0
    report("procrustes-oracle", ok,
           f"10^4 sets, max trans {max_trans:.2e} m, max yaw {max_yaw:.2e} rad, "
           f"{elapsed:.1f}s")


def test_end_to_end_synthetic_localization():
    specs = SceneSpec()
    start = time.perf_counter()

    worst_trans = 0.0
    worst_yaw = 0.0
    for seed in range(100):
        bundle = make_scene_bundle(specs, seed=seed, noise_sigma=0.0)
        res = run_localization(bundle.inputs.volume, bundle.inputs.conf_logits,
                               bundle.inputs.f_sat, specs)
        trans_m, orient_deg = pose_error(res.pose_px, bundle.scene.gt_pose,
                                         specs.aerial)
        worst_trans = max(worst_trans, trans_m)
        worst_yaw = max(worst_yaw, math.radians(orient_deg))

    noisy_errs = []
    for seed in range(100):
        bundle = make_scene_bundle(specs, seed=seed, noise_sigma=0.1)
        res = run_localization(bundle.inputs.volume, bundle.inputs.conf_logits,
                               bundle.inputs.f_sat, specs)
        noisy_errs.append(pose_error(res.pose_px, bundle.scene.gt_pose,
                                     specs.aerial)[0])
    median_noisy = float(np.median(noisy_errs))
    elapsed = time.perf_counter() - start

    ok = (worst_trans < 1e-6 and worst_yaw < 1e-8
          and median_noisy < CELL_M and elapsed < 60.0)
    report("end-to-end-synthetic", ok,
           f"noise-free worst {worst_trans:.2e} m / {worst_yaw:.2e} rad, "
           f"sigma=0.1 median {median_noisy:.3g} m (< {CELL_M:.3f}), {elapsed:.1f}s")


def scan_oracle_batch(conf: np.ndarray, threshold: float) -> np.ndarray:
    """Bottom-up latch scan over (M, K) columns, independent of the cumsum path."""
    m, k = conf.shape
    idx = np.full(k, m - 1, dtype=np.int64)
    found = np.zeros(k, dtype=bool)
    running = np.zeros(k)
    for layer in range(m):
        running = running + conf[layer]
        cross = ~found & (running > threshold)
        idx[cross] = layer
        found |= cross
    return idx


def test_surface_accumulation_matches_oracle():
    from crossview.geometry import HeightLayerSpec
    layers = HeightLayerSpec()
    rng = np.random.default_rng(17)
    total = 100_000
    raw = rng.normal(0, 3, (11, 500, total // 500))
    conf = normalize_confidence(raw)
    flat = conf.reshape(11, -1)
    disagreements = 0
    for threshold in [round(0.1 * i, 1) for i in range(1, 10)]:
        surf = surface_from_accumulation(conf, threshold, layers)
        oracle = scan_oracle_batch(flat, threshold)
        disagreements += int(np.count_nonzero(surf.reshape(-1) != oracle))
    # spot-check a slice with a pure-python per-column scan as well
    for threshold in (0.1, 0.5, 0.9):
        surf = surface_from_accumulation(conf, threshold, layers)
        for col in range(0, 2000):
            column = flat[:, col]
            running, expected = 0.0, 10
            for i, c in enumerate(column):
                running += c
                if running > threshold:
                    expected = i
                    break
            if surf.reshape(-1)[col] != expected:
                disagreements += 1
    ok = disagreements == 0
    report("surface-accumulation-oracle", ok,
           f"10^5 columns x 9 thresholds, {disagreements} disagreements")


def test_normalization_properties():
    rng = np.random.default_rng(99)
    sizes = list(rng.integers(2, 1683, size=98)) + [2, 1682]
    worst_row = 0.0
    worst_col = 0.0
    bounds_ok = True
    for size in sizes:
        m = rng.normal(0, 3.0, (int(size), int(size)))
        worst_row = max(worst_row, float(np.abs(row_softmax(m).sum(axis=1) - 1).max()))
        worst_col = max(worst_col, float(np.abs(col_softmax(m).sum(axis=0) - 1).max()))
        p = normalize_doubly_stochastic(m)
        bounds_ok &= bool(p.min() > 0.0 and p.max() < 1.0)
    ok = worst_row <= 1e-6 and worst_col <= 1e-6 and bounds_ok
    report("normalization-properties", ok,
           f"100 matrices up to 1682, row dev {worst_row:.1e}, "
           f"col dev {worst_col:.1e}, open-interval {bounds_ok}")


def test_refiner_branch_oracles():
    n = 8
    n2 = n * n
    rng = np.random.default_rng(5)
    worst_local = 0.0
    worst_global = 0.0
    for instance in range(8):
        params = RefinerParams.random(n2, seed=100 + instance)
        s = factored(rng.normal(0, 2, (n2, n2)))

        got = local_residual(s, params)
        x = s.s.reshape(n, n, n2)[None]
        for i, (k, b) in enumerate(zip(params.conv_kernels, params.conv_biases)):
            x = conv3d_naive(x, k.astype(float), b.astype(float))
            if i < len(params.conv_kernels) - 1:
                x = np.maximum(x, 0.0)
        worst_local = max(worst_local, float(np.abs(got - x[0].reshape(n2, n2)).max()))

        got_g = global_residual(s, params)
        w1, w2 = (w.astype(float) for w in params.global_weights)
        b1, b2 = (b.astype(float) for b in params.global_biases)
        oracle_g = np.stack([np.maximum(row @ w1 + b1, 0.0) @ w2 + b2
                             for row in s.s])
        worst_global = max(worst_global, float(np.abs(got_g - oracle_g).max()))

    # gate closed: a -100 bias on a zero-weight gate stack forces alpha ~ 0
    params = RefinerParams.random(n2, seed=321)
    closed = RefinerParams(
        conv_kernels=params.conv_kernels, conv_biases=params.conv_biases,
        global_weights=params.global_weights, global_biases=params.global_biases,
        gate_weights=tuple(np.zeros_like(w) for w in params.gate_weights),
        gate_biases=(np.zeros_like(params.gate_biases[0]),
                     np.full_like(params.gate_biases[1], -100.0)),
        dustbin_row=params.dustbin_row, dustbin_col=params.dustbin_col,
        dustbin_theta=params.dustbin_theta)
    s = factored(rng.normal(0, 2, (n2, n2)))
    identity_exact = np.array_equal(refine(s, closed).s, s.s)

    ok = worst_local < 1e-5 and worst_global < 1e-5 and identity_exact
    report("refiner-branch-oracles", ok,
           f"N=8: local dev {worst_local:.1e}, global dev {worst_global:.1e}, "
           f"gate-closed identity {identity_exact}")


def test_loss_closed_forms():
    cfg = LossConfig(rng_seed=7)
    rng = np.random.default_rng(8)
    worst_vce = 0.0
    for _ in range(20):
        yaw = float(rng.uniform(-math.pi, math.pi))
        t_gt = rng.uniform(-10, 10, 2)
        dt = rng.uniform(-10, 10, 2)
        pred = Pose3DoF(t_gt + dt, yaw)
        gt = Pose3DoF(t_gt, yaw)
        worst_vce = max(worst_vce, abs(vce_loss(pred, gt, cfg)
                                       - float(np.linalg.norm(dt))))

    specs = SceneSpec.from_json_dict(
        {"n": 5, "extent_m": 8.0, "m_layers": 11, "z_min": -10.0, "z_max": 10.0,
         "gsd": 0.12, "pano_w": 256, "pano_h": 128})
    n2 = 25
    mcfg = LossConfig(n_s=n2, rng_seed=0)
    uniform = matching_loss(SimilarityMatrix(np.zeros((n2, n2))),
                            identity_pose(specs), specs, mcfg)
    matching_dev = abs(uniform - math.log(n2))

    a = np.full((5, 5), 2)
    b = np.full((5, 5), 5)
    height = height_loss(a, b, identity_pose(specs), specs, mcfg)
    height_exact = height == 3.0 / mcfg.k_norm

    ok = worst_vce < 1e-12 and matching_dev <= 1e-9 and height_exact
    report("loss-closed-forms", ok,
           f"vce dev {worst_vce:.1e}, uniform matching dev {matching_dev:.1e}, "
           f"height offset/K exact {height_exact}")


def test_metric_fixtures():
    from crossview.evaluation import (MatchPrediction, localization_stats,
                                      matching_success_ratio)
    h, w = 32, 64
    valid = np.zeros((h, w), dtype=bool)
    valid[:, :32] = True
    sat = np.zeros((h, w, 2))
    vv, uu = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    sat[..., 0] = 100.0 + uu
    sat[..., 1] = 50.0 + vv
    sat[~valid] = np.nan

    grd = [[u, 5.0] for u in range(12)] + [[40.0 + u % 20, 5.0] for u in range(18)]
    grd = np.array(grd)
    pred_sat = np.stack([100.0 + grd[:, 0] + 3.0, np.full(30, 55.0)], axis=1)
    rep = matching_success_ratio(MatchPrediction(grd, pred_sat), sat, (5.0, 10.0))
    ratios_ok = rep["ratios"][0] == 0.4 and rep["valid_ratio"] == 0.4

    stats = localization_stats([(1.0, 10.0), (3.0, 30.0)])
    stats_ok = (stats["mean_translation_m"] == 2.0
                and stats["median_translation_m"] == 1.0
                and stats["mean_orientation_deg"] == 20.0
                and stats["median_orientation_deg"] == 10.0)
    ok = ratios_ok and stats_ok
    report("metric-fixtures", ok,
           f"planted 12/30 -> {rep['ratios'][0]:.3f}@5px valid {rep['valid_ratio']:.3f}, "
           f"stats fixtures {stats_ok}")


def _solve(bundle, volume=None, f_sat=None):
    """The un-refined solve of ``bundle``, with ``volume`` or ``f_sat`` swapped in when given."""
    inputs = bundle.inputs
    return run_localization(inputs.volume if volume is None else volume, inputs.conf_logits,
                            BevFeatureMap(inputs.f_sat.data if f_sat is None else f_sat),
                            bundle.specs)


def _oracle_bundles(cases):
    """One scene bundle per (n, seed, snapped, sigma) case."""
    for n, seed, snapped, sigma in cases:
        yield make_scene_bundle(SceneSpec(grid=BevGridSpec(n)), seed=seed, noise_sigma=sigma,
                                snapped=snapped)


def test_quarter_turn_oracle():
    """Rotating the aerial feature map by k quarter turns rotates the un-refined solve.

    Solving with ``np.rot90(f_sat, k, axes=(0, 1))`` gives yaw + k pi/2 (wrapped)
    and translation R(k pi/2) (t - c) + c, with c = ``specs.grid_center_px``,
    within 1e-9 px and 1e-9 rad. It holds for wrong poses as well, so it checks
    the whole chain at every noise level: n=21 for k = 1, 2, 3 at sigma 0, 0.4
    and 1.0, snapped and continuous (two seeds each), plus one n=41 case.
    Exact ties between similarity entries could break the relation, since the
    rotated solve may break them the other way; random features have none.
    The refined path is out of scope: the local branch's (N, N, N^2) cube
    flattens aerial rows into one axis, so it is not quarter-turn equivariant.
    """
    cases = [(21, seed, snapped, sigma) for seed in (0, 1) for snapped in (True, False)
             for sigma in (0.0, 0.4, 1.0)] + [(41, 3, False, 0.4)]
    worst_px = worst_rad = 0.0
    solves = 0
    for bundle in _oracle_bundles(cases):
        base = _solve(bundle)
        c = bundle.specs.grid_center_px
        for k in (1, 2, 3):
            turned = _solve(bundle, f_sat=np.rot90(bundle.inputs.f_sat.data, k, axes=(0, 1)))
            angle = k * math.pi / 2
            expected_t = rotation_matrix(angle) @ (base.pose_px.t_px - c) + c
            worst_px = max(worst_px, float(np.abs(turned.pose_px.t_px - expected_t).max()))
            yaw_dev = wrap_angle(turned.pose_px.yaw_rad - (base.pose_px.yaw_rad + angle))
            worst_rad = max(worst_rad, abs(float(yaw_dev)))
            solves += 1
    ok = worst_px <= 1e-9 and worst_rad <= 1e-9
    report("quarter-turn-oracle", ok,
           f"{solves} turned solves, worst {worst_px:.1e} px, {worst_rad:.1e} rad")


# (n, seed, snapped, sigma) of the scale and permutation relations
_RELATION_CASES = [(21, seed, snapped, sigma) for seed in (0, 1) for snapped in (True, False)
                   for sigma in (0.0, 0.4)]


def test_feature_scale_oracle():
    """Scaling the volume by 2 and ``f_sat`` by 4 gives bit-identical poses: cosine
    normalization divides a power-of-two factor out exactly."""
    same = 0
    for bundle in _oracle_bundles(_RELATION_CASES):
        base = _solve(bundle)
        scaled = _solve(bundle, volume=2 * bundle.inputs.volume,
                        f_sat=4 * bundle.inputs.f_sat.data)
        same += (np.array_equal(scaled.pose_px.t_px, base.pose_px.t_px)
                 and scaled.pose_px.yaw_rad == base.pose_px.yaw_rad)
    total = len(_RELATION_CASES)
    report("feature-scale-oracle", same == total, f"bit-identical in {same}/{total}")


def test_channel_permutation_oracle():
    """Permuting the channels of the volume and ``f_sat`` the same way keeps the match
    cells and moves the pose by at most 1e-9 px (only summation order changes)."""
    same_cells = 0
    worst_px = worst_rad = 0.0
    for seed, bundle in enumerate(_oracle_bundles(_RELATION_CASES)):
        perm = np.random.default_rng(seed).permutation(bundle.inputs.f_sat.data.shape[-1])
        assert not np.array_equal(perm, np.sort(perm))
        base = _solve(bundle)
        permuted = _solve(bundle, volume=bundle.inputs.volume[..., perm],
                          f_sat=bundle.inputs.f_sat.data[..., perm])
        same_cells += (np.array_equal(permuted.matches_m.ground_xy, base.matches_m.ground_xy)
                       and np.array_equal(permuted.matches_m.aerial_xy, base.matches_m.aerial_xy))
        worst_px = max(worst_px, float(np.abs(permuted.pose_px.t_px - base.pose_px.t_px).max()))
        worst_rad = max(worst_rad, abs(float(wrap_angle(permuted.pose_px.yaw_rad
                                                         - base.pose_px.yaw_rad))))
    total = len(_RELATION_CASES)
    ok = same_cells == total and worst_px <= 1e-9 and worst_rad <= 1e-9
    report("channel-permutation-oracle", ok,
           f"same cells in {same_cells}/{total}, worst {worst_px:.1e} px, "
           f"{worst_rad:.1e} rad")


def _run(*args):
    return python_subprocess("-m", "crossview", *args)


def test_cli_determinism(tmp_path):
    details = []
    # generate
    for name in ("g1", "g2"):
        proc = _run("generate", "--seed", 12, "--n", 9, "--noise", 0.05,
                    "--out-dir", tmp_path / name)
        assert proc.returncode == 0, proc.stderr
    files1 = sorted((tmp_path / "g1").iterdir())
    same_gen = all((tmp_path / "g2" / f.name).read_bytes() == f.read_bytes()
                   for f in files1)
    details.append(f"generate {same_gen}")

    # solve
    s1 = _run("solve", "--scene-dir", tmp_path / "g1", "--topk", 20)
    s2 = _run("solve", "--scene-dir", tmp_path / "g1", "--topk", 20)
    same_solve = s1.stdout == s2.stdout and s1.returncode == s2.returncode == 0
    details.append(f"solve {same_solve}")

    # loss
    pose_path = tmp_path / "pose.json"
    pose_path.write_text(s1.stdout)
    l1 = _run("loss", "--scene-dir", tmp_path / "g1", "--pred-pose", pose_path)
    l2 = _run("loss", "--scene-dir", tmp_path / "g1", "--pred-pose", pose_path)
    same_loss = l1.stdout == l2.stdout and l1.returncode == l2.returncode == 0
    details.append(f"loss {same_loss}")

    # eval (localization mode over the solve of g1)
    eval_args = ("eval", "--mode", "localization", "--scene-dir", tmp_path / "g1",
                 "--pred-pose", pose_path)
    e1 = _run(*eval_args)
    e2 = _run(*eval_args)
    same_eval = e1.stdout == e2.stdout and e1.returncode == e2.returncode == 0
    details.append(f"eval {same_eval}")

    ok = same_gen and same_solve and same_loss and same_eval
    report("cli-determinism", ok, ", ".join(details))
