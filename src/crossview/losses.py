"""Training objectives: virtual-correspondence pose loss, symmetric InfoNCE
matching loss over the similarity matrix, and the height-consistency loss.

All sampling is driven by the seed in :class:`LossConfig`, so every loss is
bit-reproducible for a fixed configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .geometry import (Pose3DoF, SceneSpec, aerial_cell_to_ground_cell,
                       ground_cell_to_aerial_cell, grid_cells, rotation_matrix)
from .refiner import SimilarityMatrix
from .tensorio import check_integer, json_number


@dataclass(frozen=True)
class LossConfig:
    """Weights and scales finite and positive; the sample counts ``n_v`` and ``n_s`` integers
    >= 1 and ``rng_seed`` an integer >= 0, integers per ``check_integer``. ``k_norm`` divides
    the height gap, which is in layer indices."""
    beta1: float = 1.0
    beta2: float = 1.0
    n_v: int = 100
    l_v_m: float = 5.0
    n_s: int = 1024
    k_norm: float = 100.0
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("n_v", "n_s", "rng_seed"):
            check_integer(name, getattr(self, name))
        if not all(np.isfinite(v) and v > 0 for v in (self.beta1, self.beta2, self.l_v_m,
                                                      self.k_norm)):
            raise ValueError("loss weights and scales must be finite and positive")
        if self.n_v < 1 or self.n_s < 1:
            raise ValueError("sample counts must be positive")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be non-negative, got {self.rng_seed}")

    @classmethod
    def from_json_dict(cls, d: dict) -> "LossConfig":
        """A missing key takes the default and a key that names no field is a ``ValueError``;
        each value is decoded through ``json_number`` as an integer or a float, by its
        default's kind."""
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown loss config key(s): {', '.join(map(repr, unknown))}")
        return cls(**{f.name: json_number(d, f.name, integer=type(f.default) is int,
                                          default=f.default) for f in fields(cls)})


def vce_loss(pred: Pose3DoF, gt: Pose3DoF, cfg: LossConfig) -> float:
    """Mean displacement of random planar points under predicted vs true pose.

    Points are drawn uniformly from the centered l_v x l_v square; both
    poses must live in the same metric frame.
    """
    rng = np.random.default_rng(cfg.rng_seed)
    half = cfg.l_v_m / 2.0
    pts = rng.uniform(-half, half, size=(cfg.n_v, 2))
    moved_pred = pts @ rotation_matrix(pred.yaw_rad).T + pred.t_px
    moved_gt = pts @ rotation_matrix(gt.yaw_rad).T + gt.t_px
    diff = moved_pred - moved_gt
    return float(np.mean(np.hypot(diff[:, 0], diff[:, 1])))


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """Log-sum-exp of ``a`` along ``axis``; overwrites ``a`` with ``exp(a - max)``.

    Pass only an array the caller owns, such as a gathered copy.
    """
    m = a.max(axis=axis, keepdims=True)
    a -= m
    np.exp(a, out=a)
    return (m + np.log(a.sum(axis=axis, keepdims=True))).squeeze(axis)


def _flat(cells: np.ndarray, n: int) -> np.ndarray:
    return cells[:, 0] * n + cells[:, 1]


def _sample_pairs(specs: SceneSpec, gt: Pose3DoF, n_s: int,
                  rng: np.random.Generator, reverse: bool):
    """Sampled (source flat idx, target flat idx) pairs valid under the pose.

    Out-of-grid projections are dropped before sampling; when fewer than
    ``n_s`` valid pairs exist all of them are used.
    """
    n = specs.grid.n_points_per_side
    grid = grid_cells(specs.grid).reshape(-1, 2)
    if reverse:
        tgt, valid = aerial_cell_to_ground_cell(specs, gt, grid)
    else:
        tgt, valid = ground_cell_to_aerial_cell(specs, gt, grid)
    src = grid[valid]
    tgt = tgt[valid]
    if len(src) == 0:
        raise ValueError("no valid patch pairs: grids are disjoint under the pose")
    if len(src) > n_s:
        pick = rng.choice(len(src), size=n_s, replace=False)
        src, tgt = src[pick], tgt[pick]
    return _flat(src, n), _flat(tgt, n)


def matching_loss(s_orig: SimilarityMatrix, gt: Pose3DoF, specs: SceneSpec,
                  cfg: LossConfig) -> float:
    """Average of the two symmetric InfoNCE directions over sampled patch pairs.

    Targets are the nearest-cell projections of each sampled patch under
    the true pose: row-wise cross-entropy for ground -> aerial, column-wise
    for aerial -> ground. Only the sampled rows and columns enter a
    log-sum-exp: they are gathered into one fresh copy, and the max-subtract
    and ``exp`` run in place on it, so the caller's matrix is never written.
    At n=41 with ``n_s=1024`` that copy (13.8 MB) is the one full-size array;
    ``tests/test_losses.py`` pins the peak.
    """
    n = specs.grid.n_points_per_side
    if s_orig.num_patches != n * n:
        raise ValueError("similarity matrix size disagrees with the grid spec")
    rng = np.random.default_rng(cfg.rng_seed)
    s = s_orig.s

    g_src, g_tgt = _sample_pairs(specs, gt, cfg.n_s, rng, reverse=False)
    # s[g_src] and s.take(...) gather fresh copies, which _logsumexp overwrites
    loss_g2s = float(np.mean(_logsumexp(s[g_src], axis=1) - s[g_src, g_tgt]))

    a_src, a_tgt = _sample_pairs(specs, gt, cfg.n_s, rng, reverse=True)
    # take() keeps the sampled columns C-ordered; s[:, a_src] is Fortran-ordered,
    # which numpy sums pairwise rather than row by row, one ulp off the full matrix
    lse_cols = _logsumexp(s.take(a_src, axis=1), axis=0)
    loss_s2g = float(np.mean(lse_cols - s[a_tgt, a_src]))

    return 0.5 * (loss_g2s + loss_s2g)


def height_loss(surf_grd: np.ndarray, surf_sat: np.ndarray, gt: Pose3DoF,
                specs: SceneSpec, cfg: LossConfig) -> float:
    """Mean normalized L1 gap between ground and aerial (N, N) surface layer indices.

    Pairs follow the same ground -> aerial sampling as the matching loss.
    Heights compare in layer-index units, scaled by 1/k_norm; the gap in
    meters is the one ``k_norm / specs.layers.spacing_m`` gives.
    """
    n = specs.grid.n_points_per_side
    if surf_grd.shape != (n, n) or surf_sat.shape != (n, n):
        raise ValueError("surface maps disagree with the grid spec")
    rng = np.random.default_rng(cfg.rng_seed)
    g_src, g_tgt = _sample_pairs(specs, gt, cfg.n_s, rng, reverse=False)
    a = surf_grd.reshape(-1)[g_src].astype(float)
    b = surf_sat.reshape(-1)[g_tgt].astype(float)
    return float(np.mean(np.abs(a - b)) / cfg.k_norm)


def total_loss(vce: float, matching: float, height: float, cfg: LossConfig) -> float:
    """``vce + beta1 * matching + beta2 * height``; a non-finite part is a ``ValueError``."""
    for part in (vce, matching, height):
        if not np.isfinite(part):
            raise ValueError("loss parts must be finite")
    return float(vce + cfg.beta1 * matching + cfg.beta2 * height)


def loss_report(vce: float, matching: float, height: float, cfg: LossConfig) -> dict:
    """JSON-ready record of the loss values and the seed that produced them."""
    return {
        "vce": vce,
        "matching": matching,
        "height": height,
        "total": total_loss(vce, matching, height, cfg),
        "seed": int(cfg.rng_seed),   # a numpy integer seed is not JSON
    }
