"""Closed-form weighted Procrustes recovery of planar 3-DoF poses.

The solver minimizes sum_i w_i ||R g_i + T - a_i||^2 over proper rotations
R and translations T. In 2D the optimal rotation angle comes straight from
the weighted cross-covariance (atan2 of its skew and trace parts), which
always yields det(R) = +1 without an SVD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import AerialMeta, Pose3DoF, rotation_matrix, wrap_angle

# below this cross-covariance Frobenius norm the rotation is unobservable
DEGENERACY_EPS = 1e-12


@dataclass(eq=False)
class CorrespondenceSet:
    """Weighted planar correspondences between ground and aerial points.

    Both sides live in caller-chosen planar frames (cells, pixels, or
    meters); the solver only requires that the two frames share a scale.
    A point array that is not (K, 2) for K weights, an empty set, a non-finite
    entry, a negative weight or no positive weight is a ``ValueError``.
    """

    ground_xy: np.ndarray  # (K, 2)
    aerial_xy: np.ndarray  # (K, 2)
    weights: np.ndarray    # (K,)

    def __post_init__(self):
        self.ground_xy = np.asarray(self.ground_xy, dtype=float)
        self.aerial_xy = np.asarray(self.aerial_xy, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float).reshape(-1)
        k = len(self.weights)
        if self.ground_xy.shape != (k, 2) or self.aerial_xy.shape != (k, 2):
            raise ValueError(f"correspondence points must be ({k}, 2) for {k} weights, got "
                             f"{self.ground_xy.shape} and {self.aerial_xy.shape}")
        if k == 0:
            raise ValueError("empty correspondence set")
        if not (np.all(np.isfinite(self.ground_xy)) and np.all(np.isfinite(self.aerial_xy))
                and np.all(np.isfinite(self.weights))):
            raise ValueError("correspondences must be finite")
        if np.any(self.weights < 0):
            raise ValueError("weights must be non-negative")
        if not np.any(self.weights > 0):
            raise ValueError("at least one weight must be strictly positive")

    def __len__(self) -> int:
        return len(self.weights)


def solve_weighted_procrustes(c: CorrespondenceSet) -> tuple[Pose3DoF, bool]:
    """Globally optimal weighted rigid alignment a ~ R g + T.

    Returns (pose, degenerate). When the weighted ground points (or pairs)
    carry no rotational information the solver falls back to a
    translation-only fit with yaw 0 and flags the result as degenerate.
    """
    w = c.weights
    wsum = w.sum()
    g_bar = (w[:, None] * c.ground_xy).sum(axis=0) / wsum
    a_bar = (w[:, None] * c.aerial_xy).sum(axis=0) / wsum
    gc = c.ground_xy - g_bar
    ac = c.aerial_xy - a_bar
    # H = sum_i w_i a'_i g'_i^T  (2x2 cross-covariance)
    h = (ac * w[:, None]).T @ gc
    if math.sqrt(float((h * h).sum())) < DEGENERACY_EPS:
        return solve_translation_only(c, 0.0), True
    trace = h[0, 0] + h[1, 1]
    skew = h[1, 0] - h[0, 1]
    yaw = math.atan2(skew, trace)
    t = a_bar - rotation_matrix(yaw) @ g_bar
    return Pose3DoF(t, yaw), False


def solve_translation_only(c: CorrespondenceSet, yaw_fixed: float) -> Pose3DoF:
    """Optimal translation for a known yaw: the weighted mean residual."""
    w = c.weights
    rotated = c.ground_xy @ rotation_matrix(yaw_fixed).T
    t = (w[:, None] * (c.aerial_xy - rotated)).sum(axis=0) / w.sum()
    return Pose3DoF(t, yaw_fixed)


def pose_error(pred: Pose3DoF, gt: Pose3DoF, meta: AerialMeta) -> tuple[float, float]:
    """(translation error in meters, orientation error in degrees, wrapped to [0, 180])."""
    dt = pred.t_px - gt.t_px
    trans_err_m = math.hypot(dt[0], dt[1]) * meta.gsd_m_per_px
    orient_err_deg = abs(math.degrees(float(wrap_angle(pred.yaw_rad - gt.yaw_rad))))
    return trans_err_m, orient_err_deg
