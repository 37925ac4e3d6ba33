"""Localization and matching metrics plus the ground-truth projection protocol.

Ground panorama pixels are back-projected along their rays using a depth
map, transformed by the true pose into aerial pixels, and filtered by a
range threshold: the surviving pixels define the valid region against
which predicted matches are scored.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

import numpy as np

from .geometry import AerialMeta, CameraIntrinsics, Pose3DoF, metric_to_aerial_px, panorama_pixel_ray
from .tensorio import load_tensors, read_csv, read_manifest, save_tensor_dir

PRED_CSV_FIELDS = ("xg", "yg", "xs", "ys")
DEFAULT_THRESHOLDS_PX = (5.0, 10.0, 15.0)
DEFAULT_MAX_RANGE_M = 30.0
_PROJECTION_ROWS = 64      # panorama rows build_gt_projection projects at a time
_GT_FORMAT = "gt-projection-v1"


@dataclass
class MatchPrediction:
    """Predicted pixel correspondences (ground panorama -> aerial image), paired and finite."""

    grd_px: np.ndarray  # (K, 2) as (x, y)
    sat_px: np.ndarray  # (K, 2)

    def __post_init__(self):
        self.grd_px = np.asarray(self.grd_px, dtype=float).reshape(-1, 2)
        self.sat_px = np.asarray(self.sat_px, dtype=float).reshape(-1, 2)
        if self.grd_px.shape != self.sat_px.shape:
            raise ValueError("prediction arrays disagree in length")
        if not (np.isfinite(self.grd_px).all() and np.isfinite(self.sat_px).all()):
            raise ValueError("prediction pixel coordinates must be finite")

    def __len__(self) -> int:
        return self.grd_px.shape[0]

    @classmethod
    def from_csv(cls, path) -> "MatchPrediction":
        rows = read_csv(path, PRED_CSV_FIELDS, "prediction")
        return cls(rows[:, 0:2], rows[:, 2:4])


@dataclass
class GroundTruthProjection:
    """Per ground-pixel aerial target and the valid-region mask.

    ``sat_xy`` is (H, W, 2) with NaN outside the valid region; on disk the
    targets are 0 there and the mask is stored as 1/0.
    """

    sat_xy: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        self.sat_xy = np.asarray(self.sat_xy, dtype=float)
        self.valid = np.asarray(self.valid, dtype=bool)
        if self.sat_xy.ndim != 3 or self.sat_xy.shape[2] != 2 \
                or self.valid.shape != self.sat_xy.shape[:2]:
            raise ValueError("projection map and mask shapes disagree")

    def save(self, directory) -> None:
        sat = np.where(self.valid[..., None], self.sat_xy, 0.0)
        save_tensor_dir(directory, _GT_FORMAT, {"gt_sat_x": sat[..., 0], "gt_sat_y": sat[..., 1],
                                                "gt_valid": self.valid.astype(np.float32)})

    @classmethod
    def load(cls, directory) -> "GroundTruthProjection":
        """Read a directory written by :meth:`save`.

        A ``gt_valid`` entry other than 0 or 1, or target tensors whose shape
        differs from the 2-D ``gt_valid``, is a ``ValueError`` naming the
        directory and the tensor.
        """
        tensors = load_tensors(directory, read_manifest(directory, _GT_FORMAT),
                               ("gt_valid", "gt_sat_x", "gt_sat_y"))
        flag = tensors["gt_valid"]
        if flag.ndim != 2:
            raise ValueError(f"{directory}: gt_valid has shape {flag.shape}, expected (H, W)")
        for name in ("gt_sat_x", "gt_sat_y"):
            if tensors[name].shape != flag.shape:
                raise ValueError(f"{directory}: {name} has shape {tensors[name].shape}, "
                                 f"gt_valid {flag.shape}")
        if not np.isin(flag, (0.0, 1.0)).all():
            raise ValueError(f"{directory}: gt_valid holds a value other than 0 or 1")
        valid = flag == 1.0
        sat = np.stack([tensors["gt_sat_x"], tensors["gt_sat_y"]], axis=-1)
        return cls(np.where(valid[..., None], sat, np.nan), valid)


def build_gt_projection(depth_grd: np.ndarray, intr: CameraIntrinsics, gt: Pose3DoF,
                        meta: AerialMeta) -> GroundTruthProjection:
    """Project every panorama pixel into the aerial image via its depth.

    ``depth_grd`` holds the range along each pixel ray in meters (NaN or
    non-positive = missing). A pixel is valid when that range is at most
    ``DEFAULT_MAX_RANGE_M`` (30 m) and the projection lands inside the
    image, i.e. within [0, size - 1] on both axes; invalid pixels read NaN.
    The result is filled ``_PROJECTION_ROWS`` panorama rows at a time, so at
    512 x 1024 the call peaks at 12.7 MB, its 8.9 MB result included
    (``tests/test_evaluation.py`` pins it). That keeps the score path below
    glibc's dynamic trim threshold, twice the 22.6 MB similarity matrix at
    n=41, so its heap is not handed back to the OS on every call.
    """
    depth = np.asarray(depth_grd, dtype=float)
    h, w = intr.panorama_height, intr.panorama_width
    if depth.shape != (h, w):
        raise ValueError(f"depth map shape {depth.shape} disagrees with intrinsics ({h}, {w})")

    sat_xy = np.empty((h, w, 2))
    valid = np.empty((h, w), dtype=bool)
    u, v = np.arange(w), np.arange(h)[:, None]
    # a block of rows at a time, so the temporaries next to the result stay
    # (rows, W) planes. Azimuth depends on u alone and elevation on v alone,
    # so the rays of a (W,) column range against a (rows, 1) row range
    # broadcast to (rows, W); the fresh ray planes then hold the metric
    # points depth * (dx, dy)
    for top in range(0, h, _PROJECTION_ROWS):
        rows = slice(top, top + _PROJECTION_ROWS)
        d = depth[rows]
        dx, dy, _ = panorama_pixel_ray(intr, u, v[rows])
        with np.errstate(invalid="ignore"):
            ok = np.isfinite(d) & (d > 0) & (d <= DEFAULT_MAX_RANGE_M)
            dx *= d
            dy *= d
            xs, ys = metric_to_aerial_px(meta, gt, dx, dy)
            ok &= meta.contains(xs) & meta.contains(ys)
        valid[rows] = ok
        invalid = ~ok
        np.copyto(xs, np.nan, where=invalid)
        np.copyto(ys, np.nan, where=invalid)
        np.stack([xs, ys], axis=-1, out=sat_xy[rows])
    return GroundTruthProjection(sat_xy, valid)


def matching_success_ratio(pred: MatchPrediction, gt: GroundTruthProjection,
                           thresholds_px=DEFAULT_THRESHOLDS_PX) -> dict:
    """Per-threshold success ratios plus the valid-prediction ratio.

    Every predicted pair counts in the denominator; a pair is correct at a
    threshold only when its ground pixel lies in the valid region and the
    predicted aerial point falls within the threshold of the true target. The
    thresholds must be finite and positive.
    """
    if len(pred) == 0:
        raise ValueError("empty prediction set")
    thresholds = [float(t) for t in thresholds_px]
    if not all(math.isfinite(t) and t > 0 for t in thresholds):
        raise ValueError("thresholds must be finite and positive")

    h, w = gt.valid.shape
    # in_pano is decided on the rounded floats: casting a huge pixel to int is platform-defined
    u = np.rint(pred.grd_px[:, 0])
    v = np.rint(pred.grd_px[:, 1])
    in_pano = (u >= 0) & (u < w) & (v >= 0) & (v < h)
    uc = np.clip(u, 0, w - 1).astype(int)
    vc = np.clip(v, 0, h - 1).astype(int)
    valid = in_pano & gt.valid[vc, uc]

    target = gt.sat_xy[vc, uc]
    with np.errstate(invalid="ignore"):
        dist = np.hypot(pred.sat_px[:, 0] - target[:, 0], pred.sat_px[:, 1] - target[:, 1])
    total = len(pred)
    ratios = [float(np.count_nonzero(valid & (dist <= t)) / total) for t in thresholds]
    return {
        "thresholds_px": thresholds,
        "ratios": ratios,
        "valid_ratio": float(np.count_nonzero(valid) / total),
        "num_matches": total,
    }


def localization_stats(errors) -> dict:
    """Mean and median of (translation m, orientation deg) error pairs.

    The median of an even-length list is the lower-middle element,
    computed per component.
    """
    errors = list(errors)
    if not errors:
        raise ValueError("no localization errors given")
    trans = [float(e[0]) for e in errors]
    orient = [float(e[1]) for e in errors]
    return {
        "mean_translation_m": float(np.mean(trans)),
        "median_translation_m": statistics.median_low(trans),
        "mean_orientation_deg": float(np.mean(orient)),
        "median_orientation_deg": statistics.median_low(orient),
        "count": len(errors),
    }
