"""Localization and matching metrics plus the ground-truth projection protocol.

Ground panorama pixels are back-projected along their rays using a depth
map, transformed by the true pose into aerial pixels, and filtered by a
range threshold: the surviving pixels define the valid region against
which predicted matches are scored.
"""

from __future__ import annotations

import csv
import io
import math
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import AerialMeta, CameraIntrinsics, Pose3DoF, metric_to_aerial_px, panorama_pixel_ray
from .tensorio import load_tensors, read_manifest, save_tensor_dir

PRED_CSV_FIELDS = ("xg", "yg", "xs", "ys")
DEFAULT_THRESHOLDS_PX = (5.0, 10.0, 15.0)
DEFAULT_MAX_RANGE_M = 30.0
_PROJECTION_ROWS = 64      # panorama rows build_gt_projection projects at a time
_GT_FORMAT = "gt-projection-v2"


@dataclass
class MatchPrediction:
    """Predicted pixel correspondences (ground panorama -> aerial image), paired and finite:
    two (K, 2) arrays, else a ``ValueError``."""

    grd_px: np.ndarray  # (K, 2) as (x, y)
    sat_px: np.ndarray  # (K, 2)

    def __post_init__(self):
        self.grd_px = np.asarray(self.grd_px, dtype=float)
        self.sat_px = np.asarray(self.sat_px, dtype=float)
        shape = self.grd_px.shape
        if len(shape) != 2 or shape[1] != 2 or self.sat_px.shape != shape:
            raise ValueError(f"prediction arrays must be (K, 2) of one length, got {shape} "
                             f"and {self.sat_px.shape}")
        if not (np.isfinite(self.grd_px).all() and np.isfinite(self.sat_px).all()):
            raise ValueError("prediction pixel coordinates must be finite")

    def __len__(self) -> int:
        return self.grd_px.shape[0]

    @classmethod
    def from_csv(cls, path) -> "MatchPrediction":
        """Read a UTF-8 CSV whose header is exactly ``xg,yg,xs,ys``, four finite floats a row.

        A leading byte-order mark is dropped. Errors name the file and, for a byte that is
        not UTF-8 or a row that is not four finite floats, its line number; a file with no
        rows is an error too.
        """
        data = Path(path).read_bytes()
        try:   # decoded whole, so the codec's offsets are the file's, mark included
            text = data.decode("utf-8").removeprefix("\ufeff")
        except UnicodeDecodeError as exc:
            line_no = data.count(b"\n", 0, exc.start) + 1
            raise ValueError(f"{path}: not UTF-8 at line {line_no}: {exc}") from None
        reader = csv.reader(io.StringIO(text, newline=""))
        malformed = f"{path}: malformed row at line"
        rows = []
        try:   # a field past the csv module's size limit is a csv.Error, header included
            if next(reader, None) != list(PRED_CSV_FIELDS):
                raise ValueError(f"{path}: expected header {','.join(PRED_CSV_FIELDS)}")
            for fields in filter(None, reader):   # a blank line is an empty row
                try:
                    row = [float(v) for v in fields]
                except ValueError:
                    row = []
                if len(row) != len(PRED_CSV_FIELDS):
                    raise ValueError(f"{malformed} {reader.line_num}")
                if not np.isfinite(row).all():
                    raise ValueError(f"{path}: non-finite value at line {reader.line_num}")
                rows.append(row)
        except csv.Error:
            raise ValueError(f"{malformed} {reader.line_num}") from None
        if not rows:
            raise ValueError(f"{path}: no prediction rows")
        rows = np.array(rows)
        return cls(rows[:, 0:2], rows[:, 2:4])


def save_gt_projection(directory, gt_xy: np.ndarray) -> None:
    """Write a (H, W, 2) target map as the one float32 tensor ``gt_xy`` of a ``gt-projection-v2``
    directory; a pixel with a non-finite coordinate is outside the region and reads NaN, NaN."""
    outside = ~np.isfinite(gt_xy).all(axis=-1, keepdims=True)
    save_tensor_dir(directory, _GT_FORMAT, {"gt_xy": np.where(outside, np.nan, gt_xy)})


def _check_target_shape(gt_xy: np.ndarray, name: str) -> None:
    """The target map rule: shaped (H, W, 2) with H and W at least 1; errors start with ``name``."""
    if gt_xy.ndim != 3 or gt_xy.shape[2] != 2 or 0 in gt_xy.shape:
        raise ValueError(f"{name} has shape {gt_xy.shape}, expected (H, W, 2) with H, W >= 1")


def load_gt_projection(directory) -> np.ndarray:
    """The float64 (H, W, 2) target map of a directory written by :func:`save_gt_projection`,
    NaN outside the valid region.

    A tensor that ``_check_target_shape`` rejects, an infinite entry, or a pixel
    with exactly one NaN coordinate is a ``ValueError`` naming the directory.
    """
    gt_xy = load_tensors(directory, read_manifest(directory, _GT_FORMAT), ("gt_xy",))["gt_xy"]
    _check_target_shape(gt_xy, f"{directory}: gt_xy")
    if np.isinf(gt_xy).any():
        raise ValueError(f"{directory}: gt_xy holds an infinite entry")
    nan = np.isnan(gt_xy)
    if (nan[..., 0] != nan[..., 1]).any():
        raise ValueError(f"{directory}: gt_xy holds a pixel with exactly one NaN coordinate")
    return gt_xy.astype(float)


def build_gt_projection(depth_grd: np.ndarray, intr: CameraIntrinsics, gt: Pose3DoF,
                        meta: AerialMeta) -> np.ndarray:
    """The (H, W, 2) aerial target of every panorama pixel, projected via its depth.

    ``depth_grd`` holds the range along each pixel ray in meters (NaN or
    non-positive = missing). A pixel is valid when that range is at most
    ``DEFAULT_MAX_RANGE_M`` (30 m) and the projection lands inside the
    image, i.e. within [0, size - 1] on both axes; invalid pixels read NaN.
    The result is filled ``_PROJECTION_ROWS`` panorama rows at a time, so at
    512 x 1024 the call peaks at 12.2 MB, its 8.4 MB result included
    (``tests/test_evaluation.py`` pins it). That keeps the score path below
    glibc's dynamic trim threshold, twice the 22.6 MB similarity matrix at
    n=41, so its heap is not handed back to the OS on every call. A block
    with no valid depth, such as the sky rows of a panorama, is written as
    NaN and not projected.
    """
    depth = np.asarray(depth_grd, dtype=float)
    h, w = intr.panorama_height, intr.panorama_width
    if depth.shape != (h, w):
        raise ValueError(f"depth map shape {depth.shape} disagrees with intrinsics ({h}, {w})")

    sat_xy = np.empty((h, w, 2))
    u, v = np.arange(w), np.arange(h)[:, None]
    # a block of rows at a time, so the temporaries next to the result stay
    # (rows, W) planes. Azimuth depends on u alone and elevation on v alone,
    # so the rays of a (W,) column range against a (rows, 1) row range
    # broadcast to (rows, W); the fresh ray planes then hold the metric
    # points depth * (dx, dy)
    for top in range(0, h, _PROJECTION_ROWS):
        rows = slice(top, top + _PROJECTION_ROWS)
        d = depth[rows]
        with np.errstate(invalid="ignore"):
            ok = np.isfinite(d) & (d > 0) & (d <= DEFAULT_MAX_RANGE_M)
        if not ok.any():
            sat_xy[rows] = np.nan
            continue
        dx, dy, _ = panorama_pixel_ray(intr, u, v[rows])
        with np.errstate(invalid="ignore"):
            dx *= d
            dy *= d
            xs, ys = metric_to_aerial_px(meta, gt, dx, dy)
            ok &= meta.contains(xs) & meta.contains(ys)
        invalid = ~ok
        np.copyto(xs, np.nan, where=invalid)
        np.copyto(ys, np.nan, where=invalid)
        np.stack([xs, ys], axis=-1, out=sat_xy[rows])
    return sat_xy


def check_thresholds(thresholds_px) -> list:
    """The pixel thresholds as floats; elements may be strings, as ``--thresholds`` splits them.

    A string or bytes (read as one-character thresholds), a bare number, an empty sequence,
    a bool (read as 0 or 1 px) or a threshold that is not finite and positive is a
    ``ValueError``.
    """
    if isinstance(thresholds_px, (str, bytes, bytearray)) or not np.iterable(thresholds_px):
        raise ValueError(f"thresholds must be a sequence of numbers, not {thresholds_px!r}")
    thresholds_px = list(thresholds_px)
    if any(isinstance(t, (bool, np.bool_)) for t in thresholds_px):
        raise ValueError(f"thresholds must be numbers, not bools: {thresholds_px!r}")
    thresholds = [float(t) for t in thresholds_px]
    if not thresholds:
        raise ValueError("thresholds must not be empty")
    if not all(math.isfinite(t) and t > 0 for t in thresholds):
        raise ValueError("thresholds must be finite and positive")
    return thresholds


def matching_success_ratio(pred: MatchPrediction, gt_xy: np.ndarray,
                           thresholds_px=DEFAULT_THRESHOLDS_PX) -> dict:
    """Per-threshold success ratios plus the valid-prediction ratio.

    ``gt_xy`` is a target map (``build_gt_projection``) that ``_check_target_shape``
    accepts, else a ``ValueError``; its valid region is where the target is finite.
    Every predicted pair counts in the denominator; a pair is correct at a threshold
    only when its ground pixel lies in the valid region and the predicted aerial
    point falls within the threshold of the true target, per ``check_thresholds``.
    """
    if len(pred) == 0:
        raise ValueError("empty prediction set")
    thresholds = check_thresholds(thresholds_px)

    _check_target_shape(gt_xy, "target map")
    h, w = gt_xy.shape[:2]
    # in_pano is decided on the rounded floats: casting a huge pixel to int is platform-defined
    u = np.rint(pred.grd_px[:, 0])
    v = np.rint(pred.grd_px[:, 1])
    in_pano = (u >= 0) & (u < w) & (v >= 0) & (v < h)
    uc = np.clip(u, 0, w - 1).astype(int)
    vc = np.clip(v, 0, h - 1).astype(int)
    target = gt_xy[vc, uc]
    valid = in_pano & np.isfinite(target).all(axis=1)
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
