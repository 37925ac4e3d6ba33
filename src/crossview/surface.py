"""Visible-surface estimation from per-voxel confidences.

A column of height-wise confidences is accumulated bottom-up; the surface
is the first layer whose cumulative mass exceeds the threshold. Features
around the surface are then fused into a flat BEV map, and aerial depth
predictions are anchored and discretized into the same layer indexing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import HeightLayerSpec, SceneSpec
from .tensorio import check_integer


@dataclass
class FeatureVolume:
    """Volumetric BEV features of shape (M, N, N, C), float64 and finite."""

    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim != 4:
            raise ValueError(f"feature volume must be (M, N, N, C), got shape {self.data.shape}")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("feature volume contains non-finite entries")


@dataclass
class BevFeatureMap:
    """Flat N x N x c BEV feature grid, float64 and finite."""

    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim != 3:
            raise ValueError(f"BEV feature map must be (N, N, c), got shape {self.data.shape}")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("BEV feature map contains non-finite entries")


def check_input_shapes(specs: SceneSpec, volume, conf_logits, f_sat, depth_sat=None,
                       where: str = "") -> None:
    """Require volume (M, N, N, c), conf_logits (M, N, N), f_sat (N, N, c) and, if given,
    depth_sat (N, N) of ``specs``, with one c; an error message starts with ``where``."""
    m, n = specs.layers.num_layers, specs.grid.n_points_per_side
    c = np.shape(volume)[-1:]
    for name, array, want in (("volume", volume, (m, n, n, *c)),
                              ("conf_logits", conf_logits, (m, n, n)),
                              ("f_sat", f_sat, (n, n, *c)),
                              ("depth_sat", depth_sat, (n, n))):
        if array is not None and np.shape(array) != want:
            raise ValueError(f"{where}{name} must be {want} for the scene's specs, "
                             f"got {np.shape(array)}")


def normalize_confidence(raw: np.ndarray) -> np.ndarray:
    """Softmax raw scores along the height axis, per BEV cell; returns the (M, N, N) array.

    Raw logits that are not 3-D or not finite are a ``ValueError``. The softmax
    goes to ``surface_from_accumulation`` and ``fuse_height_features`` without a
    re-check.
    """
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 3:
        raise ValueError("raw confidence must be (M, N, N)")
    if not np.all(np.isfinite(raw)):
        raise ValueError("raw confidence contains non-finite entries")
    shifted = raw - raw.max(axis=0, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=0, keepdims=True)


def surface_from_accumulation(conf: np.ndarray, threshold: float,
                              layer_spec: HeightLayerSpec) -> np.ndarray:
    """First layer (bottom-up) whose cumulative confidence strictly exceeds the threshold.

    ``conf`` is the (M, N, N) output of ``normalize_confidence``. Returns the
    (N, N) int64 layer index, which ``HeightLayerSpec.height_of`` turns into
    meters. Cells that never cross (possible only through numerical loss,
    since the columns sum to 1) fall back to the top layer. A threshold
    outside (0, 1), or a layer count other than ``layer_spec``'s, is a
    ``ValueError``.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie strictly inside (0, 1)")
    m = conf.shape[0]
    if m != layer_spec.num_layers:
        raise ValueError(f"confidence volume has {m} layers, layer spec has {layer_spec.num_layers}")
    cum = np.cumsum(conf, axis=0)
    above = cum > threshold
    index = np.argmax(above, axis=0)
    never = ~above.any(axis=0)
    if never.any():
        index = np.where(never, m - 1, index)
    return index.astype(np.int64, copy=False)


def _check_window(key: str, window) -> None:
    """The fusion window rule: an integer (``check_integer``) >= 0; errors name ``key``."""
    check_integer(key, window)
    if window < 0:
        raise ValueError(f"{key} must be >= 0")


def fuse_height_features(vol: FeatureVolume, conf: np.ndarray, surf: np.ndarray,
                         window: int | None = None) -> BevFeatureMap:
    """Confidence-weighted fusion of features across height layers.

    Layers within ``window`` of the (N, N) surface index contribute, weighted by
    their confidence renormalized over the window; ``window=None`` uses all
    layers and ``window=0`` reduces to direct surface indexing. A window
    with zero total confidence falls back to uniform weights. The channel
    count is unchanged. Shapes that disagree, or a window that ``_check_window``
    rejects, are a ``ValueError``.
    """
    m, n = vol.data.shape[0], vol.data.shape[1]
    if conf.shape != (m, n, n) or surf.shape != (n, n):
        raise ValueError("volume, confidence, and surface shapes disagree")
    window = m if window is None else window   # no layer is m or more from the surface
    _check_window("window", window)

    layer_idx = np.arange(m)[:, None, None]
    mask = (np.abs(layer_idx - surf[None, :, :]) <= window).astype(float)
    weights = conf * mask
    totals = weights.sum(axis=0, keepdims=True)
    uniform = mask / mask.sum(axis=0, keepdims=True)
    weights = np.where(totals > 0, weights / np.where(totals > 0, totals, 1.0), uniform)
    return BevFeatureMap(np.einsum("mij,mijc->ijc", weights, vol.data))


def check_depth_rule(ground_anchor_m: float, scale: float) -> None:
    """Reject a non-finite ``depth_anchor_m`` or a non-finite, non-positive ``depth_scale``."""
    if not math.isfinite(ground_anchor_m):
        raise ValueError(f"depth_anchor_m must be finite, got {ground_anchor_m}")
    if not 0 < scale < math.inf:   # also catches NaN
        raise ValueError(f"depth_scale must be finite and positive, got {scale}")


def aerial_depth_to_height_index(depth: np.ndarray, layer_spec: HeightLayerSpec,
                                 ground_anchor_m: float, scale: float) -> np.ndarray:
    """Convert an aerial depth prediction into (N, N) int64 surface layer indices.

    The minimum depth is anchored to ``ground_anchor_m``; remaining values
    scale by ``scale`` meters per depth unit and snap to the nearest layer,
    ties rounding down. Both numbers come from the scene (``SceneBundle``).
    There is no automatic scale and no warning: a constant map lands at the
    anchor's layer. A non-finite depth entry, or an anchor or scale that
    ``check_depth_rule`` rejects, is a ``ValueError``.
    """
    check_depth_rule(ground_anchor_m, scale)
    depth = np.asarray(depth, dtype=float)
    if not np.all(np.isfinite(depth)):
        raise ValueError("depth map contains non-finite entries")
    return layer_spec.nearest_index(ground_anchor_m + scale * (depth - depth.min()))
