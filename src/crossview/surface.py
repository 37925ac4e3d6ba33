"""Visible-surface estimation from per-voxel confidences.

A column of height-wise confidences is accumulated bottom-up; the surface
is the first layer whose cumulative mass exceeds the threshold. Features
around the surface are then fused into a flat BEV map, and aerial depth
predictions are anchored and discretized into the same layer indexing.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import BevGridSpec, HeightLayerSpec


@dataclass
class FeatureVolume:
    """Volumetric BEV features of shape (M, N, N, C)."""

    data: np.ndarray
    layer_spec: HeightLayerSpec
    grid_spec: BevGridSpec

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        m = self.layer_spec.num_layers
        n = self.grid_spec.n_points_per_side
        if self.data.ndim != 4 or self.data.shape[:3] != (m, n, n):
            raise ValueError(f"feature volume shape {self.data.shape} inconsistent with specs")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("feature volume contains non-finite entries")


@dataclass
class ConfidenceVolume:
    """Per-voxel surface confidence, normalized along the height axis."""

    conf: np.ndarray

    def __post_init__(self):
        self.conf = np.asarray(self.conf, dtype=float)
        if self.conf.ndim != 3:
            raise ValueError("confidence volume must be (M, N, N)")
        if np.any(self.conf < 0) or not np.all(np.isfinite(self.conf)):
            raise ValueError("confidences must be finite and non-negative")
        sums = self.conf.sum(axis=0)
        if not np.allclose(sums, 1.0, atol=1e-5):
            raise ValueError("confidences must sum to 1 along the height axis")


@dataclass
class SurfaceMap:
    """Chosen surface layer per BEV cell, as index and meters."""

    index: np.ndarray
    height_m: np.ndarray

    def __post_init__(self):
        self.index = np.asarray(self.index, dtype=np.int64)
        self.height_m = np.asarray(self.height_m, dtype=float)
        if self.index.shape != self.height_m.shape:
            raise ValueError("index and height maps disagree in shape")

    @classmethod
    def from_index(cls, index: np.ndarray, layer_spec: HeightLayerSpec) -> "SurfaceMap":
        index = np.asarray(index, dtype=np.int64)
        return cls(index=index, height_m=layer_spec.height_of(index))


@dataclass
class BevFeatureMap:
    """Flat N x N x c BEV feature grid."""

    data: np.ndarray
    grid_spec: BevGridSpec

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        n = self.grid_spec.n_points_per_side
        if self.data.ndim != 3 or self.data.shape[:2] != (n, n):
            raise ValueError(f"BEV feature map shape {self.data.shape} inconsistent with spec")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("BEV feature map contains non-finite entries")


def normalize_confidence(raw: np.ndarray) -> ConfidenceVolume:
    """Softmax raw scores along the height axis, per BEV cell."""
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 3:
        raise ValueError("raw confidence must be (M, N, N)")
    if not np.all(np.isfinite(raw)):
        raise ValueError("raw confidence contains non-finite entries")
    shifted = raw - raw.max(axis=0, keepdims=True)
    e = np.exp(shifted)
    return ConfidenceVolume(e / e.sum(axis=0, keepdims=True))


def surface_from_accumulation(conf: ConfidenceVolume, threshold: float,
                              layer_spec: HeightLayerSpec) -> SurfaceMap:
    """First layer (bottom-up) whose cumulative confidence strictly exceeds the threshold.

    Cells that never cross (possible only through numerical loss, since the
    columns sum to 1) fall back to the top layer M - 1.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie strictly inside (0, 1)")
    cum = np.cumsum(conf.conf, axis=0)
    above = cum > threshold
    index = np.argmax(above, axis=0)
    never = ~above.any(axis=0)
    if never.any():
        index = np.where(never, conf.conf.shape[0] - 1, index)
    return SurfaceMap.from_index(index, layer_spec)


def fuse_height_features(vol: FeatureVolume, conf: ConfidenceVolume, surf: SurfaceMap,
                         window: int | None = None) -> BevFeatureMap:
    """Confidence-weighted fusion of features across height layers.

    Layers within ``window`` of the surface index contribute, weighted by
    their confidence renormalized over the window; ``window=None`` uses all
    layers and ``window=0`` reduces to direct surface indexing. A window
    with zero total confidence falls back to uniform weights. The channel
    count is unchanged.
    """
    m, n = vol.data.shape[0], vol.data.shape[1]
    if conf.conf.shape != (m, n, n) or surf.index.shape != (n, n):
        raise ValueError("volume, confidence, and surface shapes disagree")
    if window is not None and window < 0:
        raise ValueError("window must be >= 0")

    if window is None:
        mask = np.ones((m, n, n))
    else:
        layer_idx = np.arange(m)[:, None, None]
        mask = (np.abs(layer_idx - surf.index[None, :, :]) <= window).astype(float)
    weights = conf.conf * mask
    totals = weights.sum(axis=0, keepdims=True)
    uniform = mask / mask.sum(axis=0, keepdims=True)
    weights = np.where(totals > 0, weights / np.where(totals > 0, totals, 1.0), uniform)
    return BevFeatureMap(np.einsum("mij,mijc->ijc", weights, vol.data), vol.grid_spec)


def aerial_depth_to_height_index(depth: np.ndarray, layer_spec: HeightLayerSpec,
                                 ground_anchor_m: float = -3.0,
                                 scale: float | None = None) -> SurfaceMap:
    """Convert an aerial depth prediction into surface layer indices.

    The minimum depth is anchored to ``ground_anchor_m``; remaining values
    scale linearly to meters (``scale=None`` maps the maximum depth to the
    top layer) and snap to the nearest layer, ties rounding down. A
    constant map has no usable range: it comes back all-ground with a
    warning.
    """
    depth = np.asarray(depth, dtype=float)
    if not np.all(np.isfinite(depth)):
        raise ValueError("depth map contains non-finite entries")
    dmin = depth.min()
    drange = depth.max() - dmin
    if drange == 0.0:
        warnings.warn("constant depth map: anchoring the whole map to ground level",
                      RuntimeWarning, stacklevel=2)
        effective_scale = 0.0
    elif scale is None:
        effective_scale = (layer_spec.z_max_m - ground_anchor_m) / drange
    else:
        effective_scale = float(scale)
    height = ground_anchor_m + effective_scale * (depth - dmin)
    return SurfaceMap.from_index(layer_spec.nearest_index(height), layer_spec)
