"""BEV grid geometry: grid and height-layer specs, panorama/aerial projections, planar poses.

Coordinate conventions used throughout the package:

* BEV metric frame: camera ground position at the origin, +x = camera
  forward (north when yaw = 0), +y to the camera's right. Azimuth is
  measured from +x toward +y.
* Aerial images are north-up. ``Pose3DoF`` maps BEV metric coordinates
  into aerial pixel coordinates: rotate by yaw (counterclockwise
  positive), scale by 1/GSD, translate by ``t_px``.
* Equirectangular panoramas: u = 0 at azimuth -pi (configurable via
  ``azimuth_offset_rad``), a north-facing camera sees azimuth 0 at the
  image center; v runs from zenith (0) to nadir (H).

Each frame rule has one owner here, with ``c = (n - 1) / 2`` the grid's
center index: grid cell <-> camera-relative meters (``BevGridSpec.cell_m``,
``(index - c) * spacing_m``, and ``m_cell``), aerial cell <-> aerial pixel
(``SceneSpec.aerial_cell_px`` and ``aerial_px_cell``), rotation by a yaw
(``_rotate``; the inverse map passes ``-yaw``), inside the grid
(``BevGridSpec.contains``) and inside the aerial image
(``AerialMeta.contains``). The cell maps, the match-to-metric conversion, the
ground-truth projection and the renderer call these owners; only
``generate_scene`` places a pose's translation itself (see there).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .tensorio import check_integer, json_number

TWO_PI = 2.0 * math.pi


def wrap_angle(angle_rad):
    """Wrap an angle (scalar or array) to (-pi, pi]."""
    return np.pi - (np.pi - np.asarray(angle_rad)) % TWO_PI


def rotation_matrix(yaw_rad: float) -> np.ndarray:
    """2x2 counterclockwise rotation matrix."""
    c, s = math.cos(yaw_rad), math.sin(yaw_rad)
    return np.array([[c, -s], [s, c]])


def _rotate(yaw_rad: float, x, y):
    """Rotate points (x, y) counterclockwise by ``yaw_rad``, elementwise; ``-yaw`` undoes it.

    Returns fresh arrays (or scalars) of the broadcast shape; the inputs are
    left as they are.
    """
    c, s = math.cos(yaw_rad), math.sin(yaw_rad)
    x, y = np.broadcast_arrays(x, y)
    # c*x - s*y and s*x + c*y, finished in the fresh products: no third full-size array
    xr = c * x
    xr -= s * y
    yr = s * x
    yr += c * y
    return xr, yr


@dataclass(frozen=True)
class BevGridSpec:
    """Uniform square BEV grid centered on the camera ground position.

    The grid has ``n_points_per_side`` points (an integer >= 2) spanning ``extent_m``
    meters (finite and positive), so adjacent points are ``extent_m / (n - 1)``
    apart. With an odd count the camera sits on a grid point, which the
    synthetic harness requires. The solve accepts an even count: ``cell_m``
    measures from the half-index centre ``(n - 1) / 2``, so the camera sits
    between four points.
    """

    n_points_per_side: int = 41
    extent_m: float = 71.0

    def __post_init__(self):
        check_integer("n_points_per_side", self.n_points_per_side)
        if self.n_points_per_side < 2:
            raise ValueError("grid needs at least 2 points per side")
        if not 0 < self.extent_m < math.inf:
            raise ValueError(f"grid extent must be finite and positive, got {self.extent_m}")

    @property
    def spacing_m(self) -> float:
        return self.extent_m / (self.n_points_per_side - 1)

    @property
    def center_index(self) -> float:
        return (self.n_points_per_side - 1) / 2.0

    @property
    def num_cells(self) -> int:
        return self.n_points_per_side * self.n_points_per_side

    def cell_m(self, index):
        """Camera-relative meters of (fractional) cell indices, elementwise; the center -> 0."""
        return (np.asarray(index) - self.center_index) * self.spacing_m

    def m_cell(self, x_m):
        """Inverse of :meth:`cell_m`: (fractional) cell index of camera-relative meters."""
        return np.asarray(x_m) / self.spacing_m + self.center_index

    def contains(self, index):
        """Elementwise: whether a (fractional) cell index lies in [0, n - 1]."""
        index = np.asarray(index)
        return (index >= 0) & (index <= self.n_points_per_side - 1)


@dataclass(frozen=True)
class HeightLayerSpec:
    """Evenly spaced height layers; layer i sits at z_min + i * spacing.

    At least 2 layers (an integer count), with finite ``z_min_m`` below finite ``z_max_m``.
    """

    num_layers: int = 11
    z_min_m: float = -10.0
    z_max_m: float = 10.0

    def __post_init__(self):
        check_integer("num_layers", self.num_layers)
        if self.num_layers < 2:
            raise ValueError("need at least 2 height layers")
        if not -math.inf < self.z_min_m < self.z_max_m < math.inf:
            raise ValueError("z_min_m and z_max_m must be finite, z_min_m below z_max_m")

    @property
    def spacing_m(self) -> float:
        return (self.z_max_m - self.z_min_m) / (self.num_layers - 1)

    def nearest_index(self, height_m):
        """Nearest layer index to a height, ties rounding toward the lower index."""
        with np.errstate(over="ignore"):   # a finite height may scale to +-inf: still clipped
            frac = (np.asarray(height_m, dtype=float) - self.z_min_m) / self.spacing_m
        # clipped before the cast: casting a float outside int64 is platform-defined
        return np.clip(np.ceil(frac - 0.5), 0, self.num_layers - 1).astype(np.int64)


@dataclass(frozen=True)
class CameraIntrinsics:
    """Equirectangular panorama geometry plus the camera mounting height.

    The height is a positive integer and the width twice it; the camera height lies in
    2-3 m and the azimuth offset (radians) is finite.
    """

    panorama_width: int
    panorama_height: int
    camera_height_m: float = 2.5
    azimuth_offset_rad: float = 0.0

    def __post_init__(self):
        check_integer("panorama_width", self.panorama_width)
        check_integer("panorama_height", self.panorama_height)
        if self.panorama_height < 1:
            raise ValueError(f"panorama height must be positive, got {self.panorama_height}")
        if self.panorama_width != 2 * self.panorama_height:
            raise ValueError("equirectangular panorama requires width == 2 * height")
        if not 2.0 <= self.camera_height_m <= 3.0:
            raise ValueError("camera height outside the supported 2-3 m range")
        if not math.isfinite(self.azimuth_offset_rad):
            raise ValueError("azimuth offset must be finite")


@dataclass(frozen=True)
class AerialMeta:
    """Aerial image scale: square image of integer side, finite positive ground sampling distance."""

    gsd_m_per_px: float = 0.12
    image_size_px: int = 640

    def __post_init__(self):
        if not 0 < self.gsd_m_per_px < math.inf:
            raise ValueError(f"gsd must be finite and positive, got {self.gsd_m_per_px}")
        check_integer("image_size_px", self.image_size_px)
        if self.image_size_px < 1:
            raise ValueError("image size must be positive")

    def contains(self, px):
        """Elementwise: whether a pixel coordinate lies in [0, image_size - 1]."""
        px = np.asarray(px)
        return (px >= 0) & (px <= self.image_size_px - 1)


@dataclass(frozen=True, eq=False)
class Pose3DoF:
    """Planar rigid transform: 2D translation in aerial pixels plus yaw, both finite.

    Yaw is counterclockwise positive, 0 = north-aligned, and gets
    normalized to (-pi, pi] at construction.
    """

    t_px: np.ndarray
    yaw_rad: float

    def __post_init__(self):
        t = np.array(self.t_px, dtype=float).reshape(2)
        if not np.all(np.isfinite(t)) or not np.isfinite(self.yaw_rad):
            raise ValueError("pose must be finite")
        object.__setattr__(self, "t_px", t)
        object.__setattr__(self, "yaw_rad", float(wrap_angle(self.yaw_rad)))

    def to_json_dict(self) -> dict:
        return {"tx_px": float(self.t_px[0]), "ty_px": float(self.t_px[1]),
                "yaw_rad": self.yaw_rad}

    @classmethod
    def from_json_dict(cls, d: dict) -> "Pose3DoF":
        """The keys :meth:`to_json_dict` writes, the yaw in radians; other keys are ignored.
        A missing field is a ``KeyError``, a non-number one a ``ValueError``."""
        num = functools.partial(json_number, d)
        return cls(np.array([num("tx_px"), num("ty_px")]), num("yaw_rad"))


@dataclass(frozen=True)
class SceneSpec:
    """Bundle of the four geometry specs describing one scene setup."""

    grid: BevGridSpec = BevGridSpec()
    layers: HeightLayerSpec = HeightLayerSpec()
    intrinsics: CameraIntrinsics = CameraIntrinsics(1024, 512)
    aerial: AerialMeta = AerialMeta()

    @property
    def grid_center_px(self) -> np.ndarray:
        """Pixel position of the aerial BEV grid center (image center)."""
        c = (self.aerial.image_size_px - 1) / 2.0
        return np.array([c, c])

    @property
    def cell_spacing_px(self) -> float:
        """Aerial pixels between adjacent grid cells: ``spacing_m / gsd``."""
        return self.grid.spacing_m / self.aerial.gsd_m_per_px

    def aerial_cell_px(self, cells) -> np.ndarray:
        """Aerial pixel position of (fractional) grid cells shaped (..., 2).

        Cell ``(i, j)`` sits at ``grid_center_px + ((i, j) - c) * cell_spacing_px``
        with ``c`` the grid's center index. This is the one cell <-> pixel
        rule of the aerial grid.
        """
        return (self.grid_center_px
                + (np.asarray(cells) - self.grid.center_index) * self.cell_spacing_px)

    def aerial_px_cell(self, px) -> np.ndarray:
        """Inverse of :meth:`aerial_cell_px` about :attr:`grid_center_px`."""
        return ((np.asarray(px) - self.grid_center_px) / self.cell_spacing_px
                + self.grid.center_index)

    def to_json_dict(self) -> dict:
        return {
            # a count may be an np.integer and a float an np.float32: json writes neither
            "n": int(self.grid.n_points_per_side),
            "extent_m": float(self.grid.extent_m),
            "m_layers": int(self.layers.num_layers),
            "z_min": float(self.layers.z_min_m),
            "z_max": float(self.layers.z_max_m),
            "gsd": float(self.aerial.gsd_m_per_px),
            "image_size": int(self.aerial.image_size_px),
            "pano_w": int(self.intrinsics.panorama_width),
            "pano_h": int(self.intrinsics.panorama_height),
            "camera_height": float(self.intrinsics.camera_height_m),
            "azimuth_offset": float(self.intrinsics.azimuth_offset_rad),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "SceneSpec":
        """The keys :meth:`to_json_dict` writes, ``image_size``, ``camera_height`` and
        ``azimuth_offset`` optional. Counts take an integer, other fields any number;
        another kind, or another key, is a ``ValueError``."""
        unknown = sorted(set(d) - set(cls().to_json_dict()))
        if unknown:
            raise ValueError(f"unknown scene spec key(s): {', '.join(map(repr, unknown))}")
        num = functools.partial(json_number, d)
        return cls(
            grid=BevGridSpec(num("n", integer=True), num("extent_m")),
            layers=HeightLayerSpec(num("m_layers", integer=True), num("z_min"), num("z_max")),
            intrinsics=CameraIntrinsics(
                num("pano_w", integer=True), num("pano_h", integer=True),
                num("camera_height", default=CameraIntrinsics.camera_height_m),
                num("azimuth_offset", default=CameraIntrinsics.azimuth_offset_rad),
            ),
            aerial=AerialMeta(num("gsd"), num("image_size", integer=True,
                                              default=AerialMeta.image_size_px)),
        )


def grid_cells(spec: BevGridSpec) -> np.ndarray:
    """(N, N, 2) integer indices of every grid cell; ``[i, j] == (i, j)``."""
    idx = np.arange(spec.n_points_per_side)
    return np.stack(np.meshgrid(idx, idx, indexing="ij"), axis=-1)


def panorama_pixel_ray(intr: CameraIntrinsics, u, v):
    """Unit ray direction(s) (dx, dy, dz) through panorama pixel coordinates.

    Follows the panorama convention of the module docstring; accepts arrays.
    """
    azimuth = (np.asarray(u) / intr.panorama_width - 0.5) * TWO_PI + intr.azimuth_offset_rad
    elevation = (0.5 - np.asarray(v) / intr.panorama_height) * np.pi
    ce = np.cos(elevation)
    return ce * np.cos(azimuth), ce * np.sin(azimuth), np.sin(elevation)


def metric_to_aerial_px(meta: AerialMeta, pose: Pose3DoF, x_m, y_m):
    """Map BEV metric coordinates to aerial pixel coordinates under a pose."""
    xr, yr = _rotate(pose.yaw_rad, np.asarray(x_m, dtype=float), np.asarray(y_m, dtype=float))
    xr /= meta.gsd_m_per_px
    xr += pose.t_px[0]
    yr /= meta.gsd_m_per_px
    yr += pose.t_px[1]
    return xr, yr


def aerial_px_to_metric(meta: AerialMeta, pose: Pose3DoF, x_px, y_px):
    """Inverse of :func:`metric_to_aerial_px`."""
    return _rotate(-pose.yaw_rad, (np.asarray(x_px) - pose.t_px[0]) * meta.gsd_m_per_px,
                   (np.asarray(y_px) - pose.t_px[1]) * meta.gsd_m_per_px)


def _nearest_cells(specs: SceneSpec, fx, fy):
    """Round fractional cell coordinates to cells; returns (cells (..., 2), in-grid mask)."""
    # round-half-up keeps the rule deterministic for points on cell borders
    tgt = np.stack([np.floor(fx + 0.5), np.floor(fy + 0.5)], axis=-1).astype(np.int64)
    return tgt, np.all(specs.grid.contains(tgt), axis=-1)


def ground_cell_to_aerial_cell(specs: SceneSpec, pose: Pose3DoF, cells: np.ndarray):
    """Nearest aerial grid cell for each ground grid cell under ``pose``.

    ``cells`` is (K, 2) integer ground indices; returns (targets (K, 2),
    valid (K,)) where valid marks targets inside the aerial grid.
    """
    g = specs.grid.cell_m(cells)
    ax, ay = metric_to_aerial_px(specs.aerial, pose, g[..., 0], g[..., 1])
    f = specs.aerial_px_cell(np.stack([ax, ay], axis=-1))
    return _nearest_cells(specs, f[..., 0], f[..., 1])


def aerial_cell_in_ground_grid(specs: SceneSpec, pose: Pose3DoF, cells):
    """Fractional ground-grid coordinates (fx, fy) of aerial grid cells (..., 2) under ``pose``."""
    px = specs.aerial_cell_px(cells)
    gx, gy = aerial_px_to_metric(specs.aerial, pose, px[..., 0], px[..., 1])
    return specs.grid.m_cell(gx), specs.grid.m_cell(gy)


def aerial_cell_to_ground_cell(specs: SceneSpec, pose: Pose3DoF, cells: np.ndarray):
    """Nearest ground grid cell for each aerial grid cell (inverse direction)."""
    return _nearest_cells(specs, *aerial_cell_in_ground_grid(specs, pose, cells))
