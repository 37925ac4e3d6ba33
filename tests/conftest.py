import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from crossview.geometry import (TWO_PI, AerialMeta, BevGridSpec, CameraIntrinsics,
                                HeightLayerSpec, Pose3DoF, SceneSpec)
from crossview.refiner import _conv_slices
from crossview.synthetic import SyntheticScene, _resample_to_aerial

ROOT = Path(__file__).resolve().parent.parent


def python_subprocess(*args, cwd=None) -> subprocess.CompletedProcess:
    """Run ``python *args`` with this checkout's ``src/`` first on the child's PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *map(str, args)], cwd=cwd, env=env,
                          capture_output=True, text=True)


def identity_pose(specs: SceneSpec) -> Pose3DoF:
    """Pose mapping ground cell (i, j) onto aerial grid cell (i, j)."""
    return Pose3DoF(specs.grid_center_px, 0.0)


def layer_heights(spec: HeightLayerSpec) -> np.ndarray:
    """Height in meters of every layer, bottom to top."""
    return spec.z_min_m + np.arange(spec.num_layers) * spec.spacing_m


def cell_center_coords(spec: BevGridSpec) -> np.ndarray:
    """(N, N, 2) metric coordinates of every grid cell."""
    offsets = (np.arange(spec.n_points_per_side) - spec.center_index) * spec.spacing_m
    coords = np.empty((spec.n_points_per_side, spec.n_points_per_side, 2))
    coords[..., 0] = offsets[:, None]
    coords[..., 1] = offsets[None, :]
    return coords


def _softmax(m: np.ndarray, axis: int) -> np.ndarray:
    # max-subtraction guards the exp against overflow; in-place ops keep
    # the large temporaries down to a single allocation
    e = m - m.max(axis=axis, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e


def row_softmax(m: np.ndarray) -> np.ndarray:
    return _softmax(np.asarray(m, dtype=float), axis=1)


def col_softmax(m: np.ndarray) -> np.ndarray:
    return _softmax(np.asarray(m, dtype=float), axis=0)


def conv3d(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """3x3x3 cross-correlation with zero padding 1 (shape-preserving), in float64.

    ``x`` is (in_c, D, H, W), ``kernel`` is (out_c, in_c, 3, 3, 3). Drives the
    library's streamed ``_conv_slices`` over a whole volume of any shape.
    """
    in_c, d, h, w = x.shape
    if kernel.shape[1] != in_c:
        raise ValueError("kernel input channels disagree with the volume")
    out = np.empty((kernel.shape[0], d, h, w))
    for z, sl in enumerate(_conv_slices(x.transpose(1, 0, 2, 3), kernel, bias, relu=False)):
        out[:, z] = sl
    return out


def aerial_gt_surface(scene: SyntheticScene, specs: SceneSpec) -> np.ndarray:
    """True aerial-frame surface layer index (the transformed height field, discretized)."""
    height_sat = _resample_to_aerial(scene, specs)[1]
    return specs.layers.nearest_index(height_sat)


def project_point_to_panorama(intr: CameraIntrinsics, x_m, y_m, z_m):
    """Project a camera-relative 3D point into panorama pixel coordinates.

    ``z_m`` is measured from ground level (the camera sits at
    ``camera_height_m``). Returns (u, v) or None when the elevation falls
    outside the image (exact nadir). Raises on the degenerate point at the
    optical center.
    """
    r = math.hypot(x_m, y_m)
    dz = z_m - intr.camera_height_m
    if r == 0.0 and dz == 0.0:
        raise ValueError("point coincides with the optical center")
    azimuth = math.atan2(y_m, x_m) - intr.azimuth_offset_rad
    elevation = math.atan2(dz, r)
    u = (azimuth / TWO_PI + 0.5) * intr.panorama_width % intr.panorama_width
    v = (0.5 - elevation / math.pi) * intr.panorama_height
    if not 0.0 <= v < intr.panorama_height:
        return None
    return u, v


@pytest.fixture
def default_specs() -> SceneSpec:
    return SceneSpec()


@pytest.fixture
def small_specs() -> SceneSpec:
    """9x9 grid for fast synthetic scenes."""
    return SceneSpec(
        grid=BevGridSpec(n_points_per_side=9, extent_m=16.0),
        layers=HeightLayerSpec(),
        intrinsics=CameraIntrinsics(256, 128),
        aerial=AerialMeta(gsd_m_per_px=0.12, image_size_px=400),
    )


@pytest.fixture
def mid_specs() -> SceneSpec:
    """21x21 grid for statistical checks."""
    return SceneSpec(
        grid=BevGridSpec(n_points_per_side=21, extent_m=40.0),
        layers=HeightLayerSpec(),
        intrinsics=CameraIntrinsics(512, 256),
        aerial=AerialMeta(gsd_m_per_px=0.12, image_size_px=512),
    )
