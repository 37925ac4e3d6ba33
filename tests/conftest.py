import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from crossview.geometry import (AerialMeta, BevGridSpec, CameraIntrinsics,
                                HeightLayerSpec, Pose3DoF, SceneSpec)

logging.getLogger("crossview").setLevel(logging.ERROR)

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
