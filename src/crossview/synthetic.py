"""Synthetic worlds with known height fields, textures, and poses.

Every pipeline stage gets a ground-truth oracle: the rendered ground
feature volume carries the texture at the true surface layer, confidence
logits peak there, and the aerial map is the texture resampled under the
true pose. Height fields span exactly [ground level, top layer] so the
aerial pseudo-depth is invertible back to surface indices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (Pose3DoF, SceneSpec, aerial_cell_in_ground_grid,
                       aerial_cell_to_ground_cell, grid_cells)
from .surface import BevFeatureMap, FeatureVolume, check_depth_rule, check_input_shapes
from .tensorio import decode_json, json_number, load_tensors, read_manifest, save_tensor_dir

GROUND_LEVEL_M = -3.0      # scene ground level relative to the camera origin
DEPTH_SCALE = 1.0          # rendered aerial depth is meters above ground level
CONFIDENCE_PEAK = 15.0
NUM_BUMPS = 8              # Gaussian bumps summed into each height field
FEATURE_CHANNELS = 16      # default feature channel count of a generated world
_SCENE_FORMAT = "scene-v1"


@dataclass
class SceneTruth:
    """What a scene bundle keeps of its world: the true pose, the render noise and the seed.

    The world is a function of (specs, seed, channel count): ``generate_scene``
    draws it before the pose and adds no noise, so it redraws it bit for bit.
    """

    gt_pose: Pose3DoF
    noise_sigma: float
    seed: int


@dataclass
class SyntheticScene(SceneTruth):
    """A scene's truth plus its world: per-cell surface heights and per-cell features."""

    height_field_m: np.ndarray   # (N, N)
    feature_texture: np.ndarray  # (N, N, c), unit-norm rows


@dataclass
class RenderedInputs:
    """Pipeline inputs consistent with one scene."""

    volume: FeatureVolume
    conf_logits: np.ndarray   # (M, N, N)
    f_sat: BevFeatureMap
    depth_sat: np.ndarray     # (N, N) aerial pseudo-depth


@dataclass
class SceneBundle:
    specs: SceneSpec
    scene: SceneTruth
    inputs: RenderedInputs
    depth_anchor_m: float = GROUND_LEVEL_M
    depth_scale: float = DEPTH_SCALE


def _require_camera_centered(specs: SceneSpec) -> None:
    if specs.grid.n_points_per_side % 2 == 0:
        raise ValueError("synthetic scenes need an odd grid so the camera sits on a point")


def _check_seed_and_noise(seed: int, noise_sigma: float) -> None:
    if not 0 <= noise_sigma < np.inf:   # also catches NaN
        raise ValueError(f"noise_sigma must be finite and non-negative, got {noise_sigma}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")


def generate_scene(specs: SceneSpec, seed: int, noise_sigma: float = 0.0,
                   snapped: bool = True, channels: int = FEATURE_CHANNELS) -> SyntheticScene:
    """Random smooth height field, unit-norm features, and a pose near the grid center.

    Heights are a sum of Gaussian bumps on a flat ground plane, rescaled to
    span exactly [ground level, top layer]. Snapped poses translate by
    whole cells and rotate by quarter turns, which makes nearest-cell
    resampling exact; ``snapped=False`` draws a continuous pose instead. A negative ``seed``,
    fewer than one channel or a negative or non-finite ``noise_sigma`` is a ``ValueError``.
    """
    _require_camera_centered(specs)
    _check_seed_and_noise(seed, noise_sigma)
    if channels < 1:
        raise ValueError(f"channels must be at least 1, got {channels}")
    rng = np.random.default_rng([seed, 0])
    n = specs.grid.n_points_per_side

    ii, jj = np.moveaxis(grid_cells(specs.grid), -1, 0)
    bumps = np.zeros((n, n))
    for _ in range(NUM_BUMPS):
        cx, cy = rng.uniform(0, n - 1, size=2)
        amp = rng.uniform(1.0, 10.0)
        width = rng.uniform(1.5, max(2.0, n / 6.0))
        bumps += amp * np.exp(-((ii - cx) ** 2 + (jj - cy) ** 2) / (2.0 * width ** 2))
    bumps -= bumps.min()
    peak = bumps.max()
    span = specs.layers.z_max_m - GROUND_LEVEL_M
    if peak > 0:
        bumps *= span / peak
    height = GROUND_LEVEL_M + bumps
    height = np.clip(height, specs.layers.z_min_m, specs.layers.z_max_m)

    texture = rng.standard_normal((n, n, channels))
    texture /= np.linalg.norm(texture, axis=2, keepdims=True)

    center = specs.grid_center_px
    spacing_px = specs.cell_spacing_px
    max_cells = n // 4
    if snapped:
        offset_cells = rng.integers(-max_cells, max_cells + 1, size=2)
        yaw = rng.integers(0, 4) * (np.pi / 2.0)
        t_px = center + offset_cells * spacing_px
    else:
        t_px = center + rng.uniform(-max_cells, max_cells, size=2) * spacing_px
        yaw = rng.uniform(-np.pi, np.pi)
    return SyntheticScene(Pose3DoF(t_px, float(yaw)), float(noise_sigma), int(seed),
                          height, texture)


def _is_snapped(scene: SyntheticScene, specs: SceneSpec) -> bool:
    """Whether the true pose translates by whole cells and rotates by quarter turns."""
    k = specs.aerial_px_cell(scene.gt_pose.t_px)
    turns = scene.gt_pose.yaw_rad / (np.pi / 2.0)
    return bool(np.max(np.abs(k - np.rint(k))) < 1e-6 and abs(turns - np.rint(turns)) < 1e-6)


def _bilinear(img: np.ndarray, fx: np.ndarray, fy: np.ndarray) -> np.ndarray:
    """Bilinear sample at fractional cell coordinates (caller clamps to range)."""
    n = img.shape[0]
    x0 = np.clip(np.floor(fx).astype(int), 0, n - 2)
    y0 = np.clip(np.floor(fy).astype(int), 0, n - 2)
    ax = (fx - x0)[..., None] if img.ndim == 3 else fx - x0
    ay = (fy - y0)[..., None] if img.ndim == 3 else fy - y0
    v00 = img[x0, y0]
    v10 = img[x0 + 1, y0]
    v01 = img[x0, y0 + 1]
    v11 = img[x0 + 1, y0 + 1]
    return (v00 * (1 - ax) * (1 - ay) + v10 * ax * (1 - ay)
            + v01 * (1 - ax) * ay + v11 * ax * ay)


def _resample_to_aerial(scene: SyntheticScene, specs: SceneSpec):
    """Ground texture and heights seen from the aerial grid under the true pose.

    Returns (texture, height, inside): aerial cells whose ground position
    falls outside the ground grid are flagged by ``inside`` and read ground
    level. Snapped poses land on ground cells and sample them by index;
    other poses sample bilinearly.
    """
    n = specs.grid.n_points_per_side
    cells = grid_cells(specs.grid)
    if _is_snapped(scene, specs):
        tgt, inside = aerial_cell_to_ground_cell(specs, scene.gt_pose, cells)
        sx, sy = np.moveaxis(np.clip(tgt, 0, n - 1), -1, 0)
        tex = scene.feature_texture[sx, sy]
        hgt = scene.height_field_m[sx, sy]
    else:
        fx, fy = aerial_cell_in_ground_grid(specs, scene.gt_pose, cells)
        inside = specs.grid.contains(fx) & specs.grid.contains(fy)
        tex = _bilinear(scene.feature_texture, fx, fy)
        hgt = _bilinear(scene.height_field_m, fx, fy)
    return tex, np.where(inside, hgt, GROUND_LEVEL_M), inside


def render_inputs(scene: SyntheticScene, specs: SceneSpec) -> RenderedInputs:
    """Render pipeline inputs consistent with the scene.

    With ``noise_sigma = 0``: non-surface volume layers are zero, the
    confidence logits are an exact one-hot peak, aerial features equal the
    transformed texture, and the aerial pseudo-depth inverts back to the
    aerial-frame surface indices.
    """
    _require_camera_centered(specs)
    rng = np.random.default_rng([scene.seed, 1])
    n = specs.grid.n_points_per_side
    m = specs.layers.num_layers
    c = scene.feature_texture.shape[2]
    sigma = scene.noise_sigma

    gt_index = specs.layers.nearest_index(scene.height_field_m)

    vol = sigma * rng.standard_normal((m, n, n, c))
    ii, jj = np.moveaxis(grid_cells(specs.grid), -1, 0)
    vol[gt_index, ii, jj] = scene.feature_texture
    volume = FeatureVolume(vol)

    conf_logits = sigma * rng.standard_normal((m, n, n))
    conf_logits[gt_index, ii, jj] += CONFIDENCE_PEAK

    filler = rng.standard_normal((n, n, c))
    filler /= np.linalg.norm(filler, axis=2, keepdims=True)
    sat_noise = rng.standard_normal((n, n, c))
    depth_noise = rng.standard_normal((n, n))

    tex, height_sat, inside = _resample_to_aerial(scene, specs)
    f_sat = np.where(inside[..., None], tex, filler) + sigma * sat_noise
    depth_sat = (height_sat - GROUND_LEVEL_M) / DEPTH_SCALE + sigma * depth_noise

    return RenderedInputs(volume, conf_logits, BevFeatureMap(f_sat), depth_sat)


def save_scene_dir(directory, bundle: SceneBundle) -> None:
    """Write a scene directory: one manifest plus the named tensors."""
    inputs = bundle.inputs
    tensors = {
        "volume": inputs.volume.data,
        "conf_logits": inputs.conf_logits,
        "f_sat": inputs.f_sat.data,
        "depth_sat": inputs.depth_sat,
    }
    save_tensor_dir(directory, _SCENE_FORMAT, tensors,
                    spec=bundle.specs.to_json_dict(),
                    gt_pose=bundle.scene.gt_pose.to_json_dict(),
                    seed=bundle.scene.seed,
                    noise_sigma=bundle.scene.noise_sigma,
                    depth_anchor_m=bundle.depth_anchor_m,
                    depth_scale=bundle.depth_scale)


def _manifest_fields(m: dict) -> dict:
    """The manifest's fields, decoded and checked; ``spec`` and ``gt_pose`` are JSON objects."""
    fields = {"specs": decode_json("spec", m["spec"], SceneSpec.from_json_dict),
              "gt_pose": decode_json("gt_pose", m["gt_pose"], Pose3DoF.from_json_dict),
              "seed": json_number(m, "seed", integer=True),
              **{k: json_number(m, k) for k in ("noise_sigma", "depth_anchor_m", "depth_scale")}}
    _check_seed_and_noise(fields["seed"], fields["noise_sigma"])
    check_depth_rule(fields["depth_anchor_m"], fields["depth_scale"])
    return fields


def read_scene_manifest(directory) -> dict:
    """A scene directory's checked manifest fields (see ``_manifest_fields``); reads no tensor."""
    return decode_json(directory, read_manifest(directory, _SCENE_FORMAT), _manifest_fields)


def load_scene_dir(directory) -> SceneBundle:
    """Read a scene directory: its manifest, then its four tensors, checked against its specs."""
    manifest = read_manifest(directory, _SCENE_FORMAT)
    fields = decode_json(directory, manifest, _manifest_fields)
    raw = load_tensors(directory, manifest, ("volume", "conf_logits", "f_sat", "depth_sat"))
    volume, conf_logits, f_sat, depth_sat = (t.astype(float) for t in raw.values())
    check_input_shapes(fields["specs"], volume, conf_logits, f_sat, depth_sat,
                       where=f"{directory}: ")
    inputs = RenderedInputs(FeatureVolume(volume), conf_logits, BevFeatureMap(f_sat), depth_sat)
    return SceneBundle(fields["specs"],
                       SceneTruth(fields["gt_pose"], fields["noise_sigma"], fields["seed"]),
                       inputs, fields["depth_anchor_m"], fields["depth_scale"])


def make_scene_bundle(specs: SceneSpec, seed: int, noise_sigma: float = 0.0,
                      snapped: bool = True, channels: int = FEATURE_CHANNELS) -> SceneBundle:
    scene = generate_scene(specs, seed, noise_sigma, snapped=snapped, channels=channels)
    return SceneBundle(specs=specs, scene=SceneTruth(scene.gt_pose, scene.noise_sigma, scene.seed),
                       inputs=render_inputs(scene, specs))
