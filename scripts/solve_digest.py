#!/usr/bin/env python3
"""Print one sha256 over the outputs of a fixed list of solves.

Two trees that print the same digest give bit-identical solves on this
list: un-refined ``run_localization`` at n = 9, 21 and 41, snapped and
continuous, sigma 0, 0.2 and 0.4, two seeds each, and refined solves with
``RefinerParams.random(n^2, scale=0.03)`` at n = 9 and 21. The hash covers
each solve's pose, degenerate flag, matches (metric coordinates of the
matched cells), match weights and ground surface. Run it on both trees
with the same BLAS thread count: the refiner's GEMMs are bit-reproducible
only for a fixed one. It takes no flags.
"""

import hashlib

import numpy as np

from crossview.geometry import BevGridSpec, SceneSpec
from crossview.pipeline import run_localization
from crossview.refiner import RefinerParams
from crossview.synthetic import make_scene_bundle

SEEDS = (0, 1)
UNREFINED = [(n, snapped, sigma) for n in (9, 21, 41) for snapped in (True, False)
             for sigma in (0.0, 0.2, 0.4)]
REFINED = [(n, snapped, sigma) for n in (9, 21) for snapped in (True, False)
           for sigma in (0.0, 0.2)]


def solves():
    """(specs, bundle, params) of every solve on the list, in a fixed order."""
    for refined, cases in ((False, UNREFINED), (True, REFINED)):
        for n, snapped, sigma in cases:
            specs = SceneSpec(grid=BevGridSpec(n))
            for seed in SEEDS:
                bundle = make_scene_bundle(specs, seed=seed, noise_sigma=sigma, snapped=snapped)
                params = (RefinerParams.random(specs.grid.num_cells, scale=0.03, seed=seed)
                          if refined else None)
                yield specs, bundle, params


def main():
    digest = hashlib.sha256()
    for specs, bundle, params in solves():
        inputs = bundle.inputs
        res = run_localization(inputs.volume, inputs.conf_logits, inputs.f_sat, specs, params)
        matches = res.matches_m
        for part in (res.pose_px.t_px, np.float64(res.pose_px.yaw_rad),
                     np.bool_(res.degenerate), matches.ground_xy, matches.aerial_xy,
                     matches.weights, res.surface):
            part = np.ascontiguousarray(part)
            digest.update(f"{part.dtype.str}{part.shape}".encode())
            digest.update(part.tobytes())
    print(digest.hexdigest())


if __name__ == "__main__":
    main()
