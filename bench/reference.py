"""Recorded reference for ``refiner.local_residual`` on one fixed n=41 input.

The traced pass of ``refine-n41`` compares its ``local_residual`` output
against this record, so a rewrite of the 3D convolution is checked without
re-running the naive loop each time. The record is a sketch, not the full
1681 x 1681 output: every row sum, every column sum and a fixed sample of
entries. The tolerance is the 1e-5 of ``test_refiner_branch_oracles``
relative to the largest entry, which a float32 compute dtype still meets.

Re-record (about 45 s at n=41) with:

    python3 bench/run.py --record-reference
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from harness import Untraced

REFERENCE_FILE = Path(__file__).resolve().parent / "reference" / "local_residual_n41.json"
INPUT = {"scene_seed": 1, "sigma": 0.1, "params_seed": 1, "scale": 0.03}
RTOL = 1e-5
SAMPLES = 1024


def sketch(local: np.ndarray) -> dict:
    rows, cols = local.shape
    pick = np.random.default_rng(0).choice(local.size, size=min(SAMPLES, local.size),
                                           replace=False)
    pick.sort()
    return {
        "shape": [rows, cols],
        "max_abs": float(np.abs(local).max()),
        "sample_index": pick.tolist(),
        "sample_value": local.reshape(-1)[pick].tolist(),
        "row_sum": local.sum(axis=1).tolist(),
        "col_sum": local.sum(axis=0).tolist(),
    }


def compare(local: np.ndarray, ref: dict) -> str | None:
    """None when ``local`` agrees with the record, else what disagrees."""
    if list(local.shape) != ref["shape"]:
        return f"local_residual shape {list(local.shape)} != reference {ref['shape']}"
    tol = ref["rtol"] * ref["max_abs"]
    rows, cols = local.shape
    checks = (
        ("sampled entries", local.reshape(-1)[ref["sample_index"]], ref["sample_value"], tol),
        # a sum adds up to one row (or column) of per-entry errors
        ("row sums", local.sum(axis=1), ref["row_sum"], tol * cols),
        ("column sums", local.sum(axis=0), ref["col_sum"], tol * rows),
    )
    for what, got, want, bound in checks:
        dev = float(np.abs(got - np.asarray(want)).max())
        if not dev <= bound:
            return f"local_residual {what} deviate from the reference by {dev:.3g} (> {bound:.3g})"
    return None


def record(workload) -> dict:
    """Reference record for ``workload``'s grid size: its input plus the output sketch."""
    problem = workload.reference_problem(INPUT)
    local = workload.traced_op(problem, Untraced()).local
    return {"input": {"n": workload.n, **INPUT}, "rtol": RTOL, **sketch(local)}
