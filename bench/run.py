#!/usr/bin/env python3
"""crossview benchmark: one closed-loop client driving the library in-process.

Run from the repository root:

    python3 bench/run.py --workload localize-n41 --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --smoke               # every workload's path at n=9, in seconds
    python3 bench/run.py --record-reference    # re-record bench/reference/ (about 45 s)

Workloads are described in ``workloads.py``. A run sets its inputs up from
the seed (at least three times and for 2 s; ``setup_s`` is the median),
warms up, then runs operations back to back for ``--seconds`` (at least
one), checking each. BLAS threads are capped at the CPUs the process may
use, and ``crossview`` is imported from this checkout's ``src/``.
``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``.
``--trace 1`` runs the same untraced loop, then a traced pass that calls
each stage's public function itself, then a ``tracemalloc`` pass for the
``*.peak_mb`` numbers, and reports the per-layer metrics. A per-layer
metric whose layer is not on the workload's path reads 0.

The last line of standard output is the result JSON; the line before it
holds the details: environment, sample counts, p90 where at least ten
samples lie beyond it, failure notes.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAYER_MAP = Path(__file__).resolve().parent / "layer_map.json"
WORKLOADS = ("localize-n41", "refine-n41", "score-n41")
SMOKE_N = 9
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS")


def cap_blas_threads() -> int:
    """Cap every BLAS thread pool at the CPUs this process may run on; returns the cap.

    The cap has to be in the environment before numpy is first imported.
    """
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread cap was set")
    cap = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        preset = os.environ.get(var, "")
        if preset.isdigit() and 0 < int(preset) < cap:
            cap = int(preset)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(cap)
    return cap


def import_crossview() -> None:
    """Import ``crossview`` from ``src/`` of this checkout, never a copy installed elsewhere."""
    sys.path.insert(0, str(SRC))
    import crossview  # noqa: F401  (imported here, used by the modules imported after it)
    where = Path(crossview.__file__).resolve().parent.parent
    if where != SRC.resolve():
        raise ImportError(f"crossview was imported from {where}, not from {SRC}")


def load_specs() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def smoke(work_dir: Path, env: dict) -> int:
    """Every workload's code path at n=9, traced and untraced: fails loudly on API drift."""
    import reference
    from harness import run_workload
    from workloads import make_workloads
    specs = load_specs()
    probe = make_workloads(work_dir, n=SMOKE_N, small=True)["refine-n41"]
    record = reference.record(probe)
    workloads = make_workloads(work_dir, n=SMOKE_N, small=True, reference_record=record)
    produced, ok = set(), True
    for name, workload in workloads.items():
        for trace in (False, True):
            details, result, made = run_workload(workload, 1, 0.0, trace, specs, env)
            produced |= made
            good = result["correct"] and all(math.isfinite(m["value"])
                                             for m in result["metrics"].values())
            ok &= good
            print(f"smoke {name} trace={int(trace)}: {'ok' if good else 'FAILED'} "
                  f"(attempted {result['attempted']}, failed {result['failed']}"
                  f"{', ' + '; '.join(details['failures']) if details['failures'] else ''})")
    listed = {m["name"] for m in specs["per_layer"]}
    rows = json.loads(LAYER_MAP.read_text())["rows"]
    mapped = [name for row in rows for name in row["metrics"]]
    end_to_end = {m["name"] for m in specs["end_to_end"]}
    checks = (
        ("listed but never produced", sorted(listed - produced)),
        ("produced but not listed in BENCHMARK.json",
         sorted(n for n in produced - listed if not n.endswith(".peak_mb"))),
        ("missing from layer_map.json, or in it twice",
         sorted(n for n in listed if mapped.count(n) != 1)),
        ("in layer_map.json but not listed", sorted(set(mapped) - listed)),
        ("mapped onto unknown end-to-end metrics",
         sorted(n for row in rows if not set(row["moves"]) <= end_to_end for n in row["metrics"])),
    )
    for what, names in checks:
        if names:
            ok = False
            print(f"smoke: per-layer metrics {what}: {', '.join(names)}")
    print("smoke: ok" if ok else "smoke: FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (args.smoke or args.record_reference or args.workload):
        parser.error("one of --workload, --smoke or --record-reference is required")
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")

    blas_cap = cap_blas_threads()
    try:
        import_crossview()
    except ImportError as exc:
        print(f"error: cannot import crossview from this checkout: {exc}", file=sys.stderr)
        return 2
    # run_localization warns on every refiner-less solve; stderr writes are not the workload
    logging.getLogger("crossview").setLevel(logging.ERROR)

    import reference
    from harness import environment, run_workload
    from workloads import make_workloads

    work_dir = ROOT / ".bench_work" / str(os.getpid())
    try:
        env = environment(blas_cap)
        if args.smoke:
            return smoke(work_dir, env)
        if args.record_reference:
            record = reference.record(make_workloads(work_dir)["refine-n41"])
            reference.REFERENCE_FILE.parent.mkdir(exist_ok=True)
            reference.REFERENCE_FILE.write_text(json.dumps(record) + "\n")
            print(f"wrote {reference.REFERENCE_FILE}")
            return 0
        record = None
        if args.workload == "refine-n41":
            record = json.loads(reference.REFERENCE_FILE.read_text())
        workload = make_workloads(work_dir, reference_record=record)[args.workload]
        details, result, _ = run_workload(workload, args.seed, args.seconds, bool(args.trace),
                                          load_specs(), env)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass   # another run still uses it, or it was never made
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
