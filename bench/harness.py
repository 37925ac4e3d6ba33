"""Closed-loop runner, span recorders, statistics and the environment record.

One client runs operations back to back: the next starts when the previous
one returns. End-to-end numbers come from an untraced loop; per-layer
numbers come from a separate traced pass that calls each stage's public
function itself, plus a ``tracemalloc`` pass of its own for peak memory.
"""

from __future__ import annotations

import ctypes
import os
import platform
import resource
import statistics
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

SETUP_MIN_REPEATS = 3     # set-up runs at least this often and this long;
SETUP_MIN_SECONDS = 2.0   # setup_s is the median of those runs
MAX_FAILURE_NOTES = 5


class Untraced:
    """Recorder that only calls: the stage chain runs with no timing around it."""

    def __call__(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    branch = __call__


class Spans:
    """Wall time of each stage call, in ms, keyed by layer name.

    ``__call__`` records a top-level stage, whose times add up to the op's
    traced total; ``branch`` records a call that a top-level stage repeats
    inside itself (a refiner branch), so it is kept out of that total.
    """

    def __init__(self):
        self.ms = defaultdict(list)
        self.op_totals_ms = []
        self._open = None

    def __call__(self, name, fn, *args, **kwargs):
        out, ms = self._time(name, fn, args, kwargs)
        if self._open is not None:
            self._open += ms
        return out

    def branch(self, name, fn, *args, **kwargs):
        return self._time(name, fn, args, kwargs)[0]

    def _time(self, name, fn, args, kwargs):
        start = perf_counter()
        out = fn(*args, **kwargs)
        ms = (perf_counter() - start) * 1e3
        self.ms[name].append(ms)
        return out, ms

    def begin_op(self):
        self._open = 0.0

    def end_op(self):
        self.op_totals_ms.append(self._open)
        self._open = None


class Peaks:
    """Peak traced allocation of each stage call above its starting level, in MB."""

    def __init__(self):
        self.mb = {}

    def __call__(self, name, fn, *args, **kwargs):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args, **kwargs)
        mb = (tracemalloc.get_traced_memory()[1] - base) / 1e6
        self.mb[name] = max(self.mb.get(name, 0.0), mb)
        return out

    branch = __call__


@dataclass
class Tally:
    """Attempted and failed operations, failure notes and per-problem accuracy."""

    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)
    within: dict = field(default_factory=dict)   # problem index -> within one cell

    def record(self, index, problem, outcome, workload):
        """Count one operation; ``outcome`` is the op's return value or the exception it raised."""
        self.attempted += 1
        if isinstance(outcome, Exception):
            note = f"{type(outcome).__name__}: {outcome}"
        else:
            note = workload.check(problem, outcome)
            if note is None:
                self.within.setdefault(index, workload.within_cell(problem, outcome))
                return True
        self.failed += 1
        if len(self.notes) < MAX_FAILURE_NOTES:
            self.notes.append(f"problem {index}: {note}")
        return False


def attempt(fn, *args):
    """Run one operation; an exception is its result, so one bad op cannot end the run."""
    try:
        return fn(*args)
    except Exception as exc:   # counted as a failed operation by Tally.record
        return exc


@dataclass
class LoopResult:
    op_ms: list
    completed: int
    elapsed_s: float
    outcomes: dict   # problem index -> first successful outcome


def closed_loop(workload, problems, seconds, tally) -> LoopResult:
    """Run ops over ``problems`` in order, cycling, until ``seconds`` pass (at least one op)."""
    op_ms, outcomes = [], {}
    completed = 0
    start = perf_counter()
    deadline = start + seconds
    i = 0
    while True:
        index = i % len(problems)
        t0 = perf_counter()
        outcome = attempt(workload.op, problems[index])
        t1 = perf_counter()
        op_ms.append((t1 - t0) * 1e3)
        if tally.record(index, problems[index], outcome, workload):
            completed += 1
            outcomes.setdefault(index, outcome)
        i += 1
        if t1 >= deadline:
            break
    return LoopResult(op_ms, completed, perf_counter() - start, outcomes)


def percentile_report(samples_ms) -> dict:
    """Median, and p90 only where at least ten samples lie beyond it."""
    report = {"samples": len(samples_ms), "p50": statistics.median(samples_ms), "p90": None}
    if len(samples_ms) >= 2:
        p90 = statistics.quantiles(samples_ms, n=10)[-1]
        beyond = sum(1 for s in samples_ms if s > p90)
        report["samples_beyond_p90"] = beyond
        if beyond >= 10:
            report["p90"] = p90
    return report


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0   # Linux: KiB


def _cache_sizes_kb() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction" and size.endswith("K"):
            sizes[f"l{level}_kb"] = int(size[:-1])
    return sizes


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        return {"name": None, "version": None}


def _openblas_threads():
    """Threads the loaded OpenBLAS will use, read from the library itself when it exports it."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment(blas_cap: int) -> dict:
    """What a result depends on besides the code: a comparison across machines shows here."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_info(),
        "blas_threads_cap": blas_cap,
        "blas_threads": _openblas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        **_cache_sizes_kb(),
    }


def run_workload(workload, seed: int, seconds: float, trace: bool, specs: dict, env: dict):
    """One benchmark run; returns (details, result, names of the per-layer numbers made)."""
    setup_spans, setup_s, problems = Spans(), [], None
    while len(setup_s) < SETUP_MIN_REPEATS or sum(setup_s) < SETUP_MIN_SECONDS:
        problems = None   # drop the previous set, so peak memory holds one
        start = perf_counter()
        problems = workload.setup(seed, setup_spans)
        setup_s.append(perf_counter() - start)

    tally = Tally()
    for index, problem in enumerate(problems[:workload.warmup]):
        tally.record(index, problem, attempt(workload.op, problem), workload)
    loop = closed_loop(workload, problems, seconds, tally)
    untimed = 0
    if workload.solve_all:   # the rest of the pool, so within_cell_ratio covers all of it
        for index in range(len(loop.op_ms), len(problems)):
            outcome = attempt(workload.op, problems[index])
            if tally.record(index, problems[index], outcome, workload):
                loop.outcomes.setdefault(index, outcome)
            untimed += 1

    op_ms = percentile_report(loop.op_ms)
    values = {
        "op_ms.p50": op_ms["p50"],
        "ops_per_s": loop.completed / loop.elapsed_s,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb(),
        "within_cell_ratio": (sum(tally.within.values()) / len(tally.within)
                              if tally.within else 0.0),
    }
    details = {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "loop": {"kind": "closed", "clients": 1},
        "op_ms": op_ms, "ops_untimed": untimed, "setup_s_each": setup_s,
        "end_to_end": values, "env": env,
    }
    produced = set()
    if trace:
        layer, trace_details = traced_pass(workload, problems, loop, tally)
        layer.update({f"{name}.ms": statistics.median(ms)
                      for name, ms in setup_spans.ms.items()})
        layer["trace.untraced_op_ms"] = op_ms["p50"]
        layer["trace.overhead_ms"] = layer["trace.traced_op_ms"] - op_ms["p50"]
        details["trace_pass"] = trace_details
        produced = set(layer)
        values = {m["name"]: layer.get(m["name"], 0.0) for m in specs["per_layer"]}
    details.update(attempted=tally.attempted, failed=tally.failed,
                   failed_ratio=tally.failed / tally.attempted, failures=tally.notes)
    listed = specs["per_layer"] if trace else specs["end_to_end"]
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }
    return details, result, produced


def traced_pass(workload, problems, loop, tally):
    """Per-layer numbers: each stage timed on the traced problems, then peaks on the first."""
    spans = Spans()
    traced, compared, agreed = [], 0, 0
    for index, problem in workload.trace_problems(problems):
        spans.begin_op()
        outcome = attempt(workload.traced_op, problem, spans)
        spans.end_op()
        if tally.record(index, problem, outcome, workload):
            traced.append((problem, outcome))
            if index in loop.outcomes:
                compared += 1
                agreed += workload.agrees(loop.outcomes[index], outcome)
    peaks = Peaks()
    if traced:
        problem, first = traced[0]
        tracemalloc.start()
        try:
            workload.traced_op(problem, peaks, reuse=first)
        finally:
            tracemalloc.stop()
    layer = {f"{name}.ms": statistics.median(ms) for name, ms in spans.ms.items()}
    layer.update(workload.trace_findings(traced, layer))
    layer.update({f"{name}.peak_mb": mb for name, mb in peaks.mb.items()})
    layer["trace.traced_op_ms"] = statistics.median(spans.op_totals_ms)
    details = {"traced_ops": len(spans.op_totals_ms),
               "same_answer_as_untraced_op": {"compared": compared, "agreed": agreed},
               "gflop_is": "computed from array shapes",
               "peak_mb_is": "tracemalloc peak above the stage's starting allocation"}
    return layer, details
