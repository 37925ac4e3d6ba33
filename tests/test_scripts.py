"""Smoke tests of the experiment scripts, the README and the benchmark's own smoke run."""

import builtins
import importlib
import pkgutil
import re
import statistics

import pytest

import crossview
from crossview.evaluation import localization_stats
from crossview.geometry import AerialMeta, BevGridSpec, CameraIntrinsics, SceneSpec
from crossview.pipeline import run_localization
from crossview.solver import pose_error
from crossview.synthetic import make_scene_bundle

from conftest import ROOT, python_subprocess


def run_python_proc(*args):
    proc = python_subprocess(*args, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return proc


def run_python(*args):
    return run_python_proc(*args).stdout


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    example = re.search(r"## Library example\n\n```python\n(.*?)```", readme, re.S)
    assert example, "README has no python block under 'Library example'"
    out = run_python("-c", example.group(1))
    assert out.splitlines()[0] == "(0.0, 0.0)"


MODULES = [importlib.import_module(f"crossview.{m.name}")
           for m in pkgutil.iter_modules(crossview.__path__) if not m.name.startswith("_")]


def _is_capwords(token: str) -> bool:
    return bool(re.fullmatch(r"[A-Z][A-Za-z0-9]*", token) and re.search(r"[a-z]", token))


def _readme_names() -> list:
    """Backticked README names of the package: dotted names whose head is a module or a
    class of it, and CapWords names that are not builtins; paths, files and flags aside."""
    text = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)
    heads = {m.__name__.split(".")[-1] for m in MODULES} | {"crossview"}
    names = []
    for token in re.findall(r"`([^`\n]+)`", text):
        if "/" in token or token.endswith(".py") or token.startswith("-"):
            continue
        head = token.split(".")[0]
        if re.fullmatch(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+", token):
            if head in heads or _is_capwords(head):
                names.append(token)
        elif _is_capwords(token) and not hasattr(builtins, token):
            names.append(token)
    return names


def _resolves(name: str) -> bool:
    """Whether ``getattr`` finds ``name`` from the package, a module of it or a name of one."""
    head, *rest = name.split(".")
    if head == "crossview":
        obj = crossview
    else:
        obj = next((getattr(m, head) for m in [crossview, *MODULES] if hasattr(m, head)), None)
    for attr in rest:
        obj = getattr(obj, attr, None)
    return obj is not None


def test_readme_names_resolve_in_the_package():
    names = _readme_names()
    assert len(names) > 30   # the scan still finds the map's names
    assert [name for name in names if not _resolves(name)] == []


def test_noise_sweep_prints_one_row_per_sigma():
    out = run_python(ROOT / "scripts" / "noise_sweep.py", "--n", "9", "--extent", "16",
                     "--seeds", "2", "--sigmas", "0.0")
    header, *rows = out.strip().splitlines()
    assert header.split() == ["sigma", "median_m", "mean_m", "p90_m", "median_deg"]
    assert len(rows) == 1
    sigma, median_m, mean_m, p90_m, median_deg = map(float, rows[0].split())
    assert sigma == 0.0
    assert max(median_m, mean_m, p90_m) < 1e-6
    assert median_deg < 1e-6


def test_noise_sweep_median_is_the_eval_median():
    # four solves: an even count, where median_low and np.median part ways
    out = run_python(ROOT / "scripts" / "noise_sweep.py", "--n", "9", "--extent", "16",
                     "--seeds", "4", "--sigmas", "0.6")
    _, median_m, mean_m, _, median_deg = map(float, out.strip().splitlines()[1].split())
    specs = SceneSpec(grid=BevGridSpec(9, 16.0), intrinsics=CameraIntrinsics(512, 256),
                      aerial=AerialMeta(image_size_px=512))
    errors = []
    for seed in range(4):
        bundle = make_scene_bundle(specs, seed=seed, noise_sigma=0.6)
        res = run_localization(bundle.inputs.volume, bundle.inputs.conf_logits,
                               bundle.inputs.f_sat, specs)
        errors.append(pose_error(res.pose_px, bundle.scene.gt_pose, specs.aerial))
    stats = localization_stats(errors)
    assert statistics.median(t for t, _ in errors) != stats["median_translation_m"]
    assert median_m == float(f"{stats['median_translation_m']:.4g}")
    assert mean_m == float(f"{stats['mean_translation_m']:.4g}")
    assert median_deg == float(f"{stats['median_orientation_deg']:.4g}")


def test_noise_sweep_keeps_stderr_free_of_refinement_warnings():
    proc = run_python_proc(ROOT / "scripts" / "noise_sweep.py", "--n", "9", "--extent", "16",
                           "--seeds", "2", "--sigmas", "0.0")
    assert "skipping refinement" not in proc.stderr


@pytest.mark.parametrize("sigmas, detail", [
    ("0.1,x", "could not convert string to float: 'x'"),
    ("0.1,nan", "got nan"),
    ("0.1,-0.2", "got -0.2"),
    ("inf", "got inf"),
], ids=["not-a-number", "nan", "negative", "infinite"])
def test_noise_sweep_rejects_bad_sigmas_before_sweeping(sigmas, detail):
    proc = python_subprocess(ROOT / "scripts" / "noise_sweep.py", "--n", "9", "--extent", "16",
                             "--seeds", "2", "--sigmas", sigmas, cwd=ROOT)
    assert proc.returncode == 2
    assert "argument --sigmas: " in proc.stderr and detail in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("seeds", ["0", "-3"])
def test_noise_sweep_rejects_seeds_below_one_before_sweeping(seeds):
    proc = python_subprocess(ROOT / "scripts" / "noise_sweep.py", "--n", "9", "--seeds", seeds,
                             cwd=ROOT)
    assert proc.returncode == 2
    assert f"--seeds must be at least 1, got {seeds}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("flags, detail", [
    (("--n", "8"), "--n must be odd so the camera sits on a grid point, got 8"),
    (("--n", "9", "--extent", "-1"), "grid extent must be finite and positive, got -1.0"),
], ids=["even-grid", "negative-extent"])
def test_noise_sweep_rejects_bad_grid_before_sweeping(flags, detail):
    proc = python_subprocess(ROOT / "scripts" / "noise_sweep.py", *flags, "--seeds", "1",
                             cwd=ROOT)
    assert proc.returncode == 2
    assert detail in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_noise_sweep_continuous_pose_lands_within_one_cell():
    out = run_python(ROOT / "scripts" / "noise_sweep.py", "--n", "9", "--extent", "16",
                     "--seeds", "2", "--sigmas", "0.0", "--continuous")
    _, *rows = out.strip().splitlines()
    assert len(rows) == 1
    sigma, median_m, mean_m, p90_m, _ = map(float, rows[0].split())
    cell_m = 16.0 / (9 - 1)
    assert sigma == 0.0
    assert max(median_m, mean_m, p90_m) < cell_m
    # continuous poses are not resampled exactly, so the error is not at numerical zero
    assert max(median_m, mean_m, p90_m) > 1e-6


def test_bench_smoke_passes():
    out = run_python(ROOT / "bench" / "run.py", "--smoke")
    assert out.splitlines()[-1] == "smoke: ok"
