import argparse
import inspect
import json
import math
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from crossview import cli, refiner
from crossview.evaluation import save_gt_projection
from crossview.geometry import AerialMeta, BevGridSpec, SceneSpec
from crossview.pipeline import PipelineConfig
from crossview.synthetic import generate_scene, load_scene_dir, make_scene_bundle, save_scene_dir
from crossview.tensorio import load_tensor, save_tensor, save_tensor_dir

from conftest import ROOT, python_subprocess, to_legacy_scene_layout


def run_cli(*args, check=True):
    proc = python_subprocess("-m", "crossview", *args)
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed ({proc.returncode}): {proc.stderr}")
    return proc


def generate_scene_dir(tmp_path, name="scene", seed=0, n=9, noise=0.0):
    out = tmp_path / name
    run_cli("generate", "--seed", seed, "--n", n, "--noise", noise, "--out-dir", out)
    return out


def dir_snapshot(path: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


class TestGenerate:
    def test_same_seed_gives_byte_identical_outputs(self, tmp_path):
        a = generate_scene_dir(tmp_path, "a", seed=3)
        b = generate_scene_dir(tmp_path, "b", seed=3)
        snap_a, snap_b = dir_snapshot(a), dir_snapshot(b)
        assert snap_a.keys() == snap_b.keys()
        for name in snap_a:
            assert snap_a[name] == snap_b[name], name

    def test_grid_size_flag_lands_in_headers(self, tmp_path):
        out = generate_scene_dir(tmp_path, seed=1, n=9)
        assert load_tensor(out / "depth_sat.cvt").shape == (9, 9)
        assert load_tensor(out / "f_sat.cvt").shape[:2] == (9, 9)

    def test_manifest_matches_tensor_headers(self, tmp_path):
        out = generate_scene_dir(tmp_path, seed=2)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["tensors"]  # non-empty listing
        for name, dims in manifest["tensors"].items():
            assert list(load_tensor(out / f"{name}.cvt").shape) == dims

    @pytest.mark.parametrize("n", ["9", "41"])   # 41 is also the library default
    def test_grid_size_flag_next_to_a_spec_file_is_input_error(self, tmp_path, n):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SceneSpec(grid=BevGridSpec(11)).to_json_dict()))
        proc = run_cli("generate", "--seed", "0", "--n", n, "--spec-json", spec_path,
                       "--out-dir", tmp_path / "out", check=False)
        assert proc.returncode == 2
        assert proc.stderr == "error: --n cannot be combined with --spec-json\n"
        assert not (tmp_path / "out").exists()

    def test_even_grid_is_input_error(self, tmp_path):
        proc = run_cli("generate", "--seed", "0", "--n", "8",
                       "--out-dir", tmp_path / "bad", check=False)
        assert proc.returncode == 2

    @pytest.mark.parametrize("flag, value, detail", [
        ("--channels", "0", "channels must be at least 1"),
        ("--noise", "nan", "noise_sigma must be finite and non-negative"),
        ("--seed", "-1", "seed must be non-negative, got -1"),
    ])
    def test_bad_scene_argument_is_input_error_and_writes_nothing(self, tmp_path, flag, value,
                                                                  detail):
        proc = run_cli("generate", "--seed", "0", "--n", "9", flag, value,
                       "--out-dir", tmp_path / "bad", check=False)
        assert proc.returncode == 2
        assert detail in proc.stderr
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("key, detail", [
        ("z_max", "z_min_m and z_max_m must be finite"),
        ("extent_m", "grid extent must be finite and positive"),
        ("gsd", "gsd must be finite and positive"),
    ])
    def test_infinite_spec_geometry_is_input_error_naming_the_spec_file(self, tmp_path, key,
                                                                        detail):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({**SceneSpec(grid=BevGridSpec(9)).to_json_dict(),
                                         key: math.inf}))   # written as Infinity
        proc = run_cli("generate", "--seed", "0", "--spec-json", spec_path,
                       "--out-dir", tmp_path / "out", check=False)
        assert proc.returncode == 2
        assert f"error: {spec_path}: " in proc.stderr and detail in proc.stderr
        assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["debug", "Info"])
    def test_log_level_name_in_any_case(self, tmp_path, value):
        proc = python_subprocess("-m", "crossview", "generate", "--seed", "0", "--n", "9",
                                 "--out-dir", tmp_path / "out", env={"CROSSVIEW_LOG": value})
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / "manifest.json").exists()

    # WARN is a logging alias, but not one of the names the error message lists
    @pytest.mark.parametrize("value", ["verbose", "warn"])
    def test_unknown_log_level_is_input_error_and_writes_nothing(self, tmp_path, value):
        proc = python_subprocess("-m", "crossview", "generate", "--seed", "0", "--n", "9",
                                 "--out-dir", tmp_path / "out", env={"CROSSVIEW_LOG": value})
        assert proc.returncode == 2
        assert f"error: CROSSVIEW_LOG: unknown log level '{value}'" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()


class TestSolve:
    def test_recovers_planted_pose(self, tmp_path):
        out = generate_scene_dir(tmp_path, seed=4)
        proc = run_cli("solve", "--scene-dir", out, "--topk", "20")
        payload = json.loads(proc.stdout)
        manifest = json.loads((out / "manifest.json").read_text())
        gt = manifest["gt_pose"]
        err_px = math.hypot(payload["tx_px"] - gt["tx_px"],
                            payload["ty_px"] - gt["ty_px"])
        assert err_px * 0.12 < 1e-6
        assert payload["degenerate_flag"] is False
        assert payload["num_matches"] == 20

    def test_known_yaw_takes_translation_only_path(self, tmp_path):
        out = generate_scene_dir(tmp_path, seed=0)  # north-aligned seed
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["gt_pose"]["yaw_rad"] == 0.0
        proc = run_cli("solve", "--scene-dir", out, "--topk", "20",
                       "--known-yaw", "0")
        payload = json.loads(proc.stdout)
        assert payload["yaw_deg"] == 0.0
        gt = manifest["gt_pose"]
        err_px = math.hypot(payload["tx_px"] - gt["tx_px"],
                            payload["ty_px"] - gt["ty_px"])
        assert err_px * 0.12 < 1e-6

    def test_missing_refiner_params_warns_and_solves(self, tmp_path):
        out = generate_scene_dir(tmp_path, seed=5)
        proc = run_cli("solve", "--scene-dir", out)
        assert "skipping refinement" in proc.stderr

    @pytest.mark.parametrize("command", ["solve", "loss"])
    @pytest.mark.parametrize("threshold", ["1.5", "0", "nan"])
    def test_bad_threshold_fails_before_reading_the_scene(self, tmp_path, command, threshold):
        pose_path = tmp_path / "pose.json"
        pose_path.write_text(json.dumps({"tx_px": 0.0, "ty_px": 0.0, "yaw_deg": 0.0}))
        extra = ("--pred-pose", pose_path) if command == "loss" else ()
        proc = run_cli(command, "--scene-dir", tmp_path / "nope", *extra,
                       "--threshold", threshold, check=False)
        assert proc.returncode == 2
        assert "error: threshold must lie strictly inside (0, 1)" in proc.stderr
        assert "manifest" not in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("flag,value", [("--topk", "100000"), ("--known-yaw", "nan")])
    def test_bad_settings_fail_before_the_pipeline(self, tmp_path, flag, value):
        out = generate_scene_dir(tmp_path, seed=5)
        proc = run_cli("solve", "--scene-dir", out, flag, value, check=False)
        assert proc.returncode == 2
        assert "error:" in proc.stderr
        assert "skipping refinement" not in proc.stderr

    def test_determinism(self, tmp_path):
        out = generate_scene_dir(tmp_path, seed=6)
        a = run_cli("solve", "--scene-dir", out, "--topk", "15")
        b = run_cli("solve", "--scene-dir", out, "--topk", "15")
        assert a.stdout == b.stdout

    def test_shape_mismatch_is_input_error(self, tmp_path):
        out = generate_scene_dir(tmp_path, seed=7, n=9)
        other = generate_scene_dir(tmp_path, "other", seed=7, n=11)
        spec = json.loads((out / "manifest.json").read_text())["spec"]
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        proc = run_cli("solve",
                       "--volume", other / "volume.cvt",
                       "--conf-logits", other / "conf_logits.cvt",
                       "--f-sat", other / "f_sat.cvt",
                       "--spec-json", spec_path, check=False)
        assert proc.returncode == 2
        assert "error:" in proc.stderr

    @pytest.mark.parametrize("given, flag", [
        (("--volume",), "--volume"),
        (("--conf-logits",), "--conf-logits"),
        (("--f-sat",), "--f-sat"),
        (("--spec-json",), "--spec-json"),
        (("--spec-json", "--f-sat", "--conf-logits", "--volume"), "--volume"),
    ], ids=["volume", "conf-logits", "f-sat", "spec-json", "all"])
    def test_loose_tensor_flag_next_to_scene_dir_is_input_error(self, tmp_path,
                                                                shared_scene_dir, given, flag):
        # the named files do not exist: the flag check comes before any read
        loose = [arg for name in given for arg in (name, tmp_path / "missing")]
        proc = run_cli("solve", "--scene-dir", shared_scene_dir, *loose,
                       "--out", tmp_path / "pose.json", check=False)
        assert proc.returncode == 2
        assert f"error: {flag} cannot be combined with --scene-dir" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "pose.json").exists()

    def test_even_grid_solves_from_loose_tensors(self, tmp_path):
        # only the synthetic harness needs the camera on a grid point
        n, m, c = 8, 11, 4
        rng = np.random.default_rng(3)
        f_sat = rng.standard_normal((n, n, c))
        volume = np.zeros((m, n, n, c))
        volume[4] = f_sat
        conf_logits = np.zeros((m, n, n))
        conf_logits[4] = 15.0
        for name, tensor in (("volume", volume), ("conf_logits", conf_logits),
                             ("f_sat", f_sat)):
            save_tensor(tmp_path / f"{name}.cvt", tensor)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SceneSpec(grid=BevGridSpec(n, 14.0)).to_json_dict()))
        proc = run_cli("solve", "--volume", tmp_path / "volume.cvt",
                       "--conf-logits", tmp_path / "conf_logits.cvt",
                       "--f-sat", tmp_path / "f_sat.cvt", "--spec-json", spec_path)
        payload = json.loads(proc.stdout)
        assert payload["num_matches"] == PipelineConfig().top_k
        assert payload["yaw_deg"] == pytest.approx(0.0, abs=1e-9)

    def test_truncated_tensor_header_is_input_error(self, tmp_path):
        out = generate_scene_dir(tmp_path, seed=7)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(json.loads((out / "manifest.json").read_text())["spec"]))
        short = tmp_path / "short.cvt"
        short.write_bytes(b"CVT1\x04\x00")
        proc = run_cli("solve", "--volume", short, "--conf-logits", out / "conf_logits.cvt",
                       "--f-sat", out / "f_sat.cvt", "--spec-json", spec_path, check=False)
        assert proc.returncode == 2
        assert "error:" in proc.stderr and "header truncated" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_non_finite_refiner_params_fail_before_refining(self, tmp_path, monkeypatch,
                                                            capsys):
        out = generate_scene_dir(tmp_path, seed=5)
        params = refiner.RefinerParams.random(81, seed=1)
        params.save(tmp_path / "params")
        kernel = params.conv_kernels[0].copy()
        kernel.flat[0] = np.nan
        save_tensor(tmp_path / "params" / "conv0_kernel.cvt", kernel)

        def must_not_run(*args, **kwargs):
            raise AssertionError("local_residual ran on invalid parameters")

        monkeypatch.setattr(refiner, "local_residual", must_not_run)
        code = cli.main(["solve", "--scene-dir", str(out),
                         "--refiner-params", str(tmp_path / "params")])
        assert code == 2
        assert "refiner parameters must be finite" in capsys.readouterr().err

    def test_refiner_params_for_another_grid_is_input_error(self, tmp_path):
        out = generate_scene_dir(tmp_path, seed=5)
        refiner.RefinerParams.random(16, seed=1).save(tmp_path / "params")
        proc = run_cli("solve", "--scene-dir", out, "--refiner-params", tmp_path / "params",
                       check=False)
        assert proc.returncode == 2
        assert "error: parameters sized for a different patch count" in proc.stderr

    def test_refiner_params_with_mis_chained_conv_is_input_error(self, tmp_path):
        out = generate_scene_dir(tmp_path, seed=5)
        params_dir = tmp_path / "params"
        refiner.RefinerParams.random(81, seed=1).save(params_dir)
        save_tensor(params_dir / "conv1_kernel.cvt", np.zeros((8, 4, 3, 3, 3)))
        manifest = json.loads((params_dir / "manifest.json").read_text())
        manifest["tensors"]["conv1_kernel"] = [8, 4, 3, 3, 3]
        (params_dir / "manifest.json").write_text(json.dumps(manifest))
        proc = run_cli("solve", "--scene-dir", out, "--refiner-params", params_dir,
                       check=False)
        assert proc.returncode == 2
        assert "error: convolution channel chain is inconsistent" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_refiner_params_without_layer_count_is_input_error(self, tmp_path):
        out = generate_scene_dir(tmp_path, seed=5)
        refiner.RefinerParams.random(81, seed=1).save(tmp_path / "params")
        manifest_path = tmp_path / "params" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["num_conv_layers"]
        manifest_path.write_text(json.dumps(manifest))
        proc = run_cli("solve", "--scene-dir", out, "--refiner-params", tmp_path / "params",
                       check=False)
        assert proc.returncode == 2
        assert "manifest does not list layer count 'num_conv_layers'" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_refiner_params_with_bool_layer_count_is_input_error(self, tmp_path):
        out = generate_scene_dir(tmp_path, seed=5)
        refiner.RefinerParams.random(81, seed=1).save(tmp_path / "params")
        manifest_path = tmp_path / "params" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["num_gate_layers"] = True
        manifest_path.write_text(json.dumps(manifest))
        proc = run_cli("solve", "--scene-dir", out, "--refiner-params", tmp_path / "params",
                       check=False)
        assert proc.returncode == 2
        assert "params: manifest layer count num_gate_layers: expected an integer, got True" \
            in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("edit", ["drop-tensors", "not-an-object"])
    def test_refiner_params_manifest_without_tensors_is_input_error(self, tmp_path, edit):
        out = generate_scene_dir(tmp_path, seed=5)
        refiner.RefinerParams.random(81, seed=1).save(tmp_path / "params")
        manifest_path = tmp_path / "params" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        if edit == "drop-tensors":
            del manifest["tensors"]
            expected = "manifest has no 'tensors' object"
        else:
            manifest = [manifest]
            expected = "manifest is not a JSON object"
        manifest_path.write_text(json.dumps(manifest))
        proc = run_cli("solve", "--scene-dir", out, "--refiner-params", tmp_path / "params",
                       check=False)
        assert proc.returncode == 2
        assert f"error: {tmp_path / 'params'}: {expected}" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_nan_azimuth_offset_is_input_error(self, tmp_path):
        out = generate_scene_dir(tmp_path, seed=5)
        spec = json.loads((out / "manifest.json").read_text())["spec"]
        spec["azimuth_offset"] = math.nan
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        proc = run_cli("solve", "--volume", out / "volume.cvt",
                       "--conf-logits", out / "conf_logits.cvt", "--f-sat", out / "f_sat.cvt",
                       "--spec-json", spec_path, check=False)
        assert proc.returncode == 2
        assert "azimuth offset must be finite" in proc.stderr

    def test_continuous_pose_lands_within_one_cell_and_reruns_identically(self, tmp_path):
        runs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run_cli("generate", "--seed", 0, "--n", 11, "--continuous-pose", "--out-dir", out)
            runs.append((dir_snapshot(out), run_cli("solve", "--scene-dir", out).stdout))
        assert runs[0] == runs[1]
        manifest = json.loads(runs[0][0]["manifest.json"])
        gt, payload = manifest["gt_pose"], json.loads(runs[0][1])
        err_m = math.hypot(payload["tx_px"] - gt["tx_px"], payload["ty_px"] - gt["ty_px"]) \
            * manifest["spec"]["gsd"]
        assert err_m < BevGridSpec(11).spacing_m
        assert gt["yaw_rad"] % (math.pi / 2) != 0.0  # not a grid-snapped pose

    def test_degenerate_correspondences_exit_three(self, tmp_path):
        # constant features everywhere: every row of the similarity matrix is
        # identical, matches collapse onto one ground cell
        out = generate_scene_dir(tmp_path, seed=8, n=9)
        bundle = load_scene_dir(out)
        n, c = 9, bundle.inputs.f_sat.data.shape[2]
        m = bundle.specs.layers.num_layers
        flat = np.zeros((n, n, c))
        flat[..., 0] = 1.0
        vol = np.zeros((m, n, n, c))
        vol[4] = flat
        logits = np.zeros((m, n, n))
        logits[4] = 15.0
        save_tensor(tmp_path / "vol.cvt", vol)
        save_tensor(tmp_path / "logits.cvt", logits)
        save_tensor(tmp_path / "sat.cvt", flat)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(bundle.specs.to_json_dict()))
        proc = run_cli("solve", "--volume", tmp_path / "vol.cvt",
                       "--conf-logits", tmp_path / "logits.cvt",
                       "--f-sat", tmp_path / "sat.cvt",
                       "--spec-json", spec_path, check=False)
        assert proc.returncode == 3
        assert json.loads(proc.stdout)["degenerate_flag"] is True


class TestEvalMatching:
    def build_gt_dir(self, tmp_path):
        h, w = 32, 64
        valid = np.zeros((h, w), dtype=bool)
        valid[:, :32] = True
        sat = np.zeros((h, w, 2))
        vv, uu = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
        sat[..., 0] = 100.0 + uu
        sat[..., 1] = 50.0 + vv
        sat[~valid] = np.nan
        gt_dir = tmp_path / "gt"
        save_gt_projection(gt_dir, sat)
        return gt_dir

    def write_pred(self, tmp_path, rows):
        path = tmp_path / "pred.csv"
        path.write_text("xg,yg,xs,ys\n" + "\n".join(rows) + ("\n" if rows else ""))
        return path

    def test_perfect_predictions(self, tmp_path):
        gt_dir = self.build_gt_dir(tmp_path)
        rows = [f"{u},{5},{100 + u},{55}" for u in range(30)]
        pred = self.write_pred(tmp_path, rows)
        proc = run_cli("eval", "--pred-csv", pred, "--gt-dir", gt_dir,
                       "--mode", "matching")
        report = json.loads(proc.stdout)
        assert report["ratios"] == [1.0, 1.0, 1.0]
        assert report["valid_ratio"] == 1.0

    def test_planted_forty_percent(self, tmp_path):
        gt_dir = self.build_gt_dir(tmp_path)
        rows = [f"{u},5,{100 + u + 3},55" for u in range(12)]
        rows += [f"{40 + u % 20},5,0,0" for u in range(18)]
        pred = self.write_pred(tmp_path, rows)
        out_json = tmp_path / "report.json"
        run_cli("eval", "--pred-csv", pred, "--gt-dir", gt_dir,
                "--mode", "matching", "--thresholds", "5", "--out", out_json)
        report = json.loads(out_json.read_text())
        assert report["ratios"] == [pytest.approx(0.4)]
        assert report["valid_ratio"] == pytest.approx(0.4)

    def test_empty_prediction_file_is_error(self, tmp_path):
        gt_dir = self.build_gt_dir(tmp_path)
        pred = self.write_pred(tmp_path, [])
        proc = run_cli("eval", "--pred-csv", pred, "--gt-dir", gt_dir,
                       "--mode", "matching", "--out", tmp_path / "r.json",
                       check=False)
        assert proc.returncode == 2
        assert not (tmp_path / "r.json").exists()

    def test_malformed_row_reports_line_number(self, tmp_path):
        gt_dir = self.build_gt_dir(tmp_path)
        pred = self.write_pred(tmp_path, ["1,2,3,4", "nope,2,3,4"])
        proc = run_cli("eval", "--pred-csv", pred, "--gt-dir", gt_dir,
                       "--mode", "matching", check=False)
        assert proc.returncode == 2
        assert "line 3" in proc.stderr

    def test_non_finite_row_is_input_error(self, tmp_path):
        gt_dir = self.build_gt_dir(tmp_path)
        pred = self.write_pred(tmp_path, ["1,5,101,55", "nan,2,3,4"])
        proc = run_cli("eval", "--pred-csv", pred, "--gt-dir", gt_dir, "--mode", "matching",
                       "--out", tmp_path / "r.json", check=False)
        assert proc.returncode == 2
        assert "pred.csv: non-finite value at line 3" in proc.stderr
        assert "Warning" not in proc.stderr
        assert not (tmp_path / "r.json").exists()

    def test_nan_threshold_is_input_error(self, tmp_path):
        gt_dir = self.build_gt_dir(tmp_path)
        pred = self.write_pred(tmp_path, ["1,5,101,55"])
        proc = run_cli("eval", "--pred-csv", pred, "--gt-dir", gt_dir, "--mode", "matching",
                       "--thresholds", "nan,5", "--out", tmp_path / "r.json", check=False)
        assert proc.returncode == 2
        assert "finite and positive" in proc.stderr
        assert not (tmp_path / "r.json").exists()


    def test_unparsable_threshold_names_the_flag(self, tmp_path):
        gt_dir = self.build_gt_dir(tmp_path)
        pred = self.write_pred(tmp_path, ["1,5,101,55"])
        proc = run_cli("eval", "--pred-csv", pred, "--gt-dir", gt_dir, "--mode", "matching",
                       "--thresholds", "5,x", "--out", tmp_path / "r.json", check=False)
        assert proc.returncode == 2
        assert "error: --thresholds: could not convert string to float: 'x'" in proc.stderr
        assert not (tmp_path / "r.json").exists()

    def test_empty_thresholds_is_input_error(self, tmp_path):
        gt_dir = self.build_gt_dir(tmp_path)
        pred = self.write_pred(tmp_path, ["1,5,101,55"])
        proc = run_cli("eval", "--pred-csv", pred, "--gt-dir", gt_dir, "--mode", "matching",
                       "--thresholds", "", "--out", tmp_path / "r.json", check=False)
        assert proc.returncode == 2
        assert "error: --thresholds: could not convert string to float: ''" in proc.stderr
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("value, detail", [
        ("5,x", "could not convert string to float: 'x'"),
        ("nan,5", "thresholds must be finite and positive"),
    ], ids=["unparsable", "nan"])
    def test_bad_thresholds_reported_before_any_file_is_read(self, tmp_path, value, detail):
        proc = run_cli("eval", "--pred-csv", tmp_path / "missing.csv",
                       "--gt-dir", tmp_path / "missing-gt", "--mode", "matching",
                       "--thresholds", value, "--out", tmp_path / "r.json", check=False)
        assert proc.returncode == 2
        assert f"error: --thresholds: {detail}" in proc.stderr
        assert "missing.csv" not in proc.stderr

    def test_gt_dir_without_manifest_is_input_error(self, tmp_path):
        gt_dir = self.build_gt_dir(tmp_path)
        (gt_dir / "manifest.json").unlink()
        assert sorted(p.name for p in gt_dir.iterdir()) == ["gt_xy.cvt"]
        pred = self.write_pred(tmp_path, ["1,5,101,55"])
        proc = run_cli("eval", "--pred-csv", pred, "--gt-dir", gt_dir, "--mode", "matching",
                       check=False)
        assert proc.returncode == 2
        assert "error:" in proc.stderr
        assert "Traceback" not in proc.stderr

    def edit_manifest_tensors(self, gt_dir, edit):
        manifest = json.loads((gt_dir / "manifest.json").read_text())
        edit(manifest["tensors"])
        (gt_dir / "manifest.json").write_text(json.dumps(manifest))

    def test_manifest_name_outside_gt_dir_is_input_error(self, tmp_path):
        gt_dir = self.build_gt_dir(tmp_path)
        (tmp_path / "outside").mkdir()
        save_tensor(tmp_path / "outside" / "secret.cvt", np.zeros((32, 64)))
        self.edit_manifest_tensors(gt_dir, lambda t: t.update({"../outside/secret": [32, 64]}))
        pred = self.write_pred(tmp_path, ["1,5,101,55"])
        proc = run_cli("eval", "--pred-csv", pred, "--gt-dir", gt_dir, "--mode", "matching",
                       check=False)
        assert proc.returncode == 2
        assert "'../outside/secret' is not a bare file name" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_gt_dir_missing_tensor_is_input_error(self, tmp_path):
        gt_dir = self.build_gt_dir(tmp_path)
        self.edit_manifest_tensors(gt_dir, lambda t: t.pop("gt_xy"))
        pred = self.write_pred(tmp_path, ["1,5,101,55"])
        proc = run_cli("eval", "--pred-csv", pred, "--gt-dir", gt_dir, "--mode", "matching",
                       check=False)
        assert proc.returncode == 2
        assert "manifest does not list tensor 'gt_xy'" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_gt_dir_target_shape_mismatch_is_input_error(self, tmp_path):
        gt_dir = self.build_gt_dir(tmp_path)
        save_tensor(gt_dir / "gt_xy.cvt", np.zeros((32, 64, 3), dtype=np.float32))
        self.edit_manifest_tensors(gt_dir, lambda t: t.update(gt_xy=[32, 64, 3]))
        pred = self.write_pred(tmp_path, ["1,5,101,55"])
        proc = run_cli("eval", "--pred-csv", pred, "--gt-dir", gt_dir, "--mode", "matching",
                       check=False)
        assert proc.returncode == 2
        assert f"{gt_dir}: gt_xy has shape (32, 64, 3), expected (H, W, 2)" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("value, detail", [
        (np.inf, "gt_xy holds an infinite entry"),
        (np.nan, "gt_xy holds a pixel with exactly one NaN coordinate"),
    ], ids=["infinite", "half-nan"])
    def test_gt_dir_bad_target_is_input_error(self, tmp_path, value, detail):
        gt_dir = self.build_gt_dir(tmp_path)
        stored = load_tensor(gt_dir / "gt_xy.cvt")
        stored[5, 1, 0] = value   # a pixel inside the region
        save_tensor(gt_dir / "gt_xy.cvt", stored)
        pred = self.write_pred(tmp_path, ["1,5,101,55"])
        proc = run_cli("eval", "--pred-csv", pred, "--gt-dir", gt_dir, "--mode", "matching",
                       "--out", tmp_path / "r.json", check=False)
        assert proc.returncode == 2
        assert proc.stderr == f"error: {gt_dir}: {detail}\n"
        assert not (tmp_path / "r.json").exists()

    def test_v1_gt_dir_is_input_error(self, tmp_path):
        # the retired layout: zero-filled targets beside a 0/1 region mask
        gt_dir = tmp_path / "gt"
        save_tensor_dir(gt_dir, "gt-projection-v1",
                        {"gt_sat_x": np.zeros((32, 64)), "gt_sat_y": np.zeros((32, 64)),
                         "gt_valid": np.ones((32, 64))})
        pred = self.write_pred(tmp_path, ["1,5,101,55"])
        proc = run_cli("eval", "--pred-csv", pred, "--gt-dir", gt_dir, "--mode", "matching",
                       check=False)
        assert proc.returncode == 2
        assert proc.stderr == (f"error: {gt_dir}: unknown format 'gt-projection-v1', "
                               "expected 'gt-projection-v2'\n")


def write_pose(path, tx_px, ty_px, yaw_deg):
    path.write_text(json.dumps({"tx_px": tx_px, "ty_px": ty_px, "yaw_deg": yaw_deg}))
    return path


class TestEvalLocalization:
    def setup_scenes(self, tmp_path):
        """Three scenes, the second at twice the GSD, and a pose JSON for each.

        The first two poses are 10 px off (1.2 m and 2.4 m); the first is 10
        degrees off in yaw; the third pose is exact.
        """
        scenes, poses = [], []
        for i, gsd in enumerate((0.12, 0.24, 0.12)):
            specs = SceneSpec(grid=BevGridSpec(9, 16.0), aerial=AerialMeta(gsd))
            scene = tmp_path / f"scene{i}"
            save_scene_dir(scene, make_scene_bundle(specs, seed=i))
            gt = load_scene_dir(scene).scene.gt_pose
            shift = 10.0 if i < 2 else 0.0
            yaw = gt.yaw_deg + (10.0 if i == 0 else 0.0)
            scenes.append(scene)
            poses.append(write_pose(tmp_path / f"pose{i}.json", gt.t_px[0] + shift,
                                    gt.t_px[1], yaw))
        return scenes, poses

    @staticmethod
    def pair_args(scenes, poses):
        args = []
        for scene, pose in zip(scenes, poses):
            args += ["--scene-dir", scene, "--pred-pose", pose]
        return args

    def test_stats_report(self, tmp_path):
        scenes, poses = self.setup_scenes(tmp_path)
        proc = run_cli("eval", "--mode", "localization", *self.pair_args(scenes, poses))
        report = json.loads(proc.stdout)
        assert report["mode"] == "localization"
        assert report["count"] == 3
        assert report["mean_translation_m"] == pytest.approx(1.2)
        assert report["median_translation_m"] == pytest.approx(1.2)
        assert report["mean_orientation_deg"] == pytest.approx(10.0 / 3)
        assert report["median_orientation_deg"] == pytest.approx(0.0, abs=1e-9)

    def test_scores_the_cli_solves_of_generated_scenes(self, tmp_path):
        args = []
        for seed in range(3):
            scene = generate_scene_dir(tmp_path, f"scene{seed}", seed=seed)
            pose = tmp_path / f"pose{seed}.json"
            run_cli("solve", "--scene-dir", scene, "--out", pose)
            args += ["--scene-dir", scene, "--pred-pose", pose]
        report = json.loads(run_cli("eval", "--mode", "localization", *args).stdout)
        assert report["count"] == 3
        assert report["median_translation_m"] <= 1e-9

    def test_reads_the_manifests_and_no_tensor(self, tmp_path):
        scenes, poses = self.setup_scenes(tmp_path)
        args = ("eval", "--mode", "localization", *self.pair_args(scenes, poses))
        before = run_cli(*args).stdout
        for scene in scenes:
            for tensor in scene.glob("*.cvt"):
                tensor.unlink()
        assert run_cli(*args).stdout == before

    def test_count_mismatch_is_error(self, tmp_path):
        scenes, poses = self.setup_scenes(tmp_path)
        proc = run_cli("eval", "--mode", "localization", *self.pair_args(scenes, poses),
                       "--scene-dir", tmp_path / "nope", "--out", tmp_path / "r.json",
                       check=False)
        assert proc.returncode == 2
        assert "error: 3 --pred-pose files for 4 --scene-dir directories" in proc.stderr
        assert not (tmp_path / "r.json").exists()

    def test_thresholds_flag_is_input_error(self, tmp_path):
        scenes, poses = self.setup_scenes(tmp_path)
        proc = run_cli("eval", "--mode", "localization", *self.pair_args(scenes, poses),
                       "--thresholds", "5,x", "--out", tmp_path / "r.json", check=False)
        assert proc.returncode == 2
        assert "error: --thresholds applies only to --mode matching" in proc.stderr
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("mode, given, flag, other", [
        ("localization", ("--pred-pose", "p.json", "--scene-dir", "s", "--pred-csv", "x.csv"),
         "--pred-csv", "matching"),
        ("localization", ("--pred-pose", "p.json", "--scene-dir", "s", "--gt-dir", "g"),
         "--gt-dir", "matching"),
        ("matching", ("--pred-csv", "x.csv", "--gt-dir", "g", "--scene-dir", "s"),
         "--scene-dir", "localization"),
        ("matching", ("--pred-csv", "x.csv", "--gt-dir", "g", "--pred-pose", "p.json"),
         "--pred-pose", "localization"),
    ], ids=["pred-csv", "gt-dir", "scene-dir", "pred-pose"])
    def test_flag_of_the_other_mode_is_input_error(self, tmp_path, mode, given, flag, other):
        # none of the named files exists: the flag check comes before any read
        proc = run_cli("eval", "--mode", mode, *given, "--out", tmp_path / "r.json",
                       check=False)
        assert proc.returncode == 2
        assert f"error: {flag} applies only to --mode {other}" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("mode, given, missing", [
        ("localization", ("--scene-dir", "s"), "--pred-pose"),
        ("localization", ("--pred-pose", "p.json"), "--scene-dir"),
        ("matching", ("--pred-csv", "x.csv"), "--gt-dir"),
        ("matching", ("--gt-dir", "g"), "--pred-csv"),
    ], ids=["pred-pose", "scene-dir", "gt-dir", "pred-csv"])
    def test_missing_flag_of_the_mode_is_input_error(self, tmp_path, mode, given, missing):
        proc = run_cli("eval", "--mode", mode, *given, "--out", tmp_path / "r.json",
                       check=False)
        assert proc.returncode == 2
        assert f"error: --mode {mode} needs {missing}" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "r.json").exists()

    def test_non_finite_pose_names_the_file(self, tmp_path):
        # the scenes do not exist: every pose file is read before any scene
        good = write_pose(tmp_path / "good.json", 100.0, 100.0, 0.0)
        bad = write_pose(tmp_path / "bad.json", 100.0, math.inf, 0.0)   # written as Infinity
        proc = run_cli("eval", "--mode", "localization",
                       *self.pair_args([tmp_path / "s1", tmp_path / "s2"], [good, bad]),
                       check=False)
        assert proc.returncode == 2
        assert f"error: {bad}: " in proc.stderr and "pose must be finite" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestLoss:
    def test_gt_pose_gives_zero_vce(self, tmp_path):
        out = generate_scene_dir(tmp_path, seed=9)
        manifest = json.loads((out / "manifest.json").read_text())
        gt = manifest["gt_pose"]
        pose_path = tmp_path / "pose.json"
        pose_path.write_text(json.dumps(
            {"tx_px": gt["tx_px"], "ty_px": gt["ty_px"],
             "yaw_deg": math.degrees(gt["yaw_rad"])}))
        proc = run_cli("loss", "--scene-dir", out, "--pred-pose", pose_path)
        report = json.loads(proc.stdout)
        assert report["vce"] == 0.0
        assert report["seed"] == 0
        assert set(report) == {"vce", "matching", "height", "total", "seed"}

    def test_fixed_seed_twice_identical(self, tmp_path):
        out = generate_scene_dir(tmp_path, seed=10)
        pose_path = tmp_path / "pose.json"
        pose_path.write_text(json.dumps({"tx_px": 200.0, "ty_px": 200.0,
                                         "yaw_deg": 0.0}))
        a = run_cli("loss", "--scene-dir", out, "--pred-pose", pose_path)
        b = run_cli("loss", "--scene-dir", out, "--pred-pose", pose_path)
        assert a.stdout == b.stdout

    def test_total_is_weighted_sum(self, tmp_path):
        out = generate_scene_dir(tmp_path, seed=11, noise=0.2)
        pose_path = tmp_path / "pose.json"
        pose_path.write_text(json.dumps({"tx_px": 190.0, "ty_px": 210.0,
                                         "yaw_deg": 10.0}))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"beta1": 0.5, "beta2": 2.0, "rng_seed": 4}))
        proc = run_cli("loss", "--scene-dir", out, "--pred-pose", pose_path,
                       "--config", cfg_path)
        r = json.loads(proc.stdout)
        assert r["total"] == pytest.approx(r["vce"] + 0.5 * r["matching"]
                                           + 2.0 * r["height"], abs=1e-12)
        assert r["seed"] == 4

    def test_missing_scene_is_input_error(self, tmp_path):
        pose_path = tmp_path / "pose.json"
        pose_path.write_text(json.dumps({"tx_px": 0.0, "ty_px": 0.0, "yaw_deg": 0.0}))
        proc = run_cli("loss", "--scene-dir", tmp_path / "nope",
                       "--pred-pose", pose_path, check=False)
        assert proc.returncode == 2

    def test_infinite_tau_fails_before_reading_the_scene(self, tmp_path):
        pose_path = tmp_path / "pose.json"
        pose_path.write_text(json.dumps({"tx_px": 0.0, "ty_px": 0.0, "yaw_deg": 0.0}))
        proc = run_cli("loss", "--scene-dir", tmp_path / "nope", "--pred-pose", pose_path,
                       "--tau", "inf", check=False)
        assert proc.returncode == 2
        assert "error: temperature must be finite and positive" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_subnormal_tau_fails_before_reading_the_scene(self, tmp_path):
        pose_path = tmp_path / "pose.json"
        pose_path.write_text(json.dumps({"tx_px": 0.0, "ty_px": 0.0, "yaw_deg": 0.0}))
        proc = run_cli("loss", "--scene-dir", tmp_path / "nope", "--pred-pose", pose_path,
                       "--tau", "5e-324", check=False)
        assert proc.returncode == 2
        assert "error: temperature must be finite and positive" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_negative_rng_seed_fails_before_reading_the_scene(self, tmp_path):
        pose_path = tmp_path / "pose.json"
        pose_path.write_text(json.dumps({"tx_px": 0.0, "ty_px": 0.0, "yaw_deg": 0.0}))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"rng_seed": -1}))
        proc = run_cli("loss", "--scene-dir", tmp_path / "nope", "--pred-pose", pose_path,
                       "--config", cfg_path, check=False)
        assert proc.returncode == 2
        assert f"error: {cfg_path}: " in proc.stderr
        assert "rng_seed must be non-negative, got -1" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_non_finite_config_is_input_error(self, tmp_path):
        out = generate_scene_dir(tmp_path, seed=12)
        pose_path = tmp_path / "pose.json"
        pose_path.write_text(json.dumps({"tx_px": 200.0, "ty_px": 200.0, "yaw_deg": 0.0}))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"beta1": NaN}')
        proc = run_cli("loss", "--scene-dir", out, "--pred-pose", pose_path,
                       "--config", cfg_path, "--out", tmp_path / "r.json", check=False)
        assert proc.returncode == 2
        assert "finite and positive" in proc.stderr
        assert not (tmp_path / "r.json").exists()


@pytest.fixture(scope="module")
def shared_scene_dir(tmp_path_factory):
    return generate_scene_dir(tmp_path_factory.mktemp("json-inputs"))


class TestMalformedJsonInput:
    """A JSON input that is not an object, or lacks a field, is an input error naming the file."""

    @pytest.mark.parametrize("which, text, detail", [
        ("pred-pose", "[1, 2]", "expected a JSON object"),
        ("pred-pose", '{"ty_px": 0.0, "yaw_deg": 0.0}', "'tx_px'"),
        ("generate-spec", "[]", "expected a JSON object"),
        ("solve-spec", "[]", "expected a JSON object"),
        ("eval-pose", "[]", "expected a JSON object"),
        ("loss-config", "[1]", "expected a JSON object"),
        ("loss-config", '{"beta1": null}', "beta1: expected a number, got None"),
        ("pred-pose", '{"tx_px": "a", "ty_px": 0.0, "yaw_deg": 0.0}', "ValueError"),
        ("generate-spec", json.dumps({**SceneSpec(grid=BevGridSpec(9)).to_json_dict(),
                                      "n": "nine"}), "ValueError"),
        ("loss-config", '{"n_v": 2.7}', "n_v: expected an integer, got 2.7"),
        ("loss-config", '{"height_in_meters": "false"}', "height_in_meters"),
        ("loss-config", '{"beta_1": 5.0}', "unknown loss config key(s): 'beta_1'"),
        ("generate-spec", json.dumps({**SceneSpec(grid=BevGridSpec(9)).to_json_dict(),
                                      "n": 9.7}), "n: expected an integer, got 9.7"),
        ("pred-pose", '{"tx_px": true, "ty_px": 0.0, "yaw_deg": 0.0}',
         "tx_px: expected a number, got True"),
        *((which, '{"tx_px": 1,', "not JSON: Expecting property name")
          for which in ("pred-pose", "generate-spec", "solve-spec", "eval-pose", "loss-config")),
        # a JSON integer past the float range (about 1.8e308) in a float field
        ("generate-spec", json.dumps({**SceneSpec(grid=BevGridSpec(9)).to_json_dict(),
                                      "extent_m": 10**400}),
         "extent_m: integer beyond the float range"),
        ("pred-pose", json.dumps({"tx_px": 10**400, "ty_px": 0.0, "yaw_deg": 0.0}),
         "tx_px: integer beyond the float range"),
        ("loss-config", json.dumps({"beta1": 10**400}), "beta1: integer beyond the float range"),
        ("eval-pose", json.dumps({"tx_px": 0.0, "ty_px": 10**400, "yaw_deg": 0.0}),
         "ty_px: integer beyond the float range"),
        # past Python's 4,300-digit limit on integer string conversion
        ("pred-pose", '{"tx_px": 1' + "0" * 4999 + ', "ty_px": 0.0, "yaw_deg": 0.0}',
         "not JSON: Exceeds the limit (4300 digits)"),
        ("eval-pose", '{"tx_px": 1' + "0" * 4999 + ', "ty_px": 0.0, "yaw_deg": 0.0}',
         "not JSON: Exceeds the limit (4300 digits)"),
        ("pred-pose", b'{"tx_px": 0.0, "ty_px": 0.0, "yaw_deg": 0.0, "note": "\xff"}',
         "not JSON: 'utf-8' codec can't decode byte 0xff"),
        ("eval-pose", b'{"tx_px": 0.0, "ty_px": 0.0, "yaw_deg": 0.0, "note": "\xff"}',
         "not JSON: 'utf-8' codec can't decode byte 0xff"),
    ], ids=["pose-list", "pose-without-tx", "generate-spec-list", "solve-spec-list",
            "eval-pose-list", "config-list", "config-null-field", "pose-tx-not-a-number",
            "spec-n-not-a-number", "config-n-v-not-integer", "config-bool-as-string",
            "config-unknown-key",
            "spec-n-fractional", "pose-tx-bool", "pose-not-json", "generate-spec-not-json",
            "solve-spec-not-json", "eval-pose-not-json", "config-not-json",
            "spec-extent-overflows", "pose-tx-overflows", "config-beta1-overflows",
            "eval-pose-ty-overflows", "pose-tx-5000-digits", "eval-pose-tx-5000-digits",
            "pose-not-utf8", "eval-pose-not-utf8"])
    def test_is_input_error(self, tmp_path, shared_scene_dir, which, text, detail):
        scene = shared_scene_dir
        pose = tmp_path / "pose.json"
        pose.write_text(json.dumps({"tx_px": 200.0, "ty_px": 200.0, "yaw_deg": 0.0}))
        bad = tmp_path / "bad.json"
        bad.write_bytes(text if isinstance(text, bytes) else text.encode())
        args = {
            "pred-pose": ("loss", "--scene-dir", scene, "--pred-pose", bad),
            "loss-config": ("loss", "--scene-dir", scene, "--pred-pose", pose, "--config", bad),
            "generate-spec": ("generate", "--seed", 0, "--spec-json", bad,
                              "--out-dir", tmp_path / "out"),
            "solve-spec": ("solve", "--volume", scene / "volume.cvt",
                           "--conf-logits", scene / "conf_logits.cvt",
                           "--f-sat", scene / "f_sat.cvt", "--spec-json", bad),
            "eval-pose": ("eval", "--mode", "localization", "--scene-dir", scene,
                          "--pred-pose", bad),
        }[which]
        proc = run_cli(*args, check=False)
        assert proc.returncode == 2
        assert f"error: {bad}: " in proc.stderr
        assert detail in proc.stderr
        assert "Traceback" not in proc.stderr


class TestSceneManifestFields:
    """A scene manifest field that is missing or of the wrong kind is an input error naming it."""

    @pytest.mark.parametrize("key, value, detail", [
        ("spec", [], "spec: expected a JSON object"),
        ("spec", None, "KeyError: 'spec'"),
        ("seed", "x", "seed: expected an integer, got 'x'"),
        ("seed", -1, "seed must be non-negative, got -1"),
        ("noise_sigma", math.nan, "noise_sigma must be finite and non-negative, got nan"),
        ("depth_anchor_m", math.inf, "depth_anchor_m must be finite, got inf"),
        ("depth_scale", math.nan, "depth_scale must be finite and positive, got nan"),
        ("depth_scale", -1.0, "depth_scale must be finite and positive, got -1.0"),
        ("noise_sigma", 10**400, "noise_sigma: integer beyond the float range"),
    ], ids=["spec-list", "spec-missing", "seed-not-integer", "seed-negative", "noise-nan",
            "anchor-infinite", "scale-nan", "scale-negative", "noise-overflows"])
    def test_is_input_error(self, tmp_path, shared_scene_dir, key, value, detail):
        scene = tmp_path / "scene"
        shutil.copytree(shared_scene_dir, scene)
        manifest = json.loads((scene / "manifest.json").read_text())
        if value is None:
            del manifest[key]
        else:
            manifest[key] = value
        (scene / "manifest.json").write_text(json.dumps(manifest))
        proc = run_cli("solve", "--scene-dir", scene, check=False)
        assert proc.returncode == 2
        assert f"error: {scene}: missing or malformed field" in proc.stderr
        assert detail in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_manifest_not_utf8_is_input_error(self, tmp_path, shared_scene_dir):
        scene = tmp_path / "scene"
        shutil.copytree(shared_scene_dir, scene)
        manifest = scene / "manifest.json"
        manifest.write_bytes(manifest.read_bytes().replace(b'"spec"', b'"\xffspec"', 1))
        proc = run_cli("solve", "--scene-dir", scene, check=False)
        assert proc.returncode == 2
        assert f"error: {manifest}: not JSON: 'utf-8' codec can't decode byte 0xff" in proc.stderr
        assert "Traceback" not in proc.stderr


def test_surface_index_off_the_grid_is_input_error(tmp_path, shared_scene_dir):
    # a (5, 5) depth_sat, the aerial surface source, on a 9x9 scene, listed so in the
    # manifest: only the scene's specs can catch it
    scene = tmp_path / "scene"
    shutil.copytree(shared_scene_dir, scene)
    depth = load_tensor(scene / "depth_sat.cvt")[:5, :5].copy()
    save_tensor(scene / "depth_sat.cvt", depth)
    manifest = json.loads((scene / "manifest.json").read_text())
    manifest["tensors"]["depth_sat"] = [5, 5]
    (scene / "manifest.json").write_text(json.dumps(manifest))
    pose_path = tmp_path / "pose.json"
    pose_path.write_text(json.dumps({"tx_px": 200.0, "ty_px": 200.0, "yaw_deg": 0.0}))
    proc = run_cli("loss", "--scene-dir", scene, "--pred-pose", pose_path, check=False)
    assert proc.returncode == 2
    assert f"error: {scene}: depth_sat must be (9, 9) for the scene's specs, " \
           "got (5, 5)" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_legacy_scene_layout_gives_identical_outputs(tmp_path, shared_scene_dir):
    pose_path = tmp_path / "pose.json"
    pose_path.write_text(json.dumps({"tx_px": 190.0, "ty_px": 210.0, "yaw_deg": 10.0}))
    runs = [("solve",), ("loss", "--pred-pose", pose_path)]
    new = [run_cli(*args, "--scene-dir", shared_scene_dir).stdout for args in runs]
    for with_surface in (False, True):
        legacy = tmp_path / f"legacy-{with_surface}"
        shutil.copytree(shared_scene_dir, legacy)
        to_legacy_scene_layout(legacy, with_surface)
        manifest = json.loads((legacy / "manifest.json").read_text())
        assert {"height_field", "texture"} <= set(manifest["tensors"])
        assert ("channels" in manifest) == with_surface
        old = [run_cli(*args, "--scene-dir", legacy).stdout for args in runs]
        assert old == new and all(new)


def test_parser_defaults_are_the_library_defaults(monkeypatch):
    parser = cli.build_parser()
    generate = parser.parse_args(["generate", "--seed", "0", "--out-dir", "d"])
    solve = parser.parse_args(["solve"])
    loss = parser.parse_args(["loss", "--scene-dir", "d", "--pred-pose", "p"])
    config = PipelineConfig()
    # --n has no parser default: generate builds the library's grid when it is absent
    specs = []
    monkeypatch.setattr(cli, "make_scene_bundle", lambda s, **kwargs: specs.append(s))
    monkeypatch.setattr(cli, "save_scene_dir", lambda directory, bundle: None)
    assert cli.cmd_generate(generate) == cli.EXIT_OK
    assert specs == [SceneSpec()]
    assert specs[0].grid.n_points_per_side == BevGridSpec().n_points_per_side
    assert generate.channels == inspect.signature(generate_scene).parameters["channels"].default
    assert generate.channels == \
        inspect.signature(make_scene_bundle).parameters["channels"].default
    assert (solve.threshold, solve.topk) == (config.surface_threshold, config.top_k)
    assert (loss.threshold, loss.tau) == (config.surface_threshold, config.tau)


def test_readme_cli_section_names_every_option():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    parser = cli.build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    missing = [f"{name} {option}" for name, sub in commands.items()
               for action in sub._actions for option in action.option_strings
               if option not in ("-h", "--help")
               and not re.search(re.escape(option) + r"(?![\w-])", section)]
    assert not missing
