import ast
import json
import re
import struct
import tracemalloc

import numpy as np
import pytest

from crossview.evaluation import MatchPrediction, load_gt_projection, save_gt_projection
from crossview.geometry import BevGridSpec, SceneSpec
from crossview.refiner import RefinerParams
from crossview.synthetic import load_scene_dir, make_scene_bundle, save_scene_dir
from crossview.tensorio import (MAGIC, MANIFEST, TensorFormatError, load_tensor, load_tensors,
                                read_manifest, save_tensor, save_tensor_dir)

from conftest import ROOT


@pytest.mark.parametrize("shape", [(), (5,), (3, 4), (2, 3, 4), (2, 3, 4, 5)])
def test_round_trip_is_lossless_up_to_rank_four(tmp_path, shape):
    rng = np.random.default_rng(1)
    arr = rng.standard_normal(shape).astype(np.float32)
    path = tmp_path / "t.cvt"
    save_tensor(path, arr)
    back = load_tensor(path)
    assert back.dtype == np.float32
    assert back.shape == arr.shape
    assert np.array_equal(back, arr)


def test_save_is_deterministic(tmp_path):
    arr = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
    save_tensor(tmp_path / "a.cvt", arr)
    save_tensor(tmp_path / "b.cvt", arr)
    assert (tmp_path / "a.cvt").read_bytes() == (tmp_path / "b.cvt").read_bytes()


def test_header_layout(tmp_path):
    arr = np.zeros((3, 7), dtype=np.float32)
    path = tmp_path / "t.cvt"
    save_tensor(path, arr)
    raw = path.read_bytes()
    assert raw[:4] == MAGIC
    rank = struct.unpack_from("<Q", raw, 4)[0]
    assert rank == 2
    dims = struct.unpack_from("<QQ", raw, 12)
    assert dims == (3, 7)
    tag = struct.unpack_from("<I", raw, 28)[0]
    assert tag == 1
    assert len(raw) == 32 + 3 * 7 * 4


def test_non_float32_input_is_cast(tmp_path):
    arr = np.arange(6, dtype=np.float64).reshape(2, 3)
    path = tmp_path / "t.cvt"
    save_tensor(path, arr)
    assert np.array_equal(load_tensor(path), arr.astype(np.float32))


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "t.cvt"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(TensorFormatError):
        load_tensor(path)


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "t.cvt"
    save_tensor(path, np.zeros((4, 4), dtype=np.float32))
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(TensorFormatError):
        load_tensor(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "t.cvt"
    save_tensor(path, np.zeros((4, 4), dtype=np.float32))
    path.write_bytes(path.read_bytes() + b"\x00" * 4)
    with pytest.raises(TensorFormatError, match="payload is 68 bytes, header implies 64"):
        load_tensor(path)


def test_load_holds_one_copy_of_the_payload(tmp_path):
    # a scene volume at the paper's n=41 with 16 channels; reading the file into
    # bytes, slicing them and copying the view would peak at three payloads
    arr = np.random.default_rng(3).standard_normal((11, 41, 41, 16)).astype(np.float32)
    path = tmp_path / "volume.cvt"
    save_tensor(path, arr)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        back = load_tensor(path)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert np.array_equal(back, arr)
    assert peak <= 1.1 * arr.nbytes


# a (4, 4) tensor's header: magic 0-4, rank 4-12, dims 12-28, dtype tag 28-32
@pytest.mark.parametrize("keep", [6, 20, 30], ids=["in-rank", "in-dims", "in-dtype-tag"])
def test_truncated_header_rejected(tmp_path, keep):
    path = tmp_path / "t.cvt"
    save_tensor(path, np.zeros((4, 4), dtype=np.float32))
    path.write_bytes(path.read_bytes()[:keep])
    with pytest.raises(TensorFormatError, match="header truncated"):
        load_tensor(path)


def test_implausible_rank_rejected(tmp_path):
    path = tmp_path / "t.cvt"
    path.write_bytes(MAGIC + struct.pack("<Q", 99))
    with pytest.raises(TensorFormatError):
        load_tensor(path)


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_finite_entry_beyond_float32_rejected(tmp_path, dtype):
    arr = np.zeros((2, 3), dtype=dtype)
    arr[1, 2] = -1e39
    path = tmp_path / "t.cvt"
    with pytest.raises(ValueError, match=re.escape(f"{path}: entry (1, 2) overflows float32")):
        save_tensor(path, arr)
    assert not path.exists()


def test_infinite_input_entry_is_written_as_given(tmp_path):
    # only a finite entry that the cast makes infinite is refused
    arr = np.array([1.0, np.inf, -np.inf, np.nan])
    save_tensor(tmp_path / "t.cvt", arr)
    assert np.array_equal(load_tensor(tmp_path / "t.cvt"), arr.astype(np.float32), equal_nan=True)


def test_largest_float32_round_trips(tmp_path):
    big = float(np.finfo(np.float32).max)
    save_tensor(tmp_path / "t.cvt", np.array([big, -big]))
    assert np.array_equal(load_tensor(tmp_path / "t.cvt"), np.array([big, -big], np.float32))


def test_refused_tensor_dir_leaves_nothing_behind(tmp_path):
    tensors = {"a": np.ones((2, 2)), "b": np.array([0.0, 3e38, 1e39])}
    with pytest.raises(ValueError, match=re.escape(f"{tmp_path / 'd' / 'b.cvt'}: entry (2,)")):
        save_tensor_dir(tmp_path / "d", "toy-v1", tensors)
    assert not (tmp_path / "d").exists()


def test_tensor_dir_round_trip(tmp_path):
    tensors = {"a": np.arange(6, dtype=np.float32).reshape(2, 3), "b": np.ones(4)}
    save_tensor_dir(tmp_path / "d", "toy-v1", tensors, count=2)
    manifest = read_manifest(tmp_path / "d", "toy-v1")
    back = load_tensors(tmp_path / "d", manifest, ("a", "b"))
    assert manifest == {"format": "toy-v1", "count": 2, "tensors": {"a": [2, 3], "b": [4]}}
    assert back.keys() == tensors.keys()
    for name, tensor in tensors.items():
        assert np.array_equal(back[name], tensor)


def test_tensor_dir_wrong_format_rejected(tmp_path):
    save_tensor_dir(tmp_path / "d", "toy-v1", {"a": np.zeros(3)})
    with pytest.raises(ValueError, match="unknown format"):
        read_manifest(tmp_path / "d", "toy-v2")


def test_tensor_dir_shape_mismatch_rejected(tmp_path):
    save_tensor_dir(tmp_path / "d", "toy-v1", {"a": np.zeros(3)})
    save_tensor(tmp_path / "d" / "a.cvt", np.zeros(4))
    manifest = read_manifest(tmp_path / "d", "toy-v1")
    with pytest.raises(ValueError, match=re.escape(f"{tmp_path / 'd'}: a: tensor shape disagrees")):
        load_tensors(tmp_path / "d", manifest, ("a",))


@pytest.mark.parametrize("name", ["../outside/secret", "", "sub/a", "sub\\a", "..", "a..b"])
def test_tensor_dir_name_outside_directory_rejected(tmp_path, name):
    outside = tmp_path / "outside"
    outside.mkdir()
    save_tensor(outside / "secret.cvt", np.zeros(3))
    save_tensor_dir(tmp_path / "d", "toy-v1", {"a": np.zeros(3)})
    manifest_path = tmp_path / "d" / MANIFEST
    manifest = json.loads(manifest_path.read_text())
    manifest["tensors"] = {"a": [3], name: [3]}
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=f"manifest tensor name {re.escape(repr(name))} is not"):
        read_manifest(tmp_path / "d", "toy-v1")


@pytest.mark.parametrize("tensors", [None, [["a", [3]]], "a"], ids=["missing", "list", "string"])
def test_tensor_dir_without_tensors_object_rejected(tmp_path, tensors):
    save_tensor_dir(tmp_path / "d", "toy-v1", {"a": np.zeros(3)})
    manifest_path = tmp_path / "d" / MANIFEST
    manifest = json.loads(manifest_path.read_text())
    if tensors is None:
        del manifest["tensors"]
    else:
        manifest["tensors"] = tensors
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="d: manifest has no 'tensors' object"):
        read_manifest(tmp_path / "d", "toy-v1")


@pytest.mark.parametrize("payload", [[], "toy-v1", 3, None])
def test_tensor_dir_manifest_not_an_object_rejected(tmp_path, payload):
    save_tensor_dir(tmp_path / "d", "toy-v1", {"a": np.zeros(3)})
    (tmp_path / "d" / MANIFEST).write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="d: manifest is not a JSON object"):
        read_manifest(tmp_path / "d", "toy-v1")


def test_tensor_dir_manifest_not_json_rejected(tmp_path):
    save_tensor_dir(tmp_path / "d", "toy-v1", {"a": np.zeros(3)})
    (tmp_path / "d" / MANIFEST).write_text("{oops")
    with pytest.raises(ValueError, match=re.escape(f"{tmp_path / 'd' / MANIFEST}: not JSON: ")):
        read_manifest(tmp_path / "d", "toy-v1")


def _write_scene_dir(directory):
    save_scene_dir(directory, make_scene_bundle(SceneSpec(grid=BevGridSpec(9)), seed=0))


def _write_params_dir(directory):
    RefinerParams.random(81, seed=0).save(directory)


def _write_gt_dir(directory):
    valid = np.eye(4, 6, dtype=bool)
    sat = np.where(valid[..., None], np.arange(48.0).reshape(4, 6, 2), np.nan)
    save_gt_projection(directory, sat)


@pytest.mark.parametrize("write,keys", [
    (_write_scene_dir, {"format", "spec", "gt_pose", "seed", "noise_sigma", "depth_anchor_m",
                        "depth_scale", "tensors"}),
    (_write_params_dir, {"format", "tensors"}),
    (_write_gt_dir, {"format", "tensors"}),
], ids=["scene", "refiner-params", "gt-projection"])
def test_manifest_layout_is_pinned(tmp_path, write, keys):
    write(tmp_path / "d")
    text = (tmp_path / "d" / MANIFEST).read_text()
    manifest = json.loads(text)
    assert set(manifest) == keys
    assert text == json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    cvt_names = {p.name[:-len(".cvt")] for p in (tmp_path / "d").glob("*.cvt")}
    assert set(manifest["tensors"]) == cvt_names


@pytest.mark.parametrize("write,read,dropped", [
    (_write_scene_dir, load_scene_dir, "volume"),
    (_write_params_dir, RefinerParams.load, "dustbin_row"),
    (_write_gt_dir, load_gt_projection, "gt_xy"),
], ids=["scene", "refiner-params", "gt-projection"])
def test_reader_names_a_tensor_the_manifest_does_not_list(tmp_path, write, read, dropped):
    directory = tmp_path / "d"
    write(directory)
    manifest = json.loads((directory / MANIFEST).read_text())
    del manifest["tensors"][dropped]
    (directory / MANIFEST).write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=f"d: manifest does not list tensor '{dropped}'"):
        read(directory)


# one case per CSV format: reader, header, a good row, a row that does not parse, row kind
CSV_READERS = {
    "prediction": (MatchPrediction.from_csv, "xg,yg,xs,ys", "1,2,3,4", "bad,2,3,4"),
}


@pytest.fixture(params=sorted(CSV_READERS))
def csv_format(request):
    return request.param, *CSV_READERS[request.param]


def test_csv_wrong_header_rejected(tmp_path, csv_format):
    _, reader, header, good, _ = csv_format
    path = tmp_path / "bad.csv"
    path.write_text(header.replace(",", ";") + "\n" + good + "\n")
    with pytest.raises(ValueError, match=f"expected header {header}"):
        reader(path)


def test_csv_extra_column_rejected(tmp_path, csv_format):
    _, reader, header, good, _ = csv_format
    path = tmp_path / "bad.csv"
    path.write_text(header + ",extra\n" + good + ",0\n")
    with pytest.raises(ValueError, match="header"):
        reader(path)


def test_csv_malformed_row_reports_line(tmp_path, csv_format):
    _, reader, header, good, bad = csv_format
    path = tmp_path / "bad.csv"
    path.write_text(f"{header}\n{good}\n{bad}\n")
    with pytest.raises(ValueError, match="malformed row at line 3"):
        reader(path)


def test_csv_short_row_reports_line(tmp_path, csv_format):
    _, reader, header, good, _ = csv_format
    path = tmp_path / "bad.csv"
    path.write_text(f"{header}\n{good.rsplit(',', 1)[0]}\n")
    with pytest.raises(ValueError, match="malformed row at line 2"):
        reader(path)


def test_csv_header_only_rejected(tmp_path, csv_format):
    what, reader, header, _, _ = csv_format
    path = tmp_path / "empty.csv"
    path.write_text(header + "\n")
    with pytest.raises(ValueError, match=f"no {what} rows"):
        reader(path)


def test_only_tensorio_parses_json():
    # tensorio.read_json is the one parser, so every JSON syntax error names its file
    calls = []
    for path in sorted((ROOT / "src" / "crossview").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "json" \
                    and node.func.attr in ("load", "loads"):
                calls.append((path.name, node.lineno))
    assert [c for c in calls if c[0] != "tensorio.py"] == []
    assert calls, "tensorio parses JSON through json.loads"
