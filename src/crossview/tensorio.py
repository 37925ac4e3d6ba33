"""On-disk formats: binary tensor files, tensor directories and float CSVs.

Tensor file layout: magic ``CVT1``, rank as little-endian uint64, each
dim as little-endian uint64, a uint32 dtype tag (1 = float32), then the
row-major float32 payload. Round trips are byte-lossless for float32
data.

A tensor directory holds ``<name>.cvt`` files next to a ``manifest.json``
carrying the directory's ``format`` tag, the shape of every tensor and any
format-specific fields. A float CSV has an exact header line and one row
of finite ``repr`` floats per record.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from pathlib import Path

import numpy as np

MAGIC = b"CVT1"
MANIFEST = "manifest.json"
DTYPE_TAG_FLOAT32 = 1
_MAX_RANK = 8


class TensorFormatError(ValueError):
    pass


def json_text(payload: dict) -> str:
    """The package's JSON text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def json_number(d: dict, key: str, integer: bool = False, default=None):
    """``d[key]`` (``default`` when absent and given) as an int or a float.

    An integer field takes a non-bool int; a float field an int or a float,
    not a bool. Any other kind is a ``ValueError`` naming ``key``.
    """
    v = d[key] if default is None else d.get(key, default)
    if isinstance(v, bool) or not isinstance(v, int if integer else (int, float)):
        raise ValueError(f"{key}: expected {'an integer' if integer else 'a number'}, got {v!r}")
    return int(v) if integer else float(v)


def decode_json(source, d, decode):
    """``decode(d)`` for a JSON value read from ``source`` (a file or directory).

    A non-object, or a missing or malformed field, is a ``ValueError``
    naming ``source``.
    """
    if not isinstance(d, dict):
        raise ValueError(f"{source}: expected a JSON object")
    try:
        return decode(d)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{source}: missing or malformed field ({type(exc).__name__}: {exc})") \
            from exc


def save_tensor(path, array) -> None:
    """Write ``array`` as a float32 tensor file (casting if needed)."""
    arr = np.asarray(array, dtype=np.float32)  # tobytes(order="C") handles layout
    if arr.ndim > _MAX_RANK:
        raise TensorFormatError(f"rank {arr.ndim} exceeds the supported maximum {_MAX_RANK}")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", arr.ndim))
        for dim in arr.shape:
            fh.write(struct.pack("<Q", dim))
        fh.write(struct.pack("<I", DTYPE_TAG_FLOAT32))
        fh.write(arr.tobytes(order="C"))


def load_tensor(path) -> np.ndarray:
    """Read a tensor file as a float32 array; the payload is read once, into the result."""
    size = Path(path).stat().st_size
    with open(path, "rb") as fh:
        head = fh.read(16 + 8 * _MAX_RANK)   # the longest header
        if head[:4] != MAGIC:
            raise TensorFormatError(f"{path}: bad magic {head[:4]!r}")
        try:
            (rank,) = struct.unpack_from("<Q", head, 4)
            if rank > _MAX_RANK:
                raise TensorFormatError(f"{path}: implausible rank {rank}")
            dims = [int(d) for d in struct.unpack_from(f"<{rank}Q", head, 12)]
            (tag,) = struct.unpack_from("<I", head, 12 + 8 * rank)
        except struct.error as exc:
            raise TensorFormatError(f"{path}: header truncated at {size} bytes") from exc
        offset = 16 + 8 * rank
        if tag != DTYPE_TAG_FLOAT32:
            raise TensorFormatError(f"{path}: unsupported dtype tag {tag}")
        count = math.prod(dims)
        if size - offset != 4 * count:
            raise TensorFormatError(
                f"{path}: payload is {size - offset} bytes, header implies {4 * count}")
        fh.seek(offset)
        return np.fromfile(fh, dtype="<f4", count=count).reshape(dims)


def save_tensor_dir(directory, fmt: str, tensors: dict, **fields) -> None:
    """Write each named tensor as ``<name>.cvt`` plus a manifest of ``fmt``, shapes and ``fields``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, tensor in tensors.items():
        save_tensor(directory / f"{name}.cvt", tensor)
    shapes = {name: list(np.shape(tensor)) for name, tensor in tensors.items()}
    (directory / MANIFEST).write_text(json_text({**fields, "format": fmt, "tensors": shapes}))


class _ListedTensors(dict):
    """Tensors by name; asking for one the manifest does not list is a ``ValueError``."""

    def __init__(self, directory: Path):
        super().__init__()
        self.directory = directory

    def __missing__(self, name):
        raise ValueError(f"{self.directory}: manifest does not list tensor {name!r}")


def read_manifest(directory, fmt: str) -> dict:
    """A tensor directory's manifest: a JSON object of format ``fmt`` whose ``tensors``
    object lists bare file stems, so no entry reads outside the directory."""
    directory = Path(directory)
    with open(directory / MANIFEST) as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict):
        raise ValueError(f"{directory}: manifest is not a JSON object")
    if manifest.get("format") != fmt:
        raise ValueError(f"{directory}: unknown format {manifest.get('format')!r}, expected {fmt!r}")
    if not isinstance(manifest.get("tensors"), dict):
        raise ValueError(f"{directory}: manifest has no 'tensors' object")
    for name in manifest["tensors"]:
        if not name or "/" in name or "\\" in name or ".." in name:
            raise ValueError(f"{directory}: manifest tensor name {name!r} is not a bare file name")
    return manifest


def load_tensor_dir(directory, fmt: str) -> tuple[dict, dict]:
    """Read a tensor directory of format ``fmt``; returns (float32 tensors by name, manifest).

    Every tensor the manifest lists is loaded and must have the listed shape;
    indexing the result by a name the manifest does not list raises ``ValueError``.
    """
    directory = Path(directory)
    manifest = read_manifest(directory, fmt)
    tensors = _ListedTensors(directory)
    for name, shape in manifest["tensors"].items():
        tensor = load_tensor(directory / f"{name}.cvt")
        if list(tensor.shape) != shape:
            raise ValueError(f"{name}: tensor shape disagrees with the manifest")
        tensors[name] = tensor
    return tensors, manifest


def read_csv(path, fields, what: str) -> np.ndarray:
    """Read a float CSV whose header is exactly ``fields``; returns (rows, len(fields)).

    Errors name the file and, for an unparsable or non-finite row, its line
    number; a file with no rows is an error naming ``what`` the rows hold.
    """
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or tuple(reader.fieldnames) != tuple(fields):
            raise ValueError(f"{path}: expected header {','.join(fields)}")
        for line_no, row in enumerate(reader, start=2):
            try:
                rows.append([float(row[f]) for f in fields])
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}: malformed row at line {line_no}") from exc
            if not np.isfinite(rows[-1]).all():
                raise ValueError(f"{path}: non-finite value at line {line_no}")
    if not rows:
        raise ValueError(f"{path}: no {what} rows")
    return np.array(rows)
