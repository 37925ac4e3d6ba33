"""On-disk formats: binary tensor files and tensor directories.

Tensor file layout: magic ``CVT1``, rank as little-endian uint64, each
dim as little-endian uint64, a uint32 dtype tag (1 = float32), then the
row-major float32 payload. Round trips are byte-lossless for float32
data.

A tensor directory holds ``<name>.cvt`` files next to a ``manifest.json``
carrying the directory's ``format`` tag, the shape of every tensor and any
format-specific fields.
"""

from __future__ import annotations

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
    """A tensor file with a bad magic, dtype tag or rank, a header that ends early, or a
    payload whose length disagrees with its dims (short or with trailing bytes)."""


def json_text(payload: dict) -> str:
    """The package's JSON text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def check_integer(key: str, v) -> None:
    """Reject ``v`` unless it is a non-bool integer (``np.integer`` counts): the one rule of
    an integer field, in a JSON file or a config; the ``ValueError`` names ``key``."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise ValueError(f"{key}: expected an integer, got {v!r}")


def json_number(d: dict, key: str, integer: bool = False, default=None):
    """``d[key]`` (``default`` when absent and given) as an int or a float.

    An integer field takes what ``check_integer`` passes; a float field an int
    or a float, not a bool, within the float range. Any other kind is a
    ``ValueError`` naming ``key``.
    """
    v = d[key] if default is None else d.get(key, default)
    if integer:
        check_integer(key, v)
        return int(v)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"{key}: expected a number, got {v!r}")
    try:
        return float(v)
    except OverflowError:
        raise ValueError(f"{key}: integer beyond the float range") from None


def read_json(path):
    """The JSON value in the UTF-8 file ``path``; any parse error is a ``ValueError`` naming it."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    # also a byte that is not UTF-8, an integer of over 4,300 digits, or nesting past the stack
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{path}: not JSON: {exc}") from None


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


def _float32(path, array) -> np.ndarray:
    """``array`` as float32; a rank over ``_MAX_RANK``, or a finite entry cast to inf, is refused."""
    with np.errstate(over="ignore"):   # an overflow is refused below
        arr = np.asarray(array, dtype=np.float32)  # tobytes(order="C") handles layout
    if arr.ndim > _MAX_RANK:
        raise TensorFormatError(f"rank {arr.ndim} exceeds the supported maximum {_MAX_RANK}")
    if np.isinf(arr).any():   # one cheap pass; the index search is slow on a large array
        overflow = np.argwhere(np.isinf(arr) & np.isfinite(array))
        if len(overflow):
            raise ValueError(f"{path}: entry {tuple(overflow[0].tolist())} overflows float32")
    return arr


def save_tensor(path, array) -> None:
    """Write ``array`` as a float32 tensor file, cast and checked by ``_float32``."""
    arr = _float32(path, array)
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
    """Write each named tensor as ``<name>.cvt`` plus a manifest of ``fmt``, shapes and ``fields``;
    the one writer of a tensor directory, which checks every tensor before it makes any file."""
    directory = Path(directory)
    for name, tensor in tensors.items():   # every check before any file, one cast at a time
        _float32(directory / f"{name}.cvt", tensor)
    directory.mkdir(parents=True, exist_ok=True)
    for name, tensor in tensors.items():
        save_tensor(directory / f"{name}.cvt", tensor)
    shapes = {name: list(np.shape(tensor)) for name, tensor in tensors.items()}
    (directory / MANIFEST).write_text(json_text({**fields, "format": fmt, "tensors": shapes}))


def read_manifest(directory, fmt: str) -> dict:
    """A tensor directory's manifest: a JSON object of format ``fmt`` whose ``tensors``
    object lists bare file stems, so no entry reads outside the directory."""
    directory = Path(directory)
    manifest = read_json(directory / MANIFEST)
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


def load_tensors(directory, manifest: dict, names) -> dict:
    """The float32 tensors ``names`` of a tensor directory, by name, against its parsed
    ``manifest``; a name it does not list, or a shape it does not, is a ``ValueError``
    naming the directory."""
    tensors = {}
    for name in names:
        if name not in manifest["tensors"]:
            raise ValueError(f"{directory}: manifest does not list tensor {name!r}")
        tensors[name] = load_tensor(Path(directory) / f"{name}.cvt")
        if list(tensors[name].shape) != manifest["tensors"][name]:
            raise ValueError(f"{directory}: {name}: tensor shape disagrees with the manifest")
    return tensors
