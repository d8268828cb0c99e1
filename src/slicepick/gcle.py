"""GCLE embedding file format.

Layout: magic ``GCLE``, then little-endian u32 version (=1), u32 row count,
u32 dim, then the float32 little-endian row-major payload. A sidecar
``<path>.meta.json`` carries one record per row with slice/patient/volume
identity and depth index.
"""

import json
import struct
from pathlib import Path

import numpy as np

from ._io import write_atomic
from .errors import FormatError

MAGIC = b"GCLE"
VERSION = 1
_META_KEYS = ("slice_id", "patient_id", "volume_id", "slice_index")


def meta_rows_from_dataset(ds):
    return [
        {
            "slice_id": r.slice_id,
            "patient_id": r.patient_id,
            "volume_id": r.volume_id,
            "slice_index": r.slice_index,
        }
        for r in ds.slices
    ]


def write_gcle(path, matrix, meta_rows):
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise FormatError(f"embedding matrix must be 2-D, got shape {matrix.shape}")
    if matrix.size and not np.all(np.isfinite(matrix)):
        raise FormatError("refusing to write non-finite embedding values")
    n, dim = matrix.shape
    if len(meta_rows) != n:
        raise FormatError(f"{len(meta_rows)} metadata rows for {n} matrix rows")
    payload = np.ascontiguousarray(matrix, dtype="<f4").tobytes()
    header = MAGIC + struct.pack("<III", VERSION, n, dim)
    write_atomic(path, header + payload)
    meta = {"rows": [{k: int(r[k]) for k in _META_KEYS} for r in meta_rows]}
    write_atomic(str(path) + ".meta.json", json.dumps(meta, indent=2, sort_keys=True) + "\n")


def read_gcle(path):
    """Read an embedding file; returns (float32 matrix, metadata rows)."""
    raw = Path(path).read_bytes()
    if len(raw) < 16:
        raise FormatError(f"{path}: file too short for a GCLE header")
    if raw[:4] != MAGIC:
        raise FormatError(f"{path}: bad magic {raw[:4]!r}, expected {MAGIC!r}")
    version, n, dim = struct.unpack("<III", raw[4:16])
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    expected = 16 + n * dim * 4
    if len(raw) != expected:
        raise FormatError(
            f"{path}: payload holds {len(raw) - 16} bytes, expected {n * dim * 4}"
        )
    matrix = np.frombuffer(raw, dtype="<f4", offset=16).reshape(n, dim).copy()
    if matrix.size and not np.all(np.isfinite(matrix)):
        raise FormatError(f"{path}: payload contains non-finite values")
    meta_path = Path(str(path) + ".meta.json")
    try:
        meta = json.loads(meta_path.read_text())
    except FileNotFoundError as exc:
        raise FormatError(f"missing sidecar {meta_path}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"{meta_path}: invalid JSON: {exc}") from exc
    rows = meta.get("rows")
    if not isinstance(rows, list) or len(rows) != n:
        count = len(rows) if isinstance(rows, list) else "no"
        raise FormatError(f"{meta_path}: {count} metadata rows for {n} matrix rows")
    for i, r in enumerate(rows):
        for key in _META_KEYS:
            if key not in r:
                raise FormatError(f"{meta_path}: row {i} missing {key!r}")
    return matrix, rows
