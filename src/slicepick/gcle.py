"""GCLE embedding file format.

Layout: magic ``GCLE``, then little-endian u32 version (=1), u32 row count,
u32 dim, then the float32 little-endian row-major payload. A sidecar
``<path>.meta.json`` carries one record per row with slice/patient/volume
identity and depth index; ``slice_id`` is unique across rows.
"""

import json
import struct
from pathlib import Path

import numpy as np

from ._io import json_int_record, write_all_atomic
from .errors import FormatError

MAGIC = b"GCLE"
VERSION = 1
# the identity fields of a slice record, in GCLE sidecars and meta.json alike
RECORD_KEYS = ("slice_id", "patient_id", "volume_id", "slice_index")


def meta_rows_from_dataset(ds):
    """One ``RECORD_KEYS`` dict of Python ints per row of ``ds.ids``."""
    return [dict(zip(RECORD_KEYS, r)) for r in ds.ids.tolist()]


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
    meta = {"rows": [{k: int(r[k]) for k in RECORD_KEYS} for r in meta_rows]}
    # the file and its sidecar together: a failed write changes neither
    write_all_atomic([
        (path, header + payload),
        (str(path) + ".meta.json", json.dumps(meta, indent=2, sort_keys=True) + "\n"),
    ])


def read_gcle(path):
    """Read an embedding file; returns (float32 matrix, metadata rows).

    Each returned row holds exactly the four integer identity keys. A
    malformed sidecar raises FormatError naming the sidecar, the row and
    the key.
    """
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
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise FormatError(f"{meta_path}: invalid JSON: {exc}") from exc
    if not isinstance(meta, dict):
        raise FormatError(f"{meta_path}: top level must be a JSON object")
    rows = meta.get("rows")
    if not isinstance(rows, list) or len(rows) != n:
        count = len(rows) if isinstance(rows, list) else "no"
        raise FormatError(f"{meta_path}: {count} metadata rows for {n} matrix rows")
    records = []
    seen = set()
    for i, r in enumerate(rows):
        record = json_int_record(meta_path, r, f"rows[{i}]", RECORD_KEYS)
        if record["slice_id"] in seen:
            raise FormatError(
                f"{meta_path}: rows[{i}].slice_id {record['slice_id']} repeats an earlier row"
            )
        seen.add(record["slice_id"])
        records.append(record)
    return matrix, records
