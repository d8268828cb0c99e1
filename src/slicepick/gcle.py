"""GCLE embedding file format.

Layout: magic ``GCLE``, then little-endian u32 version (=1), u32 row count,
u32 dim, then the float32 little-endian row-major payload. A sidecar
``<path>.meta.json`` carries one record per row with slice/patient/volume
identity and depth index; ``slice_id`` is unique across rows. In memory
that identity is the (n, 4) int64 table of ``RECORD_KEYS`` columns; it is
JSON records only in a file, here and in a dataset's ``meta.json``.
"""

import json
import struct
from pathlib import Path

import numpy as np

from ._io import json_int, write_all_atomic
from .errors import FormatError

MAGIC = b"GCLE"
VERSION = 1
# the identity fields of a slice record, in GCLE sidecars and meta.json alike
RECORD_KEYS = ("slice_id", "patient_id", "volume_id", "slice_index")


def records_from_ids(ids):
    """One ``RECORD_KEYS`` dict of Python ints per row of the table ``ids``."""
    return [dict(zip(RECORD_KEYS, r)) for r in ids.tolist()]


def ids_from_records(path, records, where):
    """The (n, 4) int64 table of the JSON records ``records``, the list
    ``where`` in ``path``. A record that is not an object, lacks a key or
    holds a non-integer is a FormatError naming the file, ``where[i]`` and
    the key."""
    ids = np.empty((len(records), len(RECORD_KEYS)), dtype=np.int64)
    for i, r in enumerate(records):
        if not isinstance(r, dict):
            raise FormatError(f"{path}: {where}[{i}] must be a JSON object")
        for key in RECORD_KEYS:
            if key not in r:
                raise FormatError(f"{path}: {where}[{i}] is missing key {key!r}")
        ids[i] = [json_int(path, r[key], f"{where}[{i}].{key}") for key in RECORD_KEYS]
    return ids


def write_gcle(path, matrix, ids):
    """Write ``matrix`` and its (n, 4) identity table ``ids`` as a GCLE
    file and its sidecar."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise FormatError(f"embedding matrix must be 2-D, got shape {matrix.shape}")
    if matrix.size and not np.all(np.isfinite(matrix)):
        raise FormatError("refusing to write non-finite embedding values")
    n, dim = matrix.shape
    if len(ids) != n:
        raise FormatError(f"{len(ids)} metadata rows for {n} matrix rows")
    payload = np.ascontiguousarray(matrix, dtype="<f4").tobytes()
    header = MAGIC + struct.pack("<III", VERSION, n, dim)
    meta = {"rows": records_from_ids(ids)}
    # the file and its sidecar together: a failed write changes neither
    write_all_atomic([
        (path, header + payload),
        (str(path) + ".meta.json", json.dumps(meta, indent=2, sort_keys=True) + "\n"),
    ])


def read_gcle(path):
    """Read an embedding file; returns (read-only float32 matrix, (n, 4) int64 ids).

    A malformed sidecar raises FormatError naming the sidecar, the row and
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
    matrix = np.frombuffer(raw, dtype="<f4", offset=16).reshape(n, dim)
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
    ids = ids_from_records(meta_path, rows, "rows")
    seen = set()
    for i, sid in enumerate(ids[:, 0].tolist()):
        if sid in seen:
            raise FormatError(f"{meta_path}: rows[{i}].slice_id {sid} repeats an earlier row")
        seen.add(sid)
    return matrix, ids
