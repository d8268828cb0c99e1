"""GCLE embedding file format.

Layout: magic ``GCLE``, then little-endian u32 version (=1), u32 row count,
u32 dim, then the float32 little-endian row-major payload. A sidecar
``<path>.meta.json`` carries one record per row with slice/patient/volume
identity and depth index; ``slice_id`` is unique across rows. In memory
that identity is the (n, 4) int64 table of ``RECORD_KEYS`` columns; it is
JSON records only in a file, here and in a dataset's ``meta.json``, and
``ids_from_records`` reads both. The writer refuses what the reader would
reject: the header, payload and JSON rules are ``_io``'s.
"""

import json
import struct
from pathlib import Path

import numpy as np

from . import _io
from .errors import FormatError

MAGIC = b"GCLE"
# the identity fields of a slice record, in GCLE sidecars and meta.json alike
RECORD_KEYS = ("slice_id", "patient_id", "volume_id", "slice_index")


def records_from_ids(ids):
    """One ``RECORD_KEYS`` dict of Python ints per row of the table ``ids``."""
    return [dict(zip(RECORD_KEYS, r)) for r in ids.tolist()]


def ids_from_records(path, records, where):
    """The (n, 4) int64 table of the JSON records ``records``, the list
    ``where`` in ``path``. A record that is not an object, lacks a key,
    holds a non-integer or repeats an earlier record's slice id is a
    FormatError naming the file, ``where[i]`` and the key."""
    try:  # objects of every key, checked as arrays; the loop below names a fault
        ids = _io.json_ints(path, [r[key] for r in records for key in RECORD_KEYS], str)
        ids = ids.reshape(len(records), len(RECORD_KEYS))
        # with return_index: the plain np.unique's first call imports numpy.ma
        if np.unique(ids[:, 0], return_index=True)[0].size == len(ids):
            return ids
    except (TypeError, KeyError, FormatError):
        pass
    seen = set()
    for i, r in enumerate(records):  # raises at the first faulty record
        if not isinstance(r, dict):
            raise FormatError(f"{path}: {where}[{i}] must be a JSON object")
        for key in RECORD_KEYS:
            if key not in r:
                raise FormatError(f"{path}: {where}[{i}] is missing key {key!r}")
        sid = [_io.json_int(path, r[key], f"{where}[{i}].{key}") for key in RECORD_KEYS][0]
        if sid in seen:
            raise FormatError(f"{path}: {where}[{i}].slice_id {sid} repeats an earlier row")
        seen.add(sid)


def write_gcle(path, matrix, ids):
    """Write ``matrix`` and its (n, 4) identity table ``ids`` as a GCLE
    file and its sidecar; a matrix that is not finite in float32 is a
    FormatError naming ``path``, and nothing is written."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise FormatError(f"embedding matrix must be 2-D, got shape {matrix.shape}")
    n, dim = matrix.shape
    if len(ids) != n:
        raise FormatError(f"{len(ids)} metadata rows for {n} matrix rows")
    payload = _io.f32_payload(path, matrix, "payload")
    header = MAGIC + struct.pack("<III", _io.FORMAT_VERSION, n, dim)
    meta = {"rows": records_from_ids(ids)}
    # the file and its sidecar together: a failed write changes neither
    _io.write_all_atomic([
        (path, b"".join((header, payload))),
        (str(path) + ".meta.json", json.dumps(meta, indent=2, sort_keys=True) + "\n"),
    ])


def read_gcle(path):
    """Read an embedding file; returns (read-only float32 matrix, (n, 4) int64 ids).

    A malformed sidecar raises FormatError naming the sidecar, the row and
    the key.
    """
    raw = Path(path).read_bytes()
    version, n, dim = _io.unpack_header(path, raw, MAGIC, ("version", "row count", "dim"))
    _io.check_version(path, version, "version")
    matrix = _io.read_f32(path, raw, 16, (n, dim), "payload", "its header")
    meta_path = Path(str(path) + ".meta.json")
    try:
        meta = _io.json_document(meta_path, meta_path.read_bytes(), dict)
    except FileNotFoundError as exc:
        raise FormatError(f"missing sidecar {meta_path}") from exc
    rows = meta.get("rows")
    if not isinstance(rows, list) or len(rows) != n:
        count = len(rows) if isinstance(rows, list) else "no"
        raise FormatError(f"{meta_path}: {count} metadata rows for {n} matrix rows")
    return matrix, ids_from_records(meta_path, rows, "rows")
