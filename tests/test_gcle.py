import json
import struct

import numpy as np
import pytest

from slicepick import FormatError
from slicepick.coreset import SelectionState
from slicepick.gcle import read_gcle, records_from_ids, write_gcle


def ids_of(n):
    """The identity table of n slices of one volume, slice id i at depth i."""
    return np.array([(i, 0, 0, i) for i in range(n)], dtype=np.int64).reshape(n, 4)


def test_round_trip_bit_exact(tmp_path):
    m = np.random.default_rng(0).standard_normal((3, 4)).astype(np.float32)
    ids = np.array([(7, 1, 2, 0), (3, 1, 2, 1), (9, 4, 5, 0)], dtype=np.int64)
    path = tmp_path / "e.gcle"
    write_gcle(path, m, ids)
    back, back_ids = read_gcle(path)
    # the payload's own bytes, read-only, as a selection state keeps them
    assert back.dtype == np.float32 and not back.flags.writeable
    assert back.flags.c_contiguous and SelectionState(back).emb is back
    assert np.array_equal(back, m)
    assert back_ids.dtype == np.int64 and np.array_equal(back_ids, ids)
    sidecar = json.loads((tmp_path / "e.gcle.meta.json").read_text())
    assert sidecar == {"rows": [
        {"slice_id": 7, "patient_id": 1, "volume_id": 2, "slice_index": 0},
        {"slice_id": 3, "patient_id": 1, "volume_id": 2, "slice_index": 1},
        {"slice_id": 9, "patient_id": 4, "volume_id": 5, "slice_index": 0},
    ]}


def test_empty_matrix_legal(tmp_path):
    path = tmp_path / "empty.gcle"
    write_gcle(path, np.zeros((0, 5), dtype=np.float32), ids_of(0))
    back, ids = read_gcle(path)
    assert back.shape == (0, 5)
    assert ids.shape == (0, 4) and ids.dtype == np.int64


def test_corrupted_magic(tmp_path):
    path = tmp_path / "e.gcle"
    write_gcle(path, np.zeros((1, 2), dtype=np.float32), ids_of(1))
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        read_gcle(path)


def test_version_mismatch(tmp_path):
    path = tmp_path / "e.gcle"
    path.write_bytes(b"GCLE" + struct.pack("<III", 9, 0, 2))
    (tmp_path / "e.gcle.meta.json").write_text(json.dumps({"rows": []}))
    with pytest.raises(FormatError):
        read_gcle(path)


def test_metadata_count_mismatch(tmp_path):
    path = tmp_path / "e.gcle"
    write_gcle(path, np.zeros((3, 2), dtype=np.float32), ids_of(3))
    (tmp_path / "e.gcle.meta.json").write_text(
        json.dumps({"rows": records_from_ids(ids_of(2))})
    )
    with pytest.raises(FormatError):
        read_gcle(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "e.gcle"
    write_gcle(path, np.ones((2, 3), dtype=np.float32), ids_of(2))
    raw = path.read_bytes()
    path.write_bytes(raw[:-4])
    with pytest.raises(FormatError):
        read_gcle(path)


def test_nan_refused_on_write(tmp_path):
    m = np.zeros((2, 2), dtype=np.float32)
    m[1, 1] = np.nan
    with pytest.raises(FormatError):
        write_gcle(tmp_path / "e.gcle", m, ids_of(2))


def test_nan_detected_on_read(tmp_path):
    path = tmp_path / "e.gcle"
    payload = np.array([[1.0, np.nan]], dtype="<f4").tobytes()
    path.write_bytes(b"GCLE" + struct.pack("<III", 1, 1, 2) + payload)
    sidecar = {"rows": records_from_ids(ids_of(1))}
    (tmp_path / "e.gcle.meta.json").write_text(json.dumps(sidecar))
    with pytest.raises(FormatError):
        read_gcle(path)


def test_missing_sidecar(tmp_path):
    path = tmp_path / "e.gcle"
    write_gcle(path, np.zeros((1, 2), dtype=np.float32), ids_of(1))
    (tmp_path / "e.gcle.meta.json").unlink()
    with pytest.raises(FormatError):
        read_gcle(path)
