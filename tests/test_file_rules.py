"""A writer refuses what its reader would reject.

Each float32 file (``data.bin``, a GCLE payload, a checkpoint's parameter
blob) is written only if every value is finite once rounded to float32, so
no command leaves a file the next command rejects. The round-trip
properties run each writer/reader pair on values at float32's edges: each
case reads back bit for bit, or the writer raises FormatError and leaves
no file.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slicepick import (
    Architecture,
    DatasetIndex,
    EncoderParams,
    FormatError,
    TrainConfig,
    load_checkpoint,
    load_dataset,
    read_gcle,
    save_dataset,
    write_gcle,
)
from slicepick.cli import main
from slicepick.encoder import checkpoint_bytes
from test_settings import run_bounded  # a subprocess, so numpy's warnings reach its stderr

F32_MAX = float(np.finfo(np.float32).max)
F32_TINY = float(np.finfo(np.float32).smallest_subnormal)
# float32's edges as float64: its max, the float64 values just past it (the
# first still rounds to the max, the half-way one and beyond to inf), its
# least subnormal and normal, a float64 subnormal that rounds to 0, and +-0
EDGES = [
    F32_MAX, np.nextafter(F32_MAX, np.inf), F32_MAX * (1 + 2.0 ** -24), 2.0 ** 128, 1e300,
    F32_TINY, F32_TINY / 2, float(np.finfo(np.float32).tiny), 5e-324, 0.0,
]
EDGES += [-x for x in EDGES]
FINITE = st.sampled_from(EDGES) | st.floats(allow_nan=False, allow_infinity=False)
ANY = FINITE | st.sampled_from([np.inf, -np.inf, np.nan])


def rounded(values):
    """``values`` rounded once to float32, as every writer rounds them."""
    with np.errstate(over="ignore"):
        return np.asarray(values, dtype=np.float64).astype(np.float32)


def assert_round_trip(values, write, read, written):
    """``write`` then ``read`` in a new directory: the rounded values come
    back bit for bit, or, when one is not finite, the writer raises a
    FormatError naming the file and no file is left."""
    expected = rounded(values)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if np.isfinite(expected).all():
            write(tmp)
            back = np.asarray(read(tmp), dtype=np.float32).reshape(expected.shape)
            assert back.view(np.uint32).tolist() == expected.view(np.uint32).tolist()
        else:
            with pytest.raises(FormatError, match="not finite in float32") as exc:
                write(tmp)
            assert str(tmp / written) in str(exc.value)
            assert list(tmp.rglob("*")) == []


@settings(deadline=None, max_examples=60)
@given(st.lists(ANY, min_size=1, max_size=6))
def test_dataset_round_trip(values):
    ids = [(i, 0, 0, i) for i in range(len(values))]
    with np.errstate(over="ignore"):
        ds = DatasetIndex(ids, np.array(values)[:, None], 1, 1)
    assert_round_trip(
        values, lambda d: save_dataset(ds, np.zeros(ds.n, dtype=int), d / "data"),
        lambda d: load_dataset(d / "data")[0].pixel_matrix(), "data/data.bin",
    )


@settings(deadline=None, max_examples=60)
@given(st.lists(ANY, min_size=2, max_size=6).filter(lambda v: len(v) % 2 == 0))
def test_gcle_round_trip(values):
    matrix = np.array(values).reshape(-1, 2)
    ids = np.array([(i, 0, 0, i) for i in range(len(matrix))])
    assert_round_trip(
        matrix, lambda d: write_gcle(d / "e.gcle", matrix, ids),
        lambda d: read_gcle(d / "e.gcle")[0], "e.gcle",
    )


ARCH = Architecture(input_dim=1, hidden=(1,), rep_dim=1, proj_dim=1)  # 6 parameters


@settings(deadline=None, max_examples=60)
@given(st.lists(FINITE, min_size=6, max_size=6))
def test_checkpoint_round_trip(values):
    params = EncoderParams(ARCH, np.array(values))

    def write(d):
        path = d / "enc.ckpt"
        path.write_bytes(checkpoint_bytes(params, TrainConfig(epochs=1), path))

    assert_round_trip(values, write, lambda d: load_checkpoint(d / "enc.ckpt")[0].flat,
                      "enc.ckpt")


def test_save_dataset_refuses_an_infinite_pixel(tmp_path):
    ds = DatasetIndex([(0, 0, 0, 0), (1, 0, 0, 1)], [[1.0], [np.inf]], 1, 1)
    out = tmp_path / "d"
    with pytest.raises(FormatError) as exc:
        save_dataset(ds, [0, 1], out)
    data_bin = out / "data.bin"
    assert str(exc.value) == f"{data_bin}: payload is not finite in float32; refusing to write it"
    assert not any((out / name).exists() for name in ("meta.json", "data.bin", "labels.json"))


def test_a_float32_payload_is_written_without_a_copy():
    # a float32 matrix goes out as it is, with no rounded copy
    from slicepick._io import f32_payload

    X = np.arange(6, dtype=np.float32).reshape(2, 3)
    assert f32_payload("x", X, "payload") is X


@pytest.mark.parametrize("encoding", ["utf-16", "utf-32"])
def test_json_in_another_unicode_encoding_is_invalid(encoding):
    # json.loads would take these bytes; a file of slicepick's is UTF-8
    from slicepick._io import json_document

    with pytest.raises(FormatError, match=r"^f: invalid JSON: 'utf-8' codec"):
        json_document("f", '{"rows": []}'.encode(encoding), dict)


# -- the command line: a run whose output would not load writes nothing --------

@pytest.fixture
def data(tmp_path, capsys):
    out = tmp_path / "d"
    assert main(["gen-data", "--out", str(out), "--patients", "3", "--volumes-per-patient",
                 "2", "--slices-per-volume", "4", "--height", "4", "--width", "4"]) == 0
    capsys.readouterr()
    return out


TRAIN = ["--epochs", "1", "--batch-size", "2", "--groups", "ntxent"]


@pytest.mark.parametrize("step", [["--lr", "1e9"], ["--lr", "1e38", "--weight-decay", "0"]])
def test_train_encoder_past_float32_writes_nothing(data, tmp_path, step):
    ckpt, history = tmp_path / "c.ckpt", tmp_path / "h.csv"
    proc = run_bounded("train-encoder", "--data", str(data), "--out", str(ckpt),
               "--history", str(history), *TRAIN, *step)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.splitlines() == [
        f"error: {ckpt}: parameter blob is not finite in float32; refusing to write it"
    ]
    assert not ckpt.exists() and not history.exists()


def test_embed_past_float32_writes_nothing(data, tmp_path, capsys):
    ckpt, emb = tmp_path / "c.ckpt", tmp_path / "e.gcle"
    assert main(["train-encoder", "--data", str(data), "--out", str(ckpt), *TRAIN,
                 "--lr", "1e7"]) == 0
    capsys.readouterr()
    proc = run_bounded("embed", "--data", str(data), "--checkpoint", str(ckpt), "--out", str(emb))
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.splitlines() == [
        f"error: {emb}: payload is not finite in float32; refusing to write it"
    ]
    assert not emb.exists() and not Path(f"{emb}.meta.json").exists()
