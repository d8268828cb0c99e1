"""Golden digests: the byte-level behaviour spec for refactors.

Each test runs a small fixed CLI command and pins the SHA-256 of what it
writes. A refactor that keeps these digests keeps every artifact
byte-identical. The digests depend on the floating-point results of the
installed numpy and its BLAS; if a change is meant to alter the bytes,
update the digest here and say why in CHANGES.md.
"""

import hashlib

import pytest

from slicepick.cli import main

# run-rounds, for --threads 1 and 2 alike
REPORT_SHA = "d4122505c754b077f21b969a1e217f14886e404e64ddd30a62f9fcbc94316427"
SUMMARY_SHA = "181d7db4ab94efdb7b2a69cfae56f396a343fc3ee1c0254ae6dbbb1f9b88558a"
STATS_SHA = "e3a20fc8f3b7c699cc6f5177c01ecd167e43c3c9a19a1a6603ab7063e2d607c7"
SELECT_EMPTY_SHA = "4b4d16df44f46d6836aa740a3407ad77a2454af34ec740bba1e674688f1db06f"
SELECT_INITIAL_SHA = "fd186592b0403938af2e3f19c29fd867df7d0e5e65a83d4f56e049498c14c2e2"
# train-encoder with all four loss terms: checkpoint and --history CSV
CHECKPOINT_SHA = "171be57a893323bffa2830fb3e0fe290ba21831ed9d1ffea6af052df7f67608d"
HISTORY_SHA = "f6caa062963c531e4cc00b05ce76ca80361f5f5f4be966c4bad5646b2bde398f"
# ablate over every subset of the four loss terms
ABLATE_SHA = "beada147b42ed79895e94b39afbc5c7418152395e0ff3f06e445230d1f594495"


def sha(data):
    return hashlib.sha256(data).hexdigest()


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    assert code == 0
    return out


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden") / "data"
    code = main([
        "gen-data", "--out", str(out), "--patients", "5",
        "--volumes-per-patient", "2", "--slices-per-volume", "4",
        "--height", "4", "--width", "4", "--classes", "3", "--seed", "21",
    ])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def embeddings(data_dir, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("golden_emb")
    ckpt, gcle_path = tmp / "enc.ckpt", tmp / "emb.gcle"
    assert main([
        "train-encoder", "--data", str(data_dir), "--out", str(ckpt),
        "--groups", "ntxent,patient,volume", "--epochs", "2", "--hidden", "8",
        "--rep-dim", "4", "--proj-dim", "3", "--seed", "4",
    ]) == 0
    assert main([
        "embed", "--data", str(data_dir), "--checkpoint", str(ckpt),
        "--out", str(gcle_path),
    ]) == 0
    return gcle_path


@pytest.mark.parametrize("threads", [1, 2])
def test_run_rounds_digest(data_dir, tmp_path, capsys, threads):
    out = tmp_path / "rounds"
    run(
        capsys, "run-rounds", "--data", data_dir, "--out", out,
        "--strategies", "random,coreset_raw,coreset_learned", "--repeats", "2",
        "--fractions", "0.05,0.1,0.3,0.5", "--epochs", "2", "--hidden", "8",
        "--rep-dim", "4", "--proj-dim", "3", "--seed", "6", "--threads", threads,
    )
    assert sha((out / "report.json").read_bytes()) == REPORT_SHA
    assert sha((out / "summary.csv").read_bytes()) == SUMMARY_SHA


def test_stats_digest(data_dir, capsys):
    out = run(capsys, "stats", "--data", data_dir, "--json")
    assert sha(out.encode()) == STATS_SHA


@pytest.mark.parametrize(
    "initial,expected",
    [("empty", SELECT_EMPTY_SHA), ("3,17,30", SELECT_INITIAL_SHA)],
)
def test_select_trace_digest(embeddings, tmp_path, capsys, initial, expected):
    out = tmp_path / "trace.jsonl"
    run(
        capsys, "select", "--embeddings", embeddings, "--budget", "12",
        "--initial", initial, "--seed", "9", "--out", out,
    )
    assert sha(out.read_bytes()) == expected


def test_train_encoder_digest(data_dir, tmp_path, capsys):
    ckpt, history = tmp_path / "enc.ckpt", tmp_path / "history.csv"
    run(
        capsys, "train-encoder", "--data", data_dir, "--out", ckpt,
        "--history", history, "--groups", "ntxent,patient,volume,slice",
        "--epochs", "3", "--hidden", "8,6", "--rep-dim", "4", "--proj-dim", "3",
        "--seed", "4",
    )
    assert sha(ckpt.read_bytes()) == CHECKPOINT_SHA
    assert sha(history.read_bytes()) == HISTORY_SHA


def test_ablate_digest(data_dir, tmp_path, capsys):
    out = tmp_path / "ablate.csv"
    run(
        capsys, "ablate", "--data", data_dir, "--out", out,
        "--groups", "ntxent,patient,volume,slice", "--epochs", "2", "--hidden", "8",
        "--rep-dim", "4", "--proj-dim", "3", "--seed", "5", "--fraction", "0.1",
    )
    assert sha(out.read_bytes()) == ABLATE_SHA
