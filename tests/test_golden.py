"""Golden digests: the byte-level behaviour spec for refactors.

Each test runs a small fixed CLI command and pins the SHA-256 of what it
writes. A refactor that keeps these digests keeps every artifact
byte-identical. The digests depend on the floating-point results of the
installed numpy and its BLAS; if a change is meant to alter the bytes,
update the digest here and say why in CHANGES.md.
"""

import hashlib
import itertools

import numpy as np
import pytest

from slicepick.checks import random_loss_batch, random_loss_epoch
from slicepick.cli import main
from slicepick.losses import LossBatch, LossConfig, LossStructure, combined_loss, loss_and_grad

# run-rounds, for --threads 1 and 2 alike
REPORT_SHA = "d4122505c754b077f21b969a1e217f14886e404e64ddd30a62f9fcbc94316427"
SUMMARY_SHA = "181d7db4ab94efdb7b2a69cfae56f396a343fc3ee1c0254ae6dbbb1f9b88558a"
STATS_SHA = "0cca3c088cba97d302d042a7807200899aaa2696e6e54db41e9bdc2a33de9138"
SELECT_EMPTY_SHA = "4b4d16df44f46d6836aa740a3407ad77a2454af34ec740bba1e674688f1db06f"
SELECT_INITIAL_SHA = "fd186592b0403938af2e3f19c29fd867df7d0e5e65a83d4f56e049498c14c2e2"
# train-encoder with all four loss terms: checkpoint and --history CSV
CHECKPOINT_SHA = "171be57a893323bffa2830fb3e0fe290ba21831ed9d1ffea6af052df7f67608d"
HISTORY_SHA = "f6caa062963c531e4cc00b05ce76ca80361f5f5f4be966c4bad5646b2bde398f"
# ablate over every subset of the four loss terms
ABLATE_SHA = "beada147b42ed79895e94b39afbc5c7418152395e0ff3f06e445230d1f594495"
# train-encoder --dump-epoch with all four loss terms (tuple width 4)
DUMP_EPOCH_SHA = "3eafc72f03a9e65c9bfb84a2e7bdf38aef141eaae3a1e5d45c18de973ac8341b"
# embed: the GCLE file and its .meta.json sidecar
GCLE_SHA = "093a3abfada824713a0a394623e2133b7ee8fac504392a4ecd7b0c5a32b2239c"
GCLE_META_SHA = "18416fe7eb35ea36a97b29c3dcf1312c6b895d15c9e8a901a2cce49edc39b53d"
# loss, gradient and combined_loss over every subset of the four terms
LOSS_SHA = "0f0acbaf316c4697be4bc29d5a693449d785dde7beed6bc35f311ac7a240ed92"
# the same per batch of multi-batch epochs, through the epoch structure
EPOCH_LOSS_SHA = "b8da5ca2e347024398ec651b5bce8537bc70b061ac4845ccd41d22bcbb85b05e"
# --print-config: every key's default, in CONFIG order
PRINT_CONFIG_SHA = "833505d591a8578d6c068414cf4ca95cfb13779ee6b090b9930d70625cc766f3"


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


def test_dump_epoch_digest(data_dir, tmp_path, capsys):
    plan = tmp_path / "epoch.json"
    run(
        capsys, "train-encoder", "--data", data_dir, "--out", tmp_path / "enc.ckpt",
        "--dump-epoch", plan, "--groups", "ntxent,patient,volume,slice",
        "--epochs", "1", "--hidden", "8", "--rep-dim", "4", "--proj-dim", "3",
        "--seed", "8",
    )
    assert sha(plan.read_bytes()) == DUMP_EPOCH_SHA


def test_embed_digest(embeddings):
    assert sha(embeddings.read_bytes()) == GCLE_SHA
    meta = embeddings.with_name(embeddings.name + ".meta.json")
    assert sha(meta.read_bytes()) == GCLE_META_SHA


def test_print_config_digest(capsys):
    assert sha(run(capsys, "--print-config").encode()) == PRINT_CONFIG_SHA


def test_loss_digest():
    """Loss value, gradient bytes and ``combined_loss`` for every non-empty
    subset of the four terms over seeded random batches."""
    h = hashlib.sha256()
    rng = np.random.default_rng(77)
    batches = [
        random_loss_batch(rng, n_pairs=n, dim=5, n_patients=3)
        for n in (1, 2, 3, 4, 5, 7, 9, 12)
    ]
    terms = ("ntxent", "patient", "volume", "slice_group")
    weights = {"patient": 0.05, "volume": 0.35, "slice_group": 0.1}
    for k in range(1, len(terms) + 1):
        for subset in itertools.combinations(terms, k):
            kwargs = {t: (1.0 if t == "ntxent" else weights[t]) for t in subset}
            kwargs.setdefault("ntxent", 0.0)
            for i, batch in enumerate(batches):
                cfg = LossConfig(tau=(0.1, 0.5)[i % 2], **kwargs)
                loss, grad = loss_and_grad(batch, cfg)
                h.update(repr(loss).encode())
                h.update(grad.tobytes())
                h.update(repr(combined_loss(batch, cfg)).encode())
    assert h.hexdigest() == LOSS_SHA


def test_epoch_loss_digest():
    """Loss value and gradient bytes of every batch of seeded multi-batch
    epochs, through a structure of all terms and one of the config's terms,
    for every non-empty subset of the four terms. The epochs hold a dead
    adjacency term, an anchor with no positive, a one-patient batch whose
    anchor without a positive has no row of another patient, and a row whose
    norm is clamped."""
    h = hashlib.sha256()
    rng = np.random.default_rng(78)
    terms = ("ntxent", "patient", "volume", "slice_group")
    weights = {"patient": 0.05, "volume": 0.35, "slice_group": 0.1}
    subsets = [s for k in range(1, len(terms) + 1) for s in itertools.combinations(terms, k)]
    for e, n in enumerate((1, 2, 3, 5, 9)):
        pid, vid, spos = random_loss_epoch(rng, n_batches=5, n_pairs=n)
        zs = rng.standard_normal((5, 2 * n, 4))
        zs[0, 0] *= 1e-13
        every = LossStructure(pid, vid, spos)
        for subset in subsets:
            kwargs = {t: (1.0 if t == "ntxent" else weights[t]) for t in subset}
            kwargs.setdefault("ntxent", 0.0)
            cfg = LossConfig(tau=(0.1, 0.5)[e % 2], **kwargs)
            own = LossStructure(pid, vid, spos, cfg.terms)
            for structure in (every, own):
                for b, z in enumerate(zs):
                    loss, grad = loss_and_grad(LossBatch(z, structure=structure, index=b), cfg)
                    h.update(repr(loss).encode())
                    h.update(grad.tobytes())
    assert h.hexdigest() == EPOCH_LOSS_SHA
