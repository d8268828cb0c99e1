"""The benchmark's output oracles accept what the CLI writes.

``perfbench/oracles.py`` recomputes ``stats``, ``run-rounds`` and
``ablate`` outputs by routes of its own; ``check_ablate`` recomputes the
pixel-space row from ``default_rng(seed)``, so a change to ``ablate``'s
seed streams makes the benchmark report wrong outputs. This test loads the
oracles read-only (no bytecode is written next to them), runs the three
commands at toy size and asserts that no check fails, and that a damaged
artifact is caught.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from slicepick.cli import main

ORACLES_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "oracles.py"
ABLATE_TERMS = ["patient", "volume", "slice"]
SEED = 3


@pytest.fixture(scope="module")
def oracles():
    spec = importlib.util.spec_from_file_location("perfbench_oracles", ORACLES_PATH)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """A toy dataset and the three commands' artifacts, written as files."""
    root = tmp_path_factory.mktemp("oracles")
    data, out = root / "data", root / "out"
    out.mkdir()
    small = ["--epochs", "2", "--hidden", "8", "--rep-dim", "4", "--proj-dim", "3"]
    assert main([
        "gen-data", "--out", str(data), "--patients", "4", "--volumes-per-patient", "2",
        "--slices-per-volume", "4", "--height", "4", "--width", "4", "--classes", "3",
        "--seed", str(SEED),
    ]) == 0
    assert main([
        "run-rounds", "--data", str(data), "--out", str(out / "rounds"), "--seed", str(SEED),
        "--strategies", "random,coreset_raw,coreset_learned", "--repeats", "2",
        "--fractions", "0.1,0.25,0.5", *small,
    ]) == 0
    assert main([
        "ablate", "--data", str(data), "--out", str(out / "ablate.csv"), "--seed", str(SEED),
        "--groups", ",".join(ABLATE_TERMS), *small,
    ]) == 0
    return data, out


def test_stats_rounds_and_ablate_pass_the_oracles(oracles, outputs, capsys):
    data, out = outputs
    capsys.readouterr()
    assert main(["stats", "--data", str(data), "--json"]) == 0
    (out / "stats.json").write_text(capsys.readouterr().out)
    ds = oracles.Dataset(data)
    checks = {
        "stats": oracles.check_stats(ds, out),
        "rounds": oracles.check_rounds(ds, out / "rounds"),
        "ablate": oracles.check_ablate(ds, out, ABLATE_TERMS, SEED),
    }
    assert {name: fails for name, (fails, _) in checks.items()} == {
        "stats": [], "rounds": [], "ablate": [],
    }


def test_a_damaged_artifact_fails(oracles, outputs, tmp_path):
    data, out = outputs
    ds = oracles.Dataset(data)
    lines = (out / "ablate.csv").read_text().splitlines()
    none = lines[1].split(",")
    none[-1] = repr(float(none[-1]) * 1.001)  # the pixel-space row's delta
    lines[1] = ",".join(none)
    (tmp_path / "ablate.csv").write_text("\n".join(lines) + "\n")
    fails, _ = oracles.check_ablate(ds, tmp_path, ABLATE_TERMS, SEED)
    assert [f.split(":")[0] for f in fails] == ["ablate none"]

    report = json.loads((out / "rounds" / "report.json").read_text())
    last = [e for e in report["entries"] if e["round"] == len(report["fractions"]) - 1]
    last[0]["probe_accuracy"] = -1.0
    (tmp_path / "rounds").mkdir()
    (tmp_path / "rounds" / "report.json").write_text(json.dumps(report))
    (tmp_path / "rounds" / "summary.csv").write_bytes((out / "rounds" / "summary.csv").read_bytes())
    fails, _ = oracles.check_rounds(ds, tmp_path / "rounds")
    assert len(fails) == 1 and "final probe accuracy -1.0" in fails[0]
