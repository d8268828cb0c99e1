"""Smoke test of the benchmark harness, at toy size.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_smoke.py

Runs every workload of BENCHMARK.json untraced and traced with
``--size tiny``, and checks that each prints every metric BENCHMARK.json
names with its unit, that no operation fails, that the tracer restores every
name it wraps, and that the benchmark refuses a directory holding only its
own files.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def results():
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = _bench(ROOT, workload, trace)
            assert proc.returncode == 0, proc.stdout + proc.stderr
            out[workload, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_reported(results, trace, kind):
    for workload in WORKLOADS:
        result = results[workload, trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in SPEC[kind]
        }


def test_end_to_end_metrics_are_never_zero(results):
    for workload in WORKLOADS:
        for name, m in results[workload, 0]["metrics"].items():
            assert m["value"] > 0, (workload, name)


def test_every_per_layer_metric_is_measured_somewhere(results):
    # a metric that reads 0 on every workload is misnamed or off every path
    for m in SPEC["per_layer"]:
        values = [results[w, 1]["metrics"][m["name"]]["value"] for w in WORKLOADS]
        assert any(values), m["name"]


def test_tracer_restores_every_name(tmp_path):
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    try:
        import tracer
        from slicepick import cli, data, losses

        from workloads import TINY_DATA

        before = {name: dict(vars(m)) for name, m in _slicepick_modules().items()}
        pixel_matrix = data.DatasetIndex.pixel_matrix
        spec = data.SynthSpec(**TINY_DATA, seed=1)
        data.save_dataset(*data.generate_synthetic(spec), tmp_path / "d", spec)

        t = tracer.Tracer()
        t.install()
        try:
            wrapped = tracer.leftovers()
            assert {"slicepick.pipeline.train", "slicepick.cli.train",
                    "slicepick.encoder.LossBatch", "slicepick._kernels.dist_to_row",
                    "slicepick.data.DatasetIndex.pixel_matrix"} <= set(wrapped)
            assert losses.LossBatch is before["slicepick.losses"]["LossBatch"]
            rc = cli.main(["run-rounds", "--data", str(tmp_path / "d"), "--out",
                           str(tmp_path / "r"), "--repeats", "1", "--epochs", "1"])
        finally:
            t.restore()
        assert rc == 0
        names = {s[1] for s in t.spans}
        assert {"pipeline.run_experiment", "encoder.train", "losses.LossBatch",
                "kernels.dist_to_row", "data.pixel_matrix"} <= names
        assert tracer.leftovers() == []
        assert data.DatasetIndex.pixel_matrix is pixel_matrix
        after = {name: dict(vars(m)) for name, m in _slicepick_modules().items()}
        for name, namespace in before.items():
            changed = [k for k, v in namespace.items() if after[name].get(k) is not v]
            assert not changed, (name, changed)
    finally:
        del sys.path[:2]


def _slicepick_modules():
    return {n: m for n, m in sys.modules.items() if n.split(".")[0] == "slicepick"}


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
