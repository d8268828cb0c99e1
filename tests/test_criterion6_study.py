"""``studies/criterion6_rate.py``: a smoke run, so a change of the API it
reads (``run_experiment``'s report with its learned spaces, the greedy's
state) fails here instead of silently breaking the study; the count of its
trainings; and its flag errors."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
STUDY = ROOT / "studies" / "criterion6_rate.py"


def test_one_short_repeat_prints_its_rate_share_and_self_check():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(STUDY), "--repeats", "1", "--epochs", "1", "--cold-starts", "4"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    patterns = [
        r"learned-space ordering holds in [01]/1 repeats: rate [01]\.000, "
        r"Wilson 95% interval \[0\.\d{3}, \d\.\d{3}\]",
        r"cold starts keeping the ordering: [0-4]/4 \(repeat, cold start\) pairs, "
        r"share \d\.\d{3}",
        r"self-check passed: the pipeline's own cold start reproduces coreset_learned's "
        r"delta_learned bit for bit in all 1 repeats",
    ]
    for pattern in patterns:
        assert any(re.fullmatch(pattern, line) for line in lines), (pattern, proc.stdout)


@pytest.fixture
def study():
    spec = importlib.util.spec_from_file_location("criterion6_rate", STUDY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def trainings(monkeypatch):
    from slicepick import pipeline

    calls = []
    train = pipeline.train

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return train(*args, **kwargs)

    monkeypatch.setattr(pipeline, "train", counted)
    return calls


def test_each_repeat_is_trained_once(study, trainings, capsys):
    assert study.main(["--repeats", "2", "--epochs", "1", "--cold-starts", "2"]) == 0
    assert "self-check passed" in capsys.readouterr().out
    assert len(trainings) == 2


@pytest.mark.parametrize("flag", ["--repeats", "--threads", "--epochs"])
def test_a_flag_below_one_is_a_usage_error(study, trainings, capsys, flag):
    with pytest.raises(SystemExit) as exc:
        study.main([flag, "0"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].endswith(f"error: {flag} must be >= 1")
    assert "Traceback" not in err and not trainings
