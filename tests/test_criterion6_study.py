"""A smoke run of ``studies/criterion6_rate.py``, so a change of the API it
reaches into (``pipeline._learned_space``, ``pipeline._stream_seed``, the
greedy's state) fails here instead of silently breaking the study."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_one_short_repeat_prints_its_rate_share_and_self_check():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "studies" / "criterion6_rate.py"),
         "--repeats", "1", "--epochs", "1", "--cold-starts", "4"],
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
