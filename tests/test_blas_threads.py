"""The golden digests at one and at two OpenBLAS threads.

A threaded BLAS may split the float32 screen's matrix products, and every
other product, differently; each artifact must keep its bytes either way.
Each count runs ``tests/test_golden.py`` in its own bounded subprocess,
since the thread count is fixed when numpy loads its BLAS.
"""

from pathlib import Path

import pytest
from test_settings import run_bounded

GOLDEN = Path(__file__).with_name("test_golden.py")


@pytest.mark.parametrize("threads", ["1", "2"])
def test_golden_digests_hold_at_each_blas_thread_count(threads):
    proc = run_bounded(
        "-q", "-p", "no:cacheprovider", str(GOLDEN),
        code="import pytest; raise SystemExit(pytest.main())", env={"OPENBLAS_NUM_THREADS": threads},
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
