"""One benchmark operation, run as a fresh Python process by ``run.py``.

    python3 perfbench/op.py --workload NAME --seed N --size full|tiny \
        --dir OPDIR [--setup-only] [--trace]

Set-up is interpreter start, importing slicepick, generating the dataset
and writing it to ``OPDIR/data``; it ends at the ``setup_end`` timestamp,
a CLOCK_MONOTONIC reading that the parent compares with its launch time.
The operation then runs the workload's commands in-process through
``slicepick.cli.main``, each timed on its own, and writes ``OPDIR/result.json``.
With ``--trace`` the commands run under the tracer, spans go to
``OPDIR/spans.jsonl`` and the per-span summary into the result.
"""

import argparse
import contextlib
import ctypes
import json
import resource
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, argv


def _blas_facts(np):
    """BLAS library name and the thread count it reports at run time."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    np.dot(np.ones((2, 2)), np.ones((2, 2)))  # make sure the library is mapped
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:  # no procfs: thread count stays unknown
        paths = set()
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads}


def main(raw=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--dir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(raw)
    workload = WORKLOADS[args.size][args.workload]
    op_dir = Path(args.dir)

    import numpy as np

    from slicepick import _kernels, cli
    from slicepick.data import SynthSpec, generate_synthetic, save_dataset

    spec = SynthSpec(**workload.data, seed=args.seed)
    ds, labels = generate_synthetic(spec)
    save_dataset(ds, labels, op_dir / "data", spec)
    result = {"setup_end": time.clock_gettime(time.CLOCK_MONOTONIC)}
    if not args.setup_only:
        result.update(_run_commands(workload, op_dir, args.seed, args.trace, cli))
        # KiB on Linux; the children term counts any processes the program starts
        result["peak_rss_mb"] = sum(
            resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
        ) / 1024.0
        result["facts"] = {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "kernels_backend": _kernels.BACKEND,
            **_blas_facts(np),
        }
    (op_dir / "result.json").write_text(json.dumps(result, indent=1, sort_keys=True))
    return 0


def _run_commands(workload, op_dir, seed, trace, cli):
    out_dir = op_dir / "out"
    out_dir.mkdir()
    tracer = None
    if trace:
        from tracer import Tracer, leftovers

        tracer = Tracer()
        tracer.install()
    commands = []
    try:
        for command in workload.commands:
            cmd_argv = argv(command, op_dir / "data", out_dir, seed)
            with contextlib.ExitStack() as stack:
                if command.out_flag is None:
                    fh = stack.enter_context(open(out_dir / command.artifact, "w"))
                    stack.enter_context(contextlib.redirect_stdout(fh))
                t0 = time.perf_counter()
                if tracer:
                    rc = tracer.span(f"cli.{command.name}", cli.main, cmd_argv)
                else:
                    rc = cli.main(cmd_argv)
                seconds = time.perf_counter() - t0
            commands.append({"name": command.name, "rc": rc, "seconds": seconds})
    finally:
        if tracer:
            tracer.restore()
    out = {"commands": commands}
    if tracer:
        tracer.write_spans(op_dir / "spans.jsonl")
        out["spans"] = tracer.summary()
        out["counts"] = dict(tracer.counts)
        out["leftovers"] = leftovers()
    return out


if __name__ == "__main__":
    sys.exit(main())
