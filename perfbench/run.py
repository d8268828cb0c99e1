"""slicepick benchmark: one workload, closed loop, one client.

    python3 perfbench/run.py --workload ref_rounds|ref_ablate|scaled \
        --seed N --seconds S --trace 0|1 [--size full|tiny]

Run from the root of a slicepick checkout; the program is imported from
``./src``. Each operation is a fresh Python process (``op.py``) that sets
up (imports, generates the seeded dataset, writes the dataset directory)
and runs the workload's CLI commands in-process. Operations repeat while
the next one would end closer to ``--seconds`` than stopping now; at least
one always runs. Each operation is preceded by ``SETUP_GROUP`` set-up-only
children, and the run tops up to ``MIN_SETUPS`` timed set-ups at the end.
BLAS is pinned to one thread in every child.

The first operation's artifacts are checked by ``oracles.py``; every later
operation must write byte-identical artifacts. An operation fails when a
command exits non-zero, a check fails or its bytes differ.

``--trace 0`` reports the end-to-end metrics (medians over operations).
``--trace 1`` runs one untraced and one traced operation, requires their
artifacts to be byte-identical, and reports the per-layer metrics from the
traced one plus the tracing overhead. Human-readable lines come first; the
last line of stdout is the JSON result. Everything the run writes goes to
``.perfbench-runs/<workload>/`` in the checkout.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# CPU speed on a shared host can swing by 1.5x for seconds at a time, so set-ups
# are timed in groups spread over the run rather than in one burst.
MIN_SETUPS = 9
SETUP_GROUP = 3
CHILD_TIMEOUT_S = 170
BLAS_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


class Runner:
    def __init__(self, root, workload, seed, size):
        self.root = root
        self.workload = WORKLOADS[size][workload]
        self.seed = seed
        self.size = size
        self.dir = root / ".perfbench-runs" / workload
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.env = dict(os.environ, **BLAS_PINS)
        self.env["PYTHONPATH"] = str(root / "src") + (
            os.pathsep + os.environ["PYTHONPATH"] if os.environ.get("PYTHONPATH") else ""
        )
        self.count = 0

    def launch(self, setup_only=False, trace=False):
        """Run one child to completion; returns (result dict, op dir)."""
        op_dir = self.dir / f"op{self.count}"
        self.count += 1
        op_dir.mkdir()
        cmd = [
            sys.executable, str(HERE / "op.py"), "--workload", self.workload.name,
            "--seed", str(self.seed), "--size", self.size, "--dir", str(op_dir),
        ]
        cmd += ["--setup-only"] * setup_only + ["--trace"] * trace
        with open(op_dir / "stderr.txt", "w") as err:
            t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
            proc = subprocess.run(
                cmd, cwd=self.root, env=self.env, stdout=err, stderr=err,
                timeout=CHILD_TIMEOUT_S,
            )
        if proc.returncode != 0:
            tail = (op_dir / "stderr.txt").read_text()[-2000:]
            raise RuntimeError(f"operation process exited {proc.returncode}:\n{tail}")
        result = json.loads((op_dir / "result.json").read_text())
        result["setup_s"] = result["setup_end"] - t0
        return result, op_dir

    def digests(self, op_dir):
        files = sorted(p for p in (op_dir / "out").rglob("*") if p.is_file())
        files += sorted((op_dir / "data").iterdir())
        return {
            str(p.relative_to(op_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in files
        }

    def check(self, op_dir):
        """Oracle checks of one operation's artifacts: (failures, figures)."""
        ds = oracles.Dataset(op_dir / "data")
        out = op_dir / "out"
        fails, figures = [], {}
        for command in self.workload.commands:
            try:
                if command.name == "run-rounds":
                    f, fig = oracles.check_rounds(ds, out / command.artifact)
                elif command.name == "stats":
                    f, fig = oracles.check_stats(ds, out)
                else:
                    terms = command.args[command.args.index("--groups") + 1].split(",")
                    f, fig = oracles.check_ablate(ds, out, terms, self.seed)
            except (OSError, ValueError, TypeError, KeyError, IndexError) as exc:
                f, fig = [f"{command.name}: malformed or missing artifact: {exc!r}"], {}
            fails += f
            figures.update(fig)
        return fails, figures


def _op_failures(result):
    return [f"{c['name']} exited {c['rc']}" for c in result["commands"] if c["rc"] != 0]


def run_untraced(runner, seconds):
    start = time.monotonic()
    ops, setups = [], []
    reference = figures = None

    def time_setups(count):
        for _ in range(count):
            result, op_dir = runner.launch(setup_only=True)
            setups.append(result["setup_s"])
            shutil.rmtree(op_dir)

    # stop at the operation count whose end lies closest to the time budget
    while not ops or (
        time.monotonic() - start + statistics.median(o["wall_s"] for o in ops) / 2 <= seconds
    ):
        t0 = time.monotonic()
        time_setups(SETUP_GROUP)
        result, op_dir = runner.launch()
        fails = _op_failures(result)
        if reference is None:
            reference = runner.digests(op_dir)
            if not fails:
                check_fails, figures = runner.check(op_dir)
                fails += check_fails
        elif runner.digests(op_dir) != reference:
            fails.append("artifacts differ from the first operation's bytes")
        shutil.rmtree(op_dir / "data")
        setups.append(result["setup_s"])
        ops.append(
            dict(
                op_s=sum(c["seconds"] for c in result["commands"]),
                wall_s=time.monotonic() - t0,
                commands={c["name"]: c["seconds"] for c in result["commands"]},
                peak_rss_mb=result["peak_rss_mb"],
                facts=result["facts"],
                failures=fails,
            )
        )
    time_setups(MIN_SETUPS - len(setups))
    return ops, setups, figures or {}


def run_traced(runner):
    """One untraced and one traced operation on the same inputs."""
    plain, plain_dir = runner.launch()
    traced, traced_dir = runner.launch(trace=True)
    plain_fails = _op_failures(plain)
    traced_fails = _op_failures(traced)
    if runner.digests(plain_dir) != runner.digests(traced_dir):
        traced_fails.append("traced artifacts differ from untraced ones")
    if traced["leftovers"]:
        traced_fails.append(f"tracer left wrappers behind: {traced['leftovers']}")
    if not traced_fails:
        traced_fails += runner.check(traced_dir)[0]
    for d in (plain_dir, traced_dir):
        shutil.rmtree(d / "data")
    return plain, traced, [plain_fails, traced_fails]


def layer_table(traced, plain):
    """Every per-layer figure of one traced operation, by metric name."""
    table = {}
    for name, row in traced["spans"].items():
        for field, value in row.items():
            table[f"{name}.{field}"] = value
    table.update(traced["counts"])
    picks = table.get("coreset.picks", 0)
    table["coreset.dist_passes_per_pick"] = (
        table.get("kernels.dist_to_row.calls", 0) / picks if picks else 0.0
    )
    table["cli.self_s"] = sum(
        row["self_s"] for name, row in traced["spans"].items() if name.startswith("cli.")
    )
    table["trace.overhead_s"] = sum(c["seconds"] for c in traced["commands"]) - sum(
        c["seconds"] for c in plain["commands"]
    )
    return table


def machine_facts(root, child_facts):
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
                timeout=10,
            ).stdout.strip() or commit
        except OSError:
            commit = "unknown (git not found)"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        **child_facts,
        "blas_pinned": dict(BLAS_PINS),
        "git_commit": commit,
    }


def _fmt(name, values, unit, better="lower"):
    med = statistics.median(values)
    q1, q3 = _quartiles(values)
    return (f"  {name:<24} {med:12.6g} {unit:<8} q1 {q1:.6g}  q3 {q3:.6g}  "
            f"iqr/median {(q3 - q1) / med:.3f}  n={len(values)}  ({better} is better)")


COMMAND_METRIC = {"run-rounds": "rounds_s", "stats": "stats_s", "ablate": "ablate_s"}


def main(argv=None):
    ap = argparse.ArgumentParser(description="slicepick benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS["full"]))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(WORKLOADS), default="full",
                    help="tiny runs the same paths at toy size, for the smoke test")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")

    root = Path.cwd()
    if not (root / "src" / "slicepick" / "__init__.py").is_file():
        print(f"error: {root} is not a slicepick checkout (no src/slicepick)", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    runner = Runner(root, args.workload, args.seed, args.size)
    w = runner.workload
    why = next(x["why"] for x in spec["workloads"] if x["name"] == w.name)
    print(f"workload {w.name} ({args.size}): {why}")
    print(f"seed {args.seed}, closed loop, 1 client, {args.seconds:g} s")

    if args.trace:
        plain, traced, op_failures = run_traced(runner)
        facts = traced["facts"]
        table = layer_table(traced, plain)
        wanted = spec["per_layer"]
        print("per-layer metrics (traced operation; .s is inclusive busy time summed "
              "over calls and threads, .bytes computed from argument shapes):")
        record = dict(table=table)
    else:
        ops, setups, figures = run_untraced(runner, args.seconds)
        op_failures = [o["failures"] for o in ops]
        facts = ops[0]["facts"]
        op_s = [o["op_s"] for o in ops]
        # the peak over the run: with worker threads, malloc arenas make single
        # operations land on either of two RSS levels
        rss = [o["peak_rss_mb"] for o in ops]
        table = {
            "setup_s": statistics.median(setups),
            "op_s": statistics.median(op_s),
            "peak_rss_mb": max(rss),
            "accuracy": figures.get(w.accuracy, 0.0),
        }
        wanted = spec["end_to_end"]
        print("end-to-end metrics (tracing off; times are medians over the run's samples):")
        print(_fmt("setup_s", setups, "s"))
        print(_fmt("op_s", op_s, "s"))
        for command in w.commands:
            print(_fmt(COMMAND_METRIC[command.name],
                       [o["commands"][command.name] for o in ops], "s"))
        print(f"  {'peak_rss_mb':<24} {max(rss):12.6g} MB       max over {len(rss)} "
              f"operations, min {min(rss):.6g}  (lower is better)")
        for name, value in sorted(figures.items()):
            tag = "  = accuracy" if name == w.accuracy else ""
            print(f"  {name:<24} {value:12.6g} fraction (higher is better){tag}")
        record = dict(ops=ops, setups=setups, figures=figures)
    metrics = {m["name"]: {"value": table.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    if args.trace:
        for name, m in metrics.items():
            print(f"  {name:<38} {m['value']:.6g} {m['unit']}")
    attempted, failed = len(op_failures), sum(1 for f in op_failures if f)
    print(f"  failed_share {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for f in (f for fails in op_failures for f in fails):
        print(f"FAIL: {f}")
    facts = machine_facts(root, facts)
    print("machine: " + ", ".join(f"{k}={v}" for k, v in facts.items()))
    record.update(workload=w.name, seed=args.seed, facts=facts, op_failures=op_failures,
                  metrics=metrics)
    (runner.dir / "result.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(dict(correct=failed == 0, attempted=attempted, failed=failed,
                          metrics=metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
