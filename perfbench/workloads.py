"""Workload definitions: the dataset each operation generates and the CLI
commands it runs on it.

A workload is a closed loop with one client: one operation at a time, each
operation a fresh Python process that generates its dataset, writes the
dataset directory and then runs the workload's commands in order through
``slicepick.cli.main``. The dataset seed and the command ``--seed`` both come
from the benchmark's ``--seed``, so one seed gives one set of inputs.

``tiny`` sizes exist only for the harness smoke test; they run every code
path of the full workload in about a second.
"""

from dataclasses import dataclass

REF_DATA = dict(
    n_patients=20, volumes_per_patient=2, slices_per_volume=12, h=16, w=16, class_count=8
)
# 1,200 slices: large enough that the O(n^2) kernels dominate and the 9.8 MB
# float64 pixel matrix exceeds a 4 MB L2, small enough (~7 s per operation) that
# one run holds several operations and reports a steady median
SCALED_DATA = dict(
    n_patients=25, volumes_per_patient=4, slices_per_volume=12, h=32, w=32, class_count=8
)
TINY_DATA = dict(
    n_patients=4, volumes_per_patient=2, slices_per_volume=4, h=4, w=4, class_count=3
)


@dataclass(frozen=True)
class Command:
    """One CLI invocation. ``args`` omit ``--data``, ``--seed`` and the output
    flag, which the operation fills in; ``artifact`` is the file or directory
    the command writes, relative to the operation's output directory."""

    name: str
    args: tuple
    artifact: str
    out_flag: str = "--out"


@dataclass(frozen=True)
class Workload:
    """``accuracy`` names the label-efficiency figure reported as the
    ``accuracy`` metric; why each workload exists is in BENCHMARK.json."""

    name: str
    data: dict
    commands: tuple
    accuracy: str


def _run_rounds(args):
    return Command("run-rounds", tuple(args), "rounds")


def _ablate(args):
    return Command("ablate", tuple(args), "ablate.csv")


STATS = Command("stats", ("--json",), "stats.json", out_flag=None)

_FULL = {
    "ref_rounds": Workload(
        "ref_rounds",
        REF_DATA,
        (
            _run_rounds(
                [
                    "--strategies", "random,coreset_raw,coreset_learned",
                    "--groups", "ntxent,patient,volume",
                    "--repeats", "2", "--epochs", "30", "--threads", "2",
                ]
            ),
        ),
        "acc_auc.coreset_learned",
    ),
    "ref_ablate": Workload(
        "ref_ablate",
        REF_DATA,
        (_ablate(["--groups", "patient,volume,slice", "--epochs", "10"]),),
        "ablate_acc_mean",
    ),
    "scaled": Workload(
        "scaled",
        SCALED_DATA,
        (
            STATS,
            _run_rounds(
                [
                    "--strategies", "random,coreset_raw",
                    "--fractions", "0.02,0.05,0.10,0.20",
                    "--repeats", "1", "--threads", "1",
                ]
            ),
        ),
        "acc_auc.coreset_raw",
    ),
}


def _tiny(w):
    commands = []
    for c in w.commands:
        args = list(c.args)
        if "--epochs" in args:
            args[args.index("--epochs") + 1] = "2"
        commands.append(Command(c.name, tuple(args), c.artifact, c.out_flag))
    return Workload(w.name, TINY_DATA, tuple(commands), w.accuracy)


WORKLOADS = {"full": _FULL, "tiny": {name: _tiny(w) for name, w in _FULL.items()}}


def argv(command, data_dir, out_dir, seed):
    """The full ``slicepick`` argument list for one command."""
    out = [command.name, "--data", str(data_dir)]
    if command.name != "stats":
        out += ["--seed", str(seed)]
    if command.out_flag:
        out += [command.out_flag, str(out_dir / command.artifact)]
    return out + list(command.args)
