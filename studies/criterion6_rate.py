"""Acceptance criterion 6 as a measured rate.

    PYTHONPATH=src python3 studies/criterion6_rate.py [--repeats R] [--threads T]

Runs criterion 6's experiment (``tests/test_acceptance.py``: the reference
dataset, ``BEST_WEIGHTS``, ``TrainConfig(epochs=40)``, ``RoundPlan(seed=123)``)
over R repeats instead of 5 and prints, per repeat, whether the learned-space
ordering holds: in every round, the learned greedy's cover radius in the
learned space is at most the raw greedy's (+1e-12). Then the rate with a
Wilson 95% interval, each failing (repeat, round, budget, learned radius,
raw radius), and the 5% probe accuracies of criterion 6's first assertion.

Each repeat's streams are keyed by its number, so repeats 0-4 are the five
of the tier-1 test and their count is the one it asserts (>= 4). The study
is not part of the test suite; it changes no test, threshold or seed.
"""

import argparse
import math
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from slicepick import RoundPlan, TrainConfig, generate_synthetic, run_experiment  # noqa: E402
from test_acceptance import BEST_WEIGHTS, REFERENCE_SPEC  # noqa: E402

KINDS = ["random", "coreset_raw", "coreset_learned"]
TIER1_REPEATS = 5


def wilson(successes, n, z=1.959964):
    """The Wilson score interval of a binomial proportion."""
    p = successes / n
    center = (p + z * z / (2 * n)) / (1 + z * z / n)
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / (1 + z * z / n)
    return center - half, center + half


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=20)
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    t0 = time.perf_counter()
    ds, labels = generate_synthetic(REFERENCE_SPEC)
    plan = RoundPlan(n_repeats=args.repeats, seed=123)
    rep = run_experiment(
        ds, labels, KINDS, plan, loss=BEST_WEIGHTS, train=TrainConfig(epochs=40),
        threads=args.threads,
    )
    five_pct = plan.fractions.index(0.05)

    holds, failures = [], []
    for r in range(plan.n_repeats):
        ok = True
        for rd, budget in enumerate(rep.budgets):
            learned = rep.entry("coreset_learned", r, rd).delta_learned
            raw = rep.entry("coreset_raw", r, rd).delta_learned
            if not learned <= raw + 1e-12:
                ok = False
                failures.append((r, rd, budget, learned, raw))
        holds.append(ok)
        acc_l = rep.entry("coreset_learned", r, five_pct).probe_accuracy
        acc_r = rep.entry("random", r, five_pct).probe_accuracy
        print(f"repeat {r:3d}: ordering {'holds' if ok else 'FAILS'}; "
              f"5% probe accuracy learned {acc_l:.4f}, random {acc_r:.4f}")

    n, k = len(holds), sum(holds)
    lo, hi = wilson(k, n)
    print(f"\nlearned-space ordering holds in {k}/{n} repeats: rate {k / n:.3f}, "
          f"Wilson 95% interval [{lo:.3f}, {hi:.3f}]")
    if n >= TIER1_REPEATS:
        tier1 = sum(holds[:TIER1_REPEATS])
        print(f"repeats 0-{TIER1_REPEATS - 1} (the tier-1 draw): {tier1}/{TIER1_REPEATS}, "
              f"tier-1 needs >= 4")
    print("failing rounds (repeat, round, budget, learned radius, raw radius):")
    for r, rd, budget, learned, raw in failures:
        print(f"  ({r}, {rd}, {budget}, {learned!r}, {raw!r})")
    if not failures:
        print("  none")
    mean_l = rep.mean_over_repeats("coreset_learned", five_pct, "probe_accuracy")
    mean_r = rep.mean_over_repeats("random", five_pct, "probe_accuracy")
    wins = sum(
        rep.entry("coreset_learned", r, five_pct).probe_accuracy
        >= rep.entry("random", r, five_pct).probe_accuracy
        for r in range(n)
    )
    print(f"5% probe accuracy: learned mean {mean_l:.4f}, random mean {mean_r:.4f}; "
          f"learned >= random in {wins}/{n} repeats")
    print(f"({time.perf_counter() - t0:.1f}s, --threads {args.threads})")


if __name__ == "__main__":
    main()
