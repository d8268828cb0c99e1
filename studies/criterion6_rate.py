"""Acceptance criterion 6 as a measured rate.

    PYTHONPATH=src python3 studies/criterion6_rate.py [--repeats R] [--threads T]
        [--epochs E] [--cold-starts K]

Runs criterion 6's experiment (``tests/test_acceptance.py``: the reference
dataset, ``BEST_WEIGHTS``, ``TrainConfig(epochs=40)``, ``RoundPlan(seed=123)``)
over R repeats instead of 5 and prints, per repeat, whether the learned-space
ordering holds: in every round, the learned greedy's cover radius in the
learned space is at most the raw greedy's (+1e-12). Then the rate with a
Wilson 95% interval, each failing (repeat, round, budget, learned radius,
raw radius), and the 5% probe accuracies of criterion 6's first assertion.

The share of cold starts: each repeat's learned space is read from the
report, where the repeat's one training left it, and the learned greedy is
run from each of K cold-start rows (every row by default, else a sample
seeded by 0) through the nested budgets. A start keeps the ordering when
its learned-space radius is at most the raw greedy's ``delta_learned`` +
1e-12 in every round. As a self-check, the greedy started from the
pipeline's own cold-start row, ``coreset_learned``'s first pick of round 0,
must give each round's ``coreset_learned`` ``delta_learned`` of the report
bit for bit; if it does not, the study exits 1.

Each repeat's streams are keyed by its number, so repeats 0-4 are the five
of the tier-1 test and their count is the one it asserts (>= 4); ``--epochs``
other than 40 is a different experiment. The study is not part of the test
suite; it changes no test, threshold or seed.
"""

import argparse
import math
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

from slicepick import (  # noqa: E402
    RoundPlan, SelectionState, TrainConfig, generate_synthetic, k_center_greedy, run_experiment,
)
from test_acceptance import BEST_WEIGHTS, REFERENCE_SPEC  # noqa: E402

KINDS = ["random", "coreset_raw", "coreset_learned"]
TIER1_REPEATS = 5
CRITERION6_EPOCHS = 40


def wilson(successes, n, z=1.959964):
    """The Wilson score interval of a binomial proportion."""
    p = successes / n
    center = (p + z * z / (2 * n)) / (1 + z * z / n)
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / (1 + z * z / n)
    return center - half, center + half


def radii_from(space, start, budgets):
    """The learned greedy's cover radius after each nested budget, its
    first center the row ``start``: a cold start at that row."""
    state = SelectionState(space, [start])
    radii = []
    for budget in budgets:
        k_center_greedy(state, budget - np.count_nonzero(state.mask))
        radii.append(float(state.min_dist.max()))
    return radii


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=20)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--epochs", type=int, default=CRITERION6_EPOCHS)
    parser.add_argument("--cold-starts", type=int, default=None,
                        help="cold-start rows per repeat (default: every row)")
    args = parser.parse_args(argv)
    for flag, value in [("--repeats", args.repeats), ("--threads", args.threads),
                        ("--epochs", args.epochs)]:
        if value < 1:
            parser.error(f"{flag} must be >= 1")

    t0 = time.perf_counter()
    ds, labels = generate_synthetic(REFERENCE_SPEC)
    if args.cold_starts is not None and not 1 <= args.cold_starts <= ds.n:
        parser.error(f"--cold-starts must lie in [1, {ds.n}]")
    starts = np.arange(ds.n) if args.cold_starts is None else np.sort(
        np.random.default_rng(0).choice(ds.n, args.cold_starts, replace=False))
    plan = RoundPlan(n_repeats=args.repeats, seed=123)
    rep = run_experiment(
        ds, labels, KINDS, plan, loss=BEST_WEIGHTS, train=TrainConfig(epochs=args.epochs),
        threads=args.threads,
    )
    row_of = {sid: i for i, sid in enumerate(ds.ids[:, 0].tolist())}
    five_pct = plan.fractions.index(0.05)

    holds, failures, kept, mismatches = [], [], [], []
    for r in range(plan.n_repeats):
        raw = [rep.entry("coreset_raw", r, rd).delta_learned for rd in range(len(rep.budgets))]
        ok = True
        for rd, budget in enumerate(rep.budgets):
            learned = rep.entry("coreset_learned", r, rd).delta_learned
            if not learned <= raw[rd] + 1e-12:
                ok = False
                failures.append((r, rd, budget, learned, raw[rd]))
        holds.append(ok)
        space = rep.learned_spaces[r]
        own = row_of[rep.entry("coreset_learned", r, 0).selected[0]]
        reported = [rep.entry("coreset_learned", r, rd).delta_learned
                    for rd in range(len(rep.budgets))]
        if radii_from(space, own, rep.budgets) != reported:
            mismatches.append(r)
        kept.append(sum(
            all(a <= b + 1e-12 for a, b in zip(radii_from(space, int(s), rep.budgets), raw))
            for s in starts
        ))
        acc_l = rep.entry("coreset_learned", r, five_pct).probe_accuracy
        acc_r = rep.entry("random", r, five_pct).probe_accuracy
        print(f"repeat {r:3d}: ordering {'holds' if ok else 'FAILS'}; "
              f"cold starts keeping it {kept[-1]}/{len(starts)}; "
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
    pairs = n * len(starts)
    print(f"cold starts keeping the ordering: {sum(kept)}/{pairs} (repeat, cold start) "
          f"pairs, share {sum(kept) / pairs:.3f}")
    if mismatches:
        print(f"self-check FAILED: the pipeline's own cold start does not reproduce "
              f"coreset_learned's delta_learned in repeats {mismatches}")
    else:
        print(f"self-check passed: the pipeline's own cold start reproduces "
              f"coreset_learned's delta_learned bit for bit in all {n} repeats")
    print(f"({time.perf_counter() - t0:.1f}s, --threads {args.threads}, "
          f"--epochs {args.epochs})")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
