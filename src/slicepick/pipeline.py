"""Active-learning rounds: cumulative budgets, strategy dispatch, and a
label-efficiency probe.

Each repeat owns independent seed-derived RNG streams keyed by (plan seed,
repeat, strategy name), so repeats can run in any number of worker
processes with byte-identical results. The learned-metric strategy trains
its encoder once per repeat on the full pool; selection then extends a
nested labeled set round by round. The probe is 1-nearest-neighbor classification in raw
pixel space for every strategy, so the learned metric influences selection
only, never evaluation.
"""

import dataclasses
import functools
import json
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .coreset import _extend_cover, k_center_greedy
from .encoder import TrainConfig, embed_all, train
from .errors import SlicepickError
from .losses import LossConfig

DEFAULT_FRACTIONS = (0.02, 0.03, 0.04, 0.05, 0.10, 0.15, 0.20, 0.40)

STRATEGY_KINDS = ("random", "coreset_raw", "coreset_learned")


@dataclass(frozen=True)
class RoundPlan:
    fractions: tuple = DEFAULT_FRACTIONS
    n_repeats: int = 5
    seed: int = 0

    def __post_init__(self):
        fr = tuple(float(f) for f in self.fractions)
        if not fr:
            raise ValueError("at least one budget fraction is required")
        if any(not 0 < f <= 1 for f in fr):
            raise ValueError("budget fractions must lie in (0, 1]")
        if any(b >= a for b, a in zip(fr, fr[1:])):
            raise ValueError("budget fractions must be strictly increasing")
        object.__setattr__(self, "fractions", fr)
        if self.n_repeats < 1:
            raise ValueError("n_repeats must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")


@dataclass(frozen=True)
class StrategySpec:
    kind: str
    loss: LossConfig = None
    train: TrainConfig = None
    name: str = None

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if self.kind == "coreset_learned" and self.loss is None:
            raise ValueError("coreset_learned requires a loss config")
        if self.name is None:
            object.__setattr__(self, "name", self.kind)


@dataclass
class RoundEntry:
    strategy: str
    repeat: int
    round_index: int
    fraction: float
    budget: int
    selected: list  # slice ids in selection order; nested across rounds
    probe_accuracy: float
    delta: float = None  # cover radius in the strategy's own selection space
    delta_learned: float = None  # cover radius in the learned space, when one exists
    wall_time_s: float = 0.0  # in-memory only; never serialized


@dataclass
class RoundReport:
    n: int
    fractions: tuple
    budgets: list
    n_repeats: int
    strategies: list
    entries: list
    train_seconds: dict = field(default_factory=dict)  # in-memory only

    def entry(self, strategy, repeat, round_index):
        for e in self.entries:
            if (e.strategy, e.repeat, e.round_index) == (strategy, repeat, round_index):
                return e
        raise KeyError((strategy, repeat, round_index))

    def mean_over_repeats(self, strategy, round_index, attr):
        vals = [
            getattr(e, attr)
            for e in self.entries
            if e.strategy == strategy and e.round_index == round_index
        ]
        vals = [v for v in vals if v is not None]
        return float(np.mean(vals)) if vals else None

    def summary_rows(self):
        rows = []
        for strategy in self.strategies:
            for r, frac in enumerate(self.fractions):
                rows.append(
                    {
                        "strategy": strategy,
                        "round_fraction": frac,
                        "mean_accuracy": self.mean_over_repeats(strategy, r, "probe_accuracy"),
                        "mean_delta": self.mean_over_repeats(strategy, r, "delta"),
                        "mean_delta_learned": self.mean_over_repeats(
                            strategy, r, "delta_learned"
                        ),
                    }
                )
        return rows

    def to_json(self):
        doc = {
            "n": self.n,
            "fractions": list(self.fractions),
            "budgets": list(self.budgets),
            "n_repeats": self.n_repeats,
            "strategies": list(self.strategies),
            "entries": [
                {
                    "strategy": e.strategy,
                    "repeat": e.repeat,
                    "round": e.round_index,
                    "fraction": e.fraction,
                    "budget": e.budget,
                    "selected_slice_ids": list(e.selected),
                    "probe_accuracy": e.probe_accuracy,
                    "delta": e.delta,
                    "delta_learned": e.delta_learned,
                }
                for e in self.entries
            ],
            "summary": self.summary_rows(),
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def summary_csv(self):
        lines = ["strategy,round_fraction,mean_accuracy,mean_delta"]
        for row in self.summary_rows():
            delta = "" if row["mean_delta"] is None else repr(row["mean_delta"])
            lines.append(
                f"{row['strategy']},{row['round_fraction']!r},"
                f"{row['mean_accuracy']!r},{delta}"
            )
        return "\n".join(lines) + "\n"


def budgets(plan, n):
    """Cumulative integer budgets: round-half-up of fraction*n, at least 1,
    never decreasing, capped at n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out = []
    prev = 1
    for f in plan.fractions:
        b = int(np.floor(f * n + 0.5))
        b = min(max(b, 1, prev), n)
        out.append(b)
        prev = b
    return out


def probe_accuracy(features, labeled_rows, labels):
    """1-nearest-neighbor accuracy over the unlabeled rows.

    Each unlabeled row is classified by its nearest labeled row (ties to
    the lowest labeled row); a fully labeled pool scores 1.0 by convention.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    labeled = sorted(set(int(i) for i in labeled_rows))
    if not labeled:
        raise ValueError("probe needs at least one labeled row")
    mask = np.zeros(features.shape[0], dtype=bool)
    mask[labeled] = True
    unlabeled = np.flatnonzero(~mask)
    if unlabeled.size == 0:
        return 1.0
    nn = _kernels.nn_indices(features[unlabeled], features[labeled])
    pred = labels[np.asarray(labeled)][nn]
    return float(np.mean(pred == labels[unlabeled]))


def _stream_seed(plan_seed, repeat, name, salt=0):
    return np.random.SeedSequence([plan_seed, repeat, zlib.crc32(name.encode()), salt])


def _run_repeat(ds, X, labels, strategies, plan, budget_list, repeat):
    n = ds.n
    slice_ids = [rec.slice_id for rec in ds.slices]
    entries = []
    train_seconds = {}

    learned_spaces = {}
    for strat in strategies:
        if strat.kind != "coreset_learned":
            continue
        cfg = strat.train or TrainConfig()
        seed = int(_stream_seed(plan.seed, repeat, strat.name, 1).generate_state(1)[0])
        cfg = dataclasses.replace(cfg, seed=seed)
        t0 = time.perf_counter()
        result = train(ds, None, strat.loss, cfg)
        emb = embed_all(result.params, ds)
        train_seconds[(strat.name, repeat)] = time.perf_counter() - t0
        learned_spaces[strat.name] = emb
    primary_learned = next(
        (learned_spaces[s.name] for s in strategies if s.name in learned_spaces), None
    )

    for strat in strategies:
        if strat.kind == "random":
            rng = np.random.default_rng(_stream_seed(plan.seed, repeat, strat.name))
            order = rng.permutation(n)
            space = None
        else:
            space = X if strat.kind == "coreset_raw" else learned_spaces[strat.name]
            cold_seed = _stream_seed(plan.seed, repeat, strat.name, 2)
        # running covers, extended by each round's new rows only: the greedy
        # state, and every row's distance to the selection in the primary
        # learned space
        state = []
        learned_min = None if primary_learned is None else np.full(n, np.inf)
        selected = []
        for round_index, budget in enumerate(budget_list):
            t0 = time.perf_counter()
            if strat.kind == "random":
                new = [int(i) for i in order[len(selected):budget]]
            else:
                state = k_center_greedy(
                    space, state, budget - len(selected), cold_start_seed=cold_seed
                )
                new = [int(i) for i, _ in state.trace]
            selected = selected + new
            if learned_min is not None:
                if space is primary_learned:
                    learned_min = state.min_dist
                else:
                    _extend_cover(learned_min, primary_learned, new)
            acc = probe_accuracy(X, selected, labels)
            entry = RoundEntry(
                strategy=strat.name,
                repeat=repeat,
                round_index=round_index,
                fraction=plan.fractions[round_index],
                budget=budget,
                selected=[slice_ids[i] for i in selected],
                probe_accuracy=acc,
                delta=float(state.min_dist.max()) if space is not None else None,
                delta_learned=float(learned_min.max()) if learned_min is not None else None,
                wall_time_s=time.perf_counter() - t0,
            )
            entries.append(entry)
    return entries, train_seconds


def _map_in_processes(fn, items, workers):
    """``[fn(x) for x in items]`` on a pool of forked worker processes.

    Training is short Python-bound numpy calls, so threads would serialize
    on the GIL; forked workers also start with every module imported. An
    exception raised by ``fn`` reaches the caller unchanged; a worker that
    dies becomes a SlicepickError.
    """
    # imported here, not at module level: multiprocessing adds ~20 ms to
    # every command's start-up, and only this path needs it
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    pool = ProcessPoolExecutor(
        max_workers=workers, mp_context=multiprocessing.get_context("fork")
    )
    try:
        return list(pool.map(fn, items))
    except BrokenProcessPool as exc:
        raise SlicepickError(f"a repeat worker process died: {exc}") from exc
    finally:
        # after a failure, items still queued are dropped, not run
        pool.shutdown(cancel_futures=True)


def run_experiment(ds, labels, strategies, plan, threads=1):
    """Run every (strategy, repeat, round) cell; deterministic in plan.seed.

    Repeats are independent; with ``threads > 1`` they run in up to that
    many forked worker processes (never more than there are repeats).
    Entries are assembled in (strategy, repeat, round) order regardless of
    worker count.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    labels = np.asarray(labels)
    if labels.shape[0] != ds.n:
        raise ValueError("labels must align with the dataset slices")
    names = [s.name for s in strategies]
    if len(set(names)) != len(names):
        raise ValueError(f"strategy names must be unique, got {names}")
    X = ds.pixel_matrix()
    budget_list = budgets(plan, ds.n)

    repeats = list(range(plan.n_repeats))
    run_repeat = functools.partial(
        _run_repeat, ds, X, labels, strategies, plan, budget_list
    )
    workers = min(threads, plan.n_repeats)
    if workers > 1:
        results = _map_in_processes(run_repeat, repeats, workers)
    else:
        results = [run_repeat(r) for r in repeats]

    order = {name: i for i, name in enumerate(names)}
    entries = [e for ents, _ in results for e in ents]
    entries.sort(key=lambda e: (order[e.strategy], e.repeat, e.round_index))
    train_seconds = {}
    for _, secs in results:
        train_seconds.update(secs)
    return RoundReport(
        n=ds.n,
        fractions=plan.fractions,
        budgets=budget_list,
        n_repeats=plan.n_repeats,
        strategies=names,
        entries=entries,
        train_seconds=train_seconds,
    )
