"""Active-learning rounds (cumulative budgets, strategy dispatch, a
label-efficiency probe), and the loss ablation as a one-budget round.

A strategy is its kind, named at most once in an experiment. Its tasks
use seed-derived RNG streams keyed by (plan seed, repeat, kind), so they
run in any number of worker processes with byte-identical results: with
``coreset_learned``, a training step per repeat learns its one space on
the full pool; then a cell per (kind, repeat) extends a nested labeled set
round by round given that space. A cell carries its ``SelectionState``s
across rounds, each extended by the round's new rows only: the greedy's,
the learned-space cover of ``delta_learned`` and the probe's in the pixel
space, each the greedy's own when it selects there.

Every round, of an experiment or of the ablation, is one ``_select_round``.
Its probe is 1-nearest-neighbor classification in raw pixel space, so the
learned metric influences selection only, never evaluation; it reads each
unlabeled row's nearest labeled row from a pixel-space state, which an
ablation row builds for its one round.
"""

import dataclasses
import functools
import json
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from .coreset import SelectionState, _check_rows, k_center_greedy, kmeans_labels, silhouette_score
from .encoder import TrainConfig, embed_all, train
from .errors import SettingError, SlicepickError

DEFAULT_FRACTIONS = (0.02, 0.03, 0.04, 0.05, 0.10, 0.15, 0.20, 0.40)

STRATEGY_KINDS = ("random", "coreset_raw", "coreset_learned")


@dataclass(frozen=True)
class RoundPlan:
    fractions: tuple = DEFAULT_FRACTIONS
    n_repeats: int = 5
    seed: int = 0

    def __post_init__(self):
        fr = tuple(float(f) for f in self.fractions)
        object.__setattr__(self, "fractions", fr)
        if not fr:
            raise SettingError("round", self, "fractions", "hold at least one budget fraction")
        if any(not 0 < f <= 1 for f in fr):
            raise SettingError("round", self, "fractions", "lie in (0, 1]")
        if any(b >= a for b, a in zip(fr, fr[1:])):
            raise SettingError("round", self, "fractions", "be strictly increasing")
        if self.n_repeats < 1:
            raise SettingError("round", self, "n_repeats", "be >= 1")
        if self.seed < 0:
            raise SettingError("round", self, "seed", "be a nonnegative integer")


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
    learned_spaces: dict = field(default_factory=dict)  # in-memory only, by repeat
    train_seconds: dict = field(default_factory=dict)  # in-memory only, by repeat

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


def probe_accuracy(features, labeled_rows, labels, state=None):
    """1-nearest-neighbor accuracy over the unlabeled rows.

    Each unlabeled row is classified by its nearest labeled row (ties to
    the lowest labeled row); a fully labeled pool scores 1.0 by convention.
    ``state``, a ``SelectionState`` over ``features`` (a new one by
    default), is extended by the labeled rows, so the rows it holds must be
    among them; only the rows it does not yet hold are copied. A row outside
    [0, n) raises ``IndexError`` and leaves the state as it was.
    """
    labels = np.asarray(labels)
    rows = np.sort(np.array([int(i) for i in labeled_rows], dtype=np.int64))
    if rows.size == 0:
        raise ValueError("probe needs at least one labeled row")
    state = SelectionState(features) if state is None else state
    chosen = np.zeros_like(state.mask)
    chosen[_check_rows(rows, len(chosen))] = True
    if (state.mask & ~chosen).any():
        raise ValueError("a probe's labeled rows must hold every earlier round's: its state's rows")
    state.extend(rows)
    unlabeled = np.flatnonzero(~state.mask)
    if unlabeled.size == 0:
        return 1.0
    return float(np.mean(labels[state.nearest[unlabeled]] == labels[unlabeled]))


def _stream_seed(plan_seed, repeat, kind, salt=0):
    return np.random.SeedSequence([plan_seed, repeat, zlib.crc32(kind.encode()), salt])


def _learned_space(ds, loss, train_cfg):
    """Every slice of ``ds`` embedded by an encoder trained on ``ds``."""
    return embed_all(train(ds, loss, train_cfg).params, ds)


def _train_repeat(ds, loss, train_cfg, plan_seed, repeat):
    """Repeat ``repeat``'s learned space and training seconds: its seed's one owner."""
    seed = int(_stream_seed(plan_seed, repeat, "coreset_learned", 1).generate_state(1)[0])
    t0 = time.perf_counter()
    space = _learned_space(ds, loss, dataclasses.replace(train_cfg, seed=seed))
    return space, time.perf_counter() - t0


def _select_round(X, labels, selected, budget, source, probe, cold_seed=None):
    """Grow the selection ``selected`` to ``budget`` rows from ``source``, a
    ``SelectionState`` the greedy extends in place or a row order (random's),
    and probe it with ``probe``, a ``SelectionState`` over the pixel matrix
    ``X`` (``source`` itself when it selects in ``X``); returns (new rows,
    probe accuracy, cover radius or None)."""
    if isinstance(source, SelectionState):
        k_center_greedy(source, budget - len(selected), cold_start_seed=cold_seed)
        new, delta = [int(i) for i, _ in source.trace], float(source.min_dist.max())
    else:
        new, delta = [int(i) for i in source[len(selected):budget]], None
    return new, probe_accuracy(X, selected + new, labels, probe), delta


def _run_cell(ds, labels, plan, budget_list, spaces, cell):
    """The nested rounds of one (kind, repeat) cell, given each repeat's learned space."""
    kind, repeat = cell
    X = ds.pixel_matrix()
    slice_ids = ds.ids[:, 0].tolist()
    # states extended by each round's new rows only: the greedy's, the probe's
    # in the pixel space and the cover in the learned space, each the
    # greedy's own when it selects there
    cold_seed = _stream_seed(plan.seed, repeat, kind, 2)
    if kind == "random":
        source = np.random.default_rng(_stream_seed(plan.seed, repeat, kind)).permutation(ds.n)
    else:
        source = SelectionState(X if kind == "coreset_raw" else spaces[repeat])
    probe = source if kind == "coreset_raw" else SelectionState(X)
    learned = source if kind == "coreset_learned" else None
    if learned is None and repeat in spaces:
        learned = SelectionState(spaces[repeat])
    entries, selected = [], []
    for round_index, budget in enumerate(budget_list):
        t0 = time.perf_counter()
        new, acc, delta = _select_round(X, labels, selected, budget, source, probe, cold_seed)
        selected = selected + new
        if learned is not None and learned is not source:
            learned.extend(new)
        entries.append(RoundEntry(
            kind, repeat, round_index, plan.fractions[round_index], budget,
            selected=[slice_ids[i] for i in selected], probe_accuracy=acc, delta=delta,
            delta_learned=None if learned is None else float(learned.min_dist.max()),
            wall_time_s=time.perf_counter() - t0,
        ))
    return entries


_worker_fn = None  # a forked worker's function, set by its pool's initializer


def _set_worker_fn(fn):
    global _worker_fn
    _worker_fn = fn


def _call_worker_fn(item):
    return _worker_fn(item)


def _map_in_processes(fn, items, threads):
    """``[fn(x) for x in items]`` on ``min(threads, len(items))`` forked workers, if > 1.

    Training is short Python-bound numpy calls, so threads would serialize
    on the GIL; forked workers also start with every module imported, and
    inherit ``fn`` through the pool's initializer, so a task pickles only
    its item, never what ``fn`` holds (a dataset, the learned spaces). An
    exception raised by ``fn`` reaches the caller unchanged; a worker that
    dies becomes a SlicepickError.
    """
    workers = min(threads, len(items))
    if workers <= 1:
        return [fn(x) for x in items]
    # imported here, not at module level: multiprocessing adds ~20 ms to
    # every command's start-up, and only this path needs it
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    pool = ProcessPoolExecutor(
        max_workers=workers, mp_context=multiprocessing.get_context("fork"),
        initializer=_set_worker_fn, initargs=(fn,),
    )
    try:
        return list(pool.map(_call_worker_fn, items))
    except BrokenProcessPool as exc:
        raise SlicepickError(f"an experiment worker process died: {exc}") from exc
    finally:
        # after a failure, items still queued are dropped, not run
        pool.shutdown(cancel_futures=True)


def run_experiment(ds, labels, kinds, plan, loss=None, train=TrainConfig(), threads=1):
    """Run every (strategy, repeat, round) cell; deterministic in plan.seed.

    ``kinds`` names each strategy of ``STRATEGY_KINDS`` at most once.
    ``loss`` and ``train`` configure the encoder that ``coreset_learned``
    trains, each repeat with its own seed; ``loss`` is required with it.
    The trainings, then the (strategy, repeat) cells given their spaces,
    are independent tasks; with ``threads > 1`` each phase runs in up to
    that many forked worker processes (never more than it has tasks).
    Entries come in (strategy, repeat, round) order regardless of worker
    count; the report keeps each repeat's learned space in memory only.
    """
    if threads < 1:
        raise SettingError("experiment", {"threads": threads}, "threads", "be >= 1")
    labels = np.asarray(labels)
    if labels.shape[0] != ds.n:
        raise ValueError("labels must align with the dataset slices")
    kinds = list(kinds)
    if not kinds:
        raise SettingError(
            "experiment", {"strategies": kinds}, "strategies", "hold at least one strategy"
        )
    if not set(kinds) <= set(STRATEGY_KINDS):
        rule = f"hold only the kinds {', '.join(STRATEGY_KINDS)}"
        raise SettingError("experiment", {"strategies": kinds}, "strategies", rule)
    if len(set(kinds)) != len(kinds):
        raise ValueError(f"strategy kinds must be unique, got {kinds}")
    if "coreset_learned" in kinds and loss is None:
        raise ValueError("coreset_learned requires a loss config")
    budget_list = budgets(plan, ds.n)

    repeats = list(range(plan.n_repeats)) if "coreset_learned" in kinds else []
    trained = _map_in_processes(
        functools.partial(_train_repeat, ds, loss, train, plan.seed), repeats, threads
    )
    spaces = {r: space for r, (space, _) in zip(repeats, trained)}
    cells = [(kind, r) for kind in kinds for r in range(plan.n_repeats)]
    run_cell = functools.partial(_run_cell, ds, labels, plan, budget_list, spaces)
    entries = [e for ents in _map_in_processes(run_cell, cells, threads) for e in ents]
    return RoundReport(
        n=ds.n, fractions=plan.fractions, budgets=budget_list, n_repeats=plan.n_repeats,
        strategies=kinds, entries=entries, learned_spaces=spaces,
        train_seconds={r: s for r, (_, s) in zip(repeats, trained)},
    )


def run_ablation(ds, labels, loss_cfgs, train_cfg, fraction, seed):
    """One greedy round to ``fraction`` of the slices in each space: the
    pixel space for a None entry of ``loss_cfgs``, else the space learned
    under it. ``seed`` itself seeds every training, cold start and k-means.
    Per entry: (silhouette of k-means into one cluster per volume, or None
    when that is undefined; probe accuracy; cover radius)."""
    budget = budgets(RoundPlan(fractions=(fraction,), seed=seed), ds.n)[0]
    X = ds.pixel_matrix()
    train_cfg = dataclasses.replace(train_cfg, seed=seed)
    n_volumes = len(ds.volume_bounds) - 1
    rows = []
    for loss in loss_cfgs:
        space = X if loss is None else _learned_space(ds, loss, train_cfg)
        # states of every row live only for their round
        state = SelectionState(space)
        probe = state if loss is None else SelectionState(X)
        _, acc, delta = _select_round(X, labels, [], budget, state, probe, seed)
        silhouette = None
        if n_volumes >= 2:
            clusters = kmeans_labels(space, n_volumes, seed)
            if clusters.min() != clusters.max():
                silhouette = silhouette_score(space, clusters)
        rows.append((silhouette, acc, delta))
    return rows
