"""Self-contained oracle suites behind the ``verify`` CLI subcommand.

Each suite re-derives an expected result through an independent route
(finite differences, exhaustive search, full distance passes, invariant
checking) and compares the production path against it.
"""

import math
from dataclasses import replace
from itertools import combinations

import numpy as np

from . import _kernels
from .coreset import SelectionState, _check_budget, _check_rows, k_center_greedy
from .data import SynthSpec, generate_synthetic
from .errors import SamplerError
from .losses import (
    GROUP_LOSSES,
    LossBatch,
    LossConfig,
    LossStructure,
    combined_loss,
    loss_and_grad,
    preset_loss_config,
    slice_positives_from_rows,
)
from .pipeline import probe_accuracy
from .sampler import GROUP_TYPES, build_epoch, tuple_width

BRUTE_FORCE_LIMIT = 10 ** 6


def random_loss_batch(rng, n_pairs=4, dim=5, n_patients=2):
    """A random two-view batch with plausible patient/volume/depth structure."""
    pid1 = rng.integers(0, n_patients, size=n_pairs)
    vid1 = pid1 * 10 + rng.integers(0, 2, size=n_pairs)
    idx1 = rng.integers(0, 4, size=n_pairs)
    sid1 = np.arange(n_pairs)
    z = rng.standard_normal((2 * n_pairs, dim))
    pos = slice_positives_from_rows(
        np.tile(sid1, 2), np.tile(vid1, 2), np.tile(idx1, 2)
    )
    return LossBatch(z, LossStructure(np.tile(pid1, 2)[None], np.tile(vid1, 2)[None], pos[None]))


def random_loss_epoch(rng, n_batches=4, n_pairs=4, n_patients=3):
    """(B, 2N) patient and volume ids and a (B, N, 2N) adjacency mask of B
    mirrored two-view batches, B >= 4, with every case a step can meet:
    batch 1's adjacency term is dead, batch 2's anchor 0 has no adjacency
    positive, and batch 3 is one patient whose anchor 0 has none either and
    no row of another patient to repel."""
    pid = rng.integers(0, n_patients, size=(n_batches, n_pairs))
    pid[3] = pid[3, 0]
    vid = pid * 10 + rng.integers(0, 2, size=(n_batches, n_pairs))
    sid = rng.integers(0, 2 * n_pairs, size=(n_batches, n_pairs))
    depth = rng.integers(0, 4, size=(n_batches, n_pairs))
    pid, vid, sid, depth = (np.concatenate([x, x], axis=1) for x in (pid, vid, sid, depth))
    spos = slice_positives_from_rows(sid, vid, depth)
    spos[1] = False
    spos[2:4, 0] = False
    return pid, vid, spos


def fd_loss_grad(batch, cfg, step=1e-5):
    """Central finite differences of the combined loss over every embedding."""
    z0 = batch.z
    grad = np.zeros_like(z0)
    for idx in np.ndindex(z0.shape):
        zp = z0.copy()
        zp[idx] += step
        zm = z0.copy()
        zm[idx] -= step
        lp = combined_loss(replace(batch, z=zp), cfg)
        lm = combined_loss(replace(batch, z=zm), cfg)
        grad[idx] = (lp - lm) / (2 * step)
    return grad


def max_rel_err(a, b):
    """Largest per-entry |a-b| / max(|a|, |b|, 1) (relative above unit scale,
    absolute below it)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
    return float(np.max(np.abs(a - b) / denom))


def check_gradients(n_batches=5, seed=2024, tol=1e-6):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_batches):
        batch = random_loss_batch(rng, n_pairs=int(rng.integers(2, 5)))
        cfg = LossConfig(
            tau=float(rng.choice([0.1, 0.5, 1.0])),
            ntxent=1.0,
            patient=0.05,
            volume=0.35,
            slice_group=0.1,
        )
        worst = max(worst, max_rel_err(loss_and_grad(batch, cfg)[1], fd_loss_grad(batch, cfg)))
    return worst < tol, f"max rel err {worst:.3g} (tol {tol:g})"


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _reduction_faults(rng, n):
    """The first reduction of the training step, for batches of n pairs,
    whose ufunc method differs in bits from the wrapper or the loop it
    replaces, or None."""
    n2 = 2 * n
    for k in (1, 2, 3):
        blocks = rng.standard_normal((k + 1, n, n2))
        one_by_one = blocks[0].copy()
        for block in blocks[1:]:
            one_by_one += block
        if not _same_bits(np.add.reduce(blocks, axis=0), one_by_one):
            return f"axis-0 add.reduce of {k + 1} ({n}, {n2}) blocks differs from +="
    rows = rng.standard_normal((n2 + 3 * n, n2))
    z = rng.standard_normal((n2, 16))
    finite = rng.random((n2, 16)) < 0.99
    vec = rng.standard_normal(3 * n * n2)
    stop = int(rng.integers(1, vec.size + 1))
    start = int(rng.integers(stop))
    pairs = {
        "mean": (np.add.reduce(vec[:n2]) / n2, np.mean(vec[:n2])),
        "1-D sum": (np.add.reduce(vec), vec.sum()),
        "sum of a slice": (np.add.reduce(vec[start:stop]), vec[start:stop].copy().sum()),
        "row maxima": (np.maximum.reduce(rows, axis=1), rows.max(axis=1)),
        "row sums": (np.add.reduce(rows, axis=1), rows.sum(axis=1)),
        "column sums": (np.add.reduce(z, axis=0), np.sum(z, axis=0)),
        "all": (np.logical_and.reduce(finite, axis=None), finite.all()),
        "any": (np.logical_or.reduce(finite[0]), finite[0].any()),
    }
    for name, (ours, wrapper) in pairs.items():
        if not _same_bits(ours, wrapper):
            return f"{name} over {n} pairs differs from its numpy wrapper"
    return None


def check_loss_tables(n_epochs=4, seed=2024):
    """The facts the per-epoch loss tables and the training step rest on,
    re-checked on this machine's numpy: the ufunc reductions give the bits
    of the wrappers and the loop they replace, on the step's shapes; and on
    seeded epochs, every batch evaluated through its epoch's structure gives
    the bits of a lone batch, a ``LossStructure`` of B = 1 built from the
    same ids with every term, for every term subset (the epochs hold a dead
    term, an anchor with no positive and an empty denominator row, see
    ``random_loss_epoch``)."""
    rng = np.random.default_rng(seed)
    for n in range(1, 13):
        fault = _reduction_faults(rng, n)
        if fault:
            return False, fault
    names = ("ntxent", *GROUP_LOSSES)
    subsets = [[t for j, t in enumerate(names) if mask >> j & 1] for mask in range(1, 16)]
    for e in range(n_epochs):
        n = int(rng.integers(1, 10))
        pid, vid, spos = random_loss_epoch(rng, n_batches=5, n_pairs=n)
        z = rng.standard_normal((5, 2 * n, 3))
        for terms in subsets:
            weights = dict(zip(GROUP_LOSSES, rng.uniform(0.1, 1, 3).tolist()))
            cfg = preset_loss_config(terms, tau=(0.1, 0.5)[e % 2], overrides={
                g: w for g, w in weights.items() if g in terms
            })
            structure = LossStructure(pid, vid, spos, cfg.terms)
            for b in range(5):
                ours = loss_and_grad(LossBatch(z[b], structure=structure, index=b), cfg)
                alone = LossStructure(pid[b][None], vid[b][None], spos[b][None])
                lone = loss_and_grad(LossBatch(z[b], alone), cfg)
                if ours[0] != lone[0] or not _same_bits(ours[1], lone[1]):
                    return False, f"epoch {e} batch {b}, terms {terms}: differs from a lone batch"
    return True, (f"ufunc reductions match their wrappers for 1-12 pairs; "
                  f"{n_epochs} epochs x 15 term subsets match lone batches")


def brute_force_k_center(emb, initial_labeled, k):
    """Exhaustive optimum of the k-center objective.

    Tries every k-subset of the unlabeled rows and returns (optimal radius,
    first optimal subset in lexicographic order). Refuses instances with
    more than 10^6 candidate subsets. Every distance, the initial cover's
    included, comes from one direct ``pairwise_dists`` matrix, never through
    ``SelectionState``'s screen.
    """
    n = len(emb)
    labeled = _check_rows(sorted(set(int(i) for i in initial_labeled)), n)
    free = [i for i in range(n) if i not in labeled]
    _check_budget(k, len(free))
    if math.comb(len(free), k) > BRUTE_FORCE_LIMIT:
        raise ValueError(f"C({len(free)}, {k}) exceeds the {BRUTE_FORCE_LIMIT} subset limit")
    D = _kernels.pairwise_dists(emb)
    base = D[labeled].min(axis=0) if labeled else np.full(n, np.inf)
    best_radius, best_set = np.inf, None
    for combo in combinations(free, k):
        radius = float(np.max(np.minimum(base, D[list(combo)].min(axis=0)) if combo else base))
        if radius < best_radius:
            best_radius, best_set = radius, combo
    return best_radius, list(best_set)


def check_two_opt(n_instances=30, seed=2024):
    rng = np.random.default_rng(seed)
    worst_ratio = 0.0
    for _ in range(n_instances):
        n = int(rng.integers(5, 13))
        k = int(rng.integers(1, 5))
        emb = rng.standard_normal((n, int(rng.integers(1, 4))))
        n_init = int(rng.integers(0, 3))
        initial = list(rng.choice(n, size=n_init, replace=False))
        k = min(k, n - n_init)
        greedy = k_center_greedy(SelectionState(emb, initial), k, int(rng.integers(2 ** 31)))
        opt_radius, _ = brute_force_k_center(emb, initial, k)
        radius = cover_radius(emb, greedy.labeled)
        if opt_radius > 0:
            worst_ratio = max(worst_ratio, radius / opt_radius)
        elif radius > 0:
            return False, f"greedy radius {radius} > 0 while optimum is 0"
    ok = worst_ratio <= 2.0 + 1e-9
    return ok, f"worst greedy/optimal ratio {worst_ratio:.4f} (bound 2)"


def cover_radius(emb, labeled):
    """Largest distance from any row to its nearest labeled row: the oracle
    for the screened cover, ``full_pass_greedy``'s full passes with k = 0."""
    if len(labeled) == 0:
        raise ValueError("cover radius of an empty labeled set is undefined")
    return float(full_pass_greedy(emb, labeled, 0)[1].max())


def full_pass_greedy(emb, initial, k, cold_start_seed=None):
    """k-center greedy with one full ``dist_to_row`` pass per center and no
    screen; returns (trace, min_dist) for comparison with ``k_center_greedy``."""
    emb = np.ascontiguousarray(emb, dtype=np.float64)
    n = emb.shape[0]
    labeled = sorted(set(int(i) for i in initial))
    min_dist = np.full(n, np.inf)
    for idx in labeled:
        np.minimum(min_dist, _kernels.dist_to_row(emb, idx), out=min_dist)
    trace = []
    for _ in range(k):
        if labeled:
            cand = min_dist.copy()
            cand[labeled] = -np.inf
            idx = int(np.argmax(cand))
            picked = float(min_dist[idx])
        else:
            rng = np.random.default_rng(cold_start_seed)
            idx = 0 if cold_start_seed is None else int(rng.permutation(n)[0])
            picked = np.inf
        labeled.append(idx)
        trace.append((idx, picked))
        np.minimum(min_dist, _kernels.dist_to_row(emb, idx), out=min_dist)
    return trace, min_dist


def brute_force_nearest(emb, labeled):
    """Each row's nearest labeled row, by a plain loop over the labeled rows
    in index order: the least direct squared distance ``einsum((x - c)**2)``,
    ties going to the lowest row. -1 for every row when none is labeled."""
    emb = np.ascontiguousarray(emb, dtype=np.float64)
    order = sorted(set(int(i) for i in labeled))
    out = np.full(emb.shape[0], -1, dtype=np.int64)
    for i in range(emb.shape[0]):
        diff = emb[i] - emb[order + order]  # each row twice: never a lone row
        d2 = np.einsum("ij,ij->i", diff, diff)
        best = np.inf
        for c, d in zip(order, d2):
            if out[i] < 0 or d < best:
                out[i], best = c, d
    return out


def check_screened_cover(n_instances=30, seed=2024):
    """Screened greedy against the full-pass loop, picks and min_dist bytes,
    and its nearest labeled rows against ``brute_force_nearest``, on Gaussian
    data, on near-tie data (a large offset plus tiny noise, where the norm
    expansion cancels about 16 digits) and on small integers (exact ties),
    with this machine's BLAS computing the screen's float32 product."""
    rng = np.random.default_rng(seed)
    for i in range(n_instances):
        n, p = int(rng.integers(2, 60)), int(rng.integers(1, 40))
        emb = rng.standard_normal((n, p))
        if i % 3 == 1:
            emb = 1e4 + 1e-4 * emb
        elif i % 3 == 2:
            emb = rng.integers(-2, 3, size=(n, p)).astype(np.float64)
        initial = list(rng.choice(n, size=int(rng.integers(0, 3)), replace=False))
        k = int(rng.integers(0, n - len(initial) + 1))
        cold = int(rng.integers(2 ** 31))
        state = k_center_greedy(SelectionState(emb, initial), k, cold_start_seed=cold)
        trace, min_dist = full_pass_greedy(emb, initial, k, cold)
        where = f"instance {i} ({n}x{p}, k={k})"
        if state.trace != trace or state.min_dist.tobytes() != min_dist.tobytes():
            return False, f"{where} differs from the full passes"
        if not np.array_equal(state.nearest, brute_force_nearest(emb, state.labeled)):
            return False, f"{where}: nearest labeled rows differ from the loop"
    return True, f"{n_instances} instances bit-identical to full passes and the nearest-row loop"


def check_carried_state(n_instances=30, seed=2024):
    """One ``SelectionState`` over nested random rounds, each first extended
    by its last row twice and by round 0's first row, which later rounds
    hold: nearest rows against ``brute_force_nearest``, probes against a
    fresh state's and, every other round, ``min_dist`` against the full
    passes, on ``check_screened_cover``'s kinds of data, every other
    instance as float32, through this BLAS."""
    rng = np.random.default_rng(seed)
    for i in range(n_instances):
        n, p = int(rng.integers(2, 60)), int(rng.integers(1, 40))
        emb = [rng.standard_normal((n, p)), 1e4 + 1e-4 * rng.standard_normal((n, p)),
               rng.integers(-2, 3, size=(n, p))][i % 3].astype((np.float64, np.float32)[i % 2])
        order, labels, state = rng.permutation(n), rng.integers(0, 3, n), SelectionState(emb)
        for r, b in enumerate(np.unique(rng.integers(1, n + 1, size=4)).tolist()):
            labeled = sorted(order[:b].tolist())
            where = f"instance {i} ({emb.dtype}, {n}x{p}), {b} labeled"
            state.extend([order[b - 1], order[b - 1], order[0]])
            if probe_accuracy(emb, labeled, labels, state) != probe_accuracy(emb, labeled, labels):
                return False, f"{where}: the probe differs from a fresh state's"
            if not np.array_equal(state.nearest, brute_force_nearest(emb, labeled)):
                return False, f"{where}: nearest labeled rows differ from the loop"
            if r % 2 and state.min_dist.tobytes() != full_pass_greedy(emb, labeled, 0)[1].tobytes():
                return False, f"{where}: min_dist differs from the full passes"
    return True, f"{n_instances} instances' nested rounds match the nearest-row loop"


def _require(holds, invariant):
    if not holds:
        raise SamplerError(f"sampler invariant broken: {invariant}")


def validate_plan(ds, plan, enabled_groups):
    """Raise SamplerError, naming the invariant, unless an epoch plan
    satisfies all of them. Pools are re-derived from ``ds.ids`` alone."""
    width = tuple_width(enabled_groups)
    order = tuple(g for g in GROUP_TYPES if g in enabled_groups)
    rows = plan.batches
    _require(
        isinstance(rows, np.ndarray) and rows.dtype == np.int64 and rows.ndim == 3,
        "batches are not a (B, N, width) int64 array",
    )
    _require(((rows >= 0) & (rows < ds.n)).all(), "a row is out of range")
    _require(rows.shape[2] == width, "tuple width mismatch")
    _require(rows.shape[1] * width == plan.batch_size_slices, "batch is not exactly M slices")
    _require(plan.groups == order, "companion order/type mismatch")
    sid, pid, vid, depth = np.moveaxis(ds.ids[rows], 3, 0)  # each (B, N, width)
    anchor_pids = np.sort(pid[:, :, 0], axis=1)
    _require(
        not (anchor_pids[:, 1:] == anchor_pids[:, :-1]).any(), "patients repeat within a batch"
    )
    _, volume_of, volume_size = np.unique(ds.ids[:, 2], return_inverse=True, return_counts=True)
    lone = volume_size[volume_of[rows[:, :, 0]]] == 1
    for c, group_type in enumerate(order, 1):
        same_volume = vid[:, :, c] == vid[:, :, 0]
        other = sid[:, :, c] != sid[:, :, 0]
        if group_type == "slice":
            step = np.abs(depth[:, :, c] - depth[:, :, 0]) == 1
            ok = (same_volume & step) | (lone & ~other)
        elif group_type == "volume":
            ok = same_volume & other
        else:
            ok = (pid[:, :, c] == pid[:, :, 0]) & other
        _require(ok.all(), f"bad {group_type} companion")
    anchors = rows[:, :, 0].ravel()
    _require(np.unique(anchors).size == anchors.size, "an anchor repeats within the epoch")


def check_sampler(n_datasets=10, seed=2024):
    rng = np.random.default_rng(seed)
    for i in range(n_datasets):
        spec = SynthSpec(
            n_patients=int(rng.integers(3, 7)),
            volumes_per_patient=int(rng.integers(1, 3)),
            slices_per_volume=int(rng.integers(2, 6)),
            h=2,
            w=2,
            seed=int(rng.integers(2 ** 31)),
        )
        ds, _ = generate_synthetic(spec)
        for groups in (set(), {"slice"}, {"slice", "volume"}, {"slice", "volume", "patient"}):
            width = tuple_width(groups)
            plan = build_epoch(ds, groups, width * 2, seed=int(rng.integers(2 ** 31)))
            try:
                validate_plan(ds, plan, groups)
            except SamplerError as exc:
                return False, f"dataset {i}, groups {sorted(groups)}: {exc}"
    return True, f"{n_datasets} datasets x 4 group settings clean"


def run_all():
    """Run every suite; returns a list of (name, ok, detail)."""
    # one line for both greedy oracles: exhaustive search and full passes
    two_opt_ok, two_opt = check_two_opt()
    cover_ok, cover = check_screened_cover()
    return [
        ("gradient-vs-finite-differences", *check_gradients()),
        ("greedy-vs-exhaustive-and-full-passes", two_opt_ok and cover_ok, f"{two_opt}; {cover}"),
        ("sampler-invariants", *check_sampler()),
        ("loss-tables-vs-lone-batches", *check_loss_tables()),
        ("carried-probe-vs-nearest-row-loop", *check_carried_state()),
    ]
