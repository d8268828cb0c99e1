"""K-center greedy selection, exhaustive k-center oracle, and clustering
quality metrics over an embedding matrix.

Greedy selection repeatedly takes the point farthest from the current
centers, which 2-approximates the optimal max-min cover radius. Distances
are Euclidean in float64 whether the matrix is float32 or float64, and the
argmax scan takes the first maximum, so ties go to the lowest row.

One ``SelectionState`` is the running cover of one matrix, built once with
its squared norms, float32 form and each row's screen slack, and extended
in place by every later greedy call or by rows chosen elsewhere. A new
center c lowers each row's distance m to its nearest center behind a
screen: one float32 matrix product (``_kernels._sq_dist_expansion``) gives
|x|^2 - 2 x.c + |c|^2 for every row x, and only rows within the rounding
bound of ``_kernels.nn_indices`` of m^2 get the direct float64 distance.
The bound proves the picks and every ``min_dist`` byte those of a full
``dist_to_row`` pass per center, the oracle that ``checks.cover_radius``
keeps. A greedy pick screens the next farthest rows with its own, since
later picks mostly come from them. The cover also holds each row's nearest
center, ``nearest``, in the 1-NN probe's order: least direct squared
distance d2, then lowest row (where a center ties m, the direct d2 decide).
So a state over the pixel matrix answers the probe with no search
(``pipeline.cover_probe_accuracy``); every other probe carries its nearest
rows across rounds by the same bound (``pipeline.ProbeCarry``).
"""

import math
from itertools import combinations

import numpy as np

from . import _kernels
from .errors import SettingError

BRUTE_FORCE_LIMIT = 10 ** 6

# rows whose screen columns a greedy pick computes at once: its own and those
# of the next farthest rows, which later picks mostly are; on a 1,200 x 1,024
# matrix 16 columns cost about four matrix-vector products
_PREFETCH = 16

# k-means: Lloyd iterations per restart at most, and k-means++ restarts
_KMEANS_ITERS = 100
_KMEANS_RESTARTS = 4


class SelectionState:
    """A running k-center cover of one matrix, extended in place.

    Holds the matrix ``emb`` as given (a C-contiguous float32 or float64
    one, not copied), its float64 squared row norms ``sq_norms``, its float32
    form ``emb32`` (``emb`` itself when float32) and each row's screen slack
    as a center, ``slack`` (all computed here, once), the selected rows
    ``labeled``, each row's distance to its nearest center ``min_dist`` and
    that center ``nearest`` (-1 before the first), and ``trace``, the
    (picked index, distance at pick time) pairs of the last
    ``k_center_greedy`` call. ``labeled`` seeds the cover, sorted and
    without repeats.
    """

    def __init__(self, emb, labeled=()):
        self.emb = _kernels._matrix(emb)
        n, p = self.emb.shape
        labeled = sorted(set(int(i) for i in labeled))
        if labeled and not (0 <= labeled[0] and labeled[-1] < n):
            raise IndexError("initial labeled index out of range")
        self.sq_norms = _kernels._sq_norms(self.emb)
        self.emb32 = _kernels._as_f32(self.emb)
        with np.errstate(over="ignore", invalid="ignore"):
            self.slack = _kernels._sq_dist_slack(self.sq_norms + self.sq_norms.max(initial=0), p)
        self.labeled = []
        self.min_dist = np.full(n, np.inf)
        self.nearest = np.full(n, -1, dtype=np.int64)
        self.trace = []
        self.extend(labeled)

    def extend(self, rows):
        """Add ``rows``, rows not yet labeled, as centers: append them to
        ``labeled`` and lower ``min_dist`` and ``nearest`` in place, as
        ``np.minimum(min_dist, dist_to_row(emb, c), out=min_dist)`` does for
        each center c in turn, bit for bit (``_lower``)."""
        rows = [int(i) for i in rows]
        self.labeled += rows
        # block the centers so the (block, n) screen matrix stays small
        block = _kernels._block_rows(self.emb.shape[0])
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, len(rows), block):
                centers = rows[start:start + block]
                for idx, approx in zip(centers, self._screen(centers)):
                    self._lower(idx, approx)

    def _screen(self, centers):
        """Each of ``centers``' ``_kernels._sq_dist_expansion`` column, a row of a view."""
        return _kernels._sq_dist_expansion(
            self.emb32, self.sq_norms, self.emb32[centers], self.sq_norms[centers]
        ).T

    def _lower(self, idx, approx):
        """Lower ``min_dist`` and ``nearest`` by center ``idx`` of screen
        column ``approx``, under the caller's ``np.errstate``. A row whose
        ``approx`` exceeds fl(m^2) plus the center's ``slack`` cannot have a
        direct distance at most its m (``nn_indices``' docstring has the
        proof); every other row gets that direct distance, by a full
        ``dist_to_row`` pass when every row passes, as in a cold start."""
        min_dist = self.min_dist
        bound = min_dist * min_dist
        bound += self.slack[idx]
        # a nan on either side, or an infinite bound, keeps the row
        cand = np.flatnonzero(~(approx > bound))
        if cand.size == min_dist.shape[0]:
            dist = _kernels.dist_to_row(self.emb, idx)
        elif cand.size:
            dist = _kernels._row_dists(self.emb, idx, cand)
        else:
            return
        self._take_nearest(idx, cand, dist)
        min_dist[cand] = np.minimum(min_dist[cand], dist)

    def _take_nearest(self, idx, rows, dist):
        """Make center ``idx`` the nearest of each of ``rows`` (distances
        ``dist``, before ``min_dist`` is lowered) that it is nearer to, by
        direct d2 and then row index, than its current nearest center."""
        emb, nearest = self.emb, self.nearest
        old = self.min_dist[rows]
        win = dist < old
        tie = np.flatnonzero(dist == old)
        if tie.size:
            tied, prev = _kernels._wide(emb[rows[tie]]), nearest[rows[tie]]
            new_d2 = _kernels._sq_dists(tied - emb[idx])  # float64, as tied is
            old_d2 = _kernels._sq_dists(tied - emb[prev])
            win[tie] = (prev < 0) | (new_d2 < old_d2) | ((new_d2 == old_d2) & (idx < prev))
        nearest[rows[win]] = idx


def _check_budget(k, free):
    if not 0 <= k <= free:
        rule = f"lie in [0, {free}] (the unlabeled rows)"
        raise SettingError("selection", {"budget": k}, "budget", rule)


def k_center_greedy(state, k, cold_start_seed=None):
    """Extend the ``SelectionState`` ``state`` with k greedy farthest-point
    picks, in place, and return it.

    The cover continues without recomputing any distance, norm or float32
    form, and gives the picks of a new state seeded with its labeled rows.
    The returned state's ``trace`` holds this call's picks only.

    With no labeled row yet the first center is the head of a seeded
    shuffle of the rows (row 0 when no seed is given); after that every
    pick maximizes the distance to the nearest existing center, ties going
    to the lowest row index. An integer seed must be nonnegative.
    """
    if isinstance(cold_start_seed, (int, np.integer)) and cold_start_seed < 0:
        seed = {"seed": cold_start_seed}
        raise SettingError("selection", seed, "seed", "be a nonnegative integer")
    state.trace = []
    n = state.min_dist.shape[0]
    _check_budget(k, n - len(state.labeled))
    labeled_mask = np.zeros(n, dtype=bool)
    labeled_mask[state.labeled] = True
    prefetched = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(k):
            if not state.labeled:
                if cold_start_seed is None:
                    idx = 0
                else:
                    idx = int(np.random.default_rng(cold_start_seed).permutation(n)[0])
                picked_dist = np.inf
            else:
                cand = np.where(labeled_mask, -np.inf, state.min_dist)
                idx = int(np.argmax(cand))
                picked_dist = float(state.min_dist[idx])
            if idx not in prefetched:
                top = [idx]
                if state.labeled:
                    top += [int(i) for i in np.argpartition(cand, -min(_PREFETCH, n))[-_PREFETCH:]
                            if i != idx]
                prefetched = dict(zip(top, state._screen(top).copy()))  # contiguous rows
            labeled_mask[idx] = True
            state.trace.append((idx, picked_dist))
            state.labeled.append(idx)
            state._lower(idx, prefetched[idx])
    return state


def brute_force_k_center(emb, initial_labeled, k):
    """Exhaustive optimum of the k-center objective.

    Tries every k-subset of the unlabeled rows and returns (optimal radius,
    first optimal subset in lexicographic order). Refuses instances with
    more than 10^6 candidate subsets. Every distance, the initial cover's
    included, comes from one direct ``pairwise_dists`` matrix, never through
    ``SelectionState``'s screen.
    """
    n = len(emb)
    labeled = set(int(i) for i in initial_labeled)
    if labeled and not (0 <= min(labeled) and max(labeled) < n):
        raise IndexError("initial labeled index out of range")
    free = [i for i in range(n) if i not in labeled]
    _check_budget(k, len(free))
    if math.comb(len(free), k) > BRUTE_FORCE_LIMIT:
        raise ValueError(
            f"C({len(free)}, {k}) exceeds the {BRUTE_FORCE_LIMIT} subset limit"
        )
    D = _kernels.pairwise_dists(emb)
    base = D[list(labeled)].min(axis=0) if labeled else np.full(n, np.inf)
    best_radius = np.inf
    best_set = None
    for combo in combinations(free, k):
        radius = float(
            np.max(np.minimum(base, D[list(combo)].min(axis=0)))
            if combo
            else np.max(base)
        )
        if radius < best_radius:
            best_radius = radius
            best_set = combo
    return best_radius, list(best_set)


def silhouette_score(emb, cluster_labels):
    """Mean silhouette over all points under Euclidean distance.

    Singleton clusters score 0, as does the 0/0 case where a point's intra- and
    inter-cluster distances are both zero. No copy of ``emb`` is made, only its distance matrix.
    """
    labels = np.asarray(cluster_labels)
    if labels.shape[0] != len(emb):
        raise ValueError("one cluster label per row is required")
    uniq, own = np.unique(labels, return_inverse=True)
    if uniq.size < 2:
        raise ValueError("silhouette needs at least two clusters")
    D = _kernels.pairwise_dists(emb)
    # per-cluster row sums of D; take, unlike D[:, cols], gives each row's
    # columns contiguous, so every sum is the one a single row's would be
    members = [np.flatnonzero(labels == c) for c in uniq]
    sums = np.stack([D.take(cols, axis=1).sum(axis=1) for cols in members], axis=1)
    sizes = np.array([cols.size for cols in members])
    rows = np.arange(len(emb))
    own_size = sizes[own]
    with np.errstate(divide="ignore", invalid="ignore"):
        a = sums[rows, own] / (own_size - 1)
        means = sums / sizes
        means[rows, own] = np.inf
        b = means.min(axis=1)
        denom = np.maximum(a, b)
        scores = (b - a) / denom
    # singleton convention, and the 0/0 of coincident points: 0
    scores[(own_size < 2) | (denom == 0)] = 0.0
    return float(scores.mean())


def _kmeanspp_centers(emb, n_clusters, rng):
    n = emb.shape[0]
    centers = np.empty((n_clusters, emb.shape[1]))
    centers[0] = emb[int(rng.integers(n))]
    d2 = _kernels._sq_dists_to(emb, centers[0])
    for c in range(1, n_clusters):
        total = d2.sum()
        if total == 0:
            centers[c:] = emb[int(rng.integers(n))]
            break
        centers[c] = emb[int(rng.choice(n, p=d2 / total))]
        d2 = np.minimum(d2, _kernels._sq_dists_to(emb, centers[c]))
    return centers


def kmeans_labels(emb, n_clusters, seed):
    """Lloyd k-means with k-means++ seeding; deterministic, labels only.

    Runs ``_KMEANS_RESTARTS`` restarts of at most ``_KMEANS_ITERS``
    iterations each and keeps the assignment with the lowest
    within-cluster sum of squares. An emptied cluster is reseeded to the
    row farthest from its current center; the matrix is widened a row block or a cluster at a time.
    """
    emb = _kernels._matrix(emb)
    n = emb.shape[0]
    if not 2 <= n_clusters <= n:
        raise ValueError("n_clusters must be in [2, n]")
    rng = np.random.default_rng(seed)
    best_labels = None
    best_inertia = np.inf
    for _ in range(_KMEANS_RESTARTS):
        centers = _kmeanspp_centers(emb, n_clusters, rng)
        labels = np.full(n, -1)
        for _ in range(_KMEANS_ITERS):
            new_labels = _kernels.nn_indices(emb, centers)
            if np.array_equal(new_labels, labels):
                break
            labels = new_labels
            dist_to_center = np.sqrt(_kernels._sq_dists_to(emb, centers, ref_rows=labels))
            for c in range(n_clusters):
                mask = labels == c
                if mask.any():
                    centers[c] = _kernels._wide(emb[mask]).mean(axis=0)
                else:
                    far = int(np.argmax(dist_to_center))
                    centers[c] = emb[far]
                    dist_to_center[far] = 0.0
        inertia = float(np.sum(_kernels._sq_dists_to(emb, centers, ref_rows=labels)))
        if inertia < best_inertia:
            best_inertia = inertia
            best_labels = labels
    return best_labels
