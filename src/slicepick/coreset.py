"""K-center greedy selection and clustering quality metrics over an
embedding matrix.

Greedy selection repeatedly takes the point farthest from the current
centers, which 2-approximates the optimal max-min cover radius. Distances
are Euclidean in float64 whether the matrix is float32 or float64, and the
argmax scan takes the first maximum, so ties go to the lowest row.

One ``SelectionState`` holds the labeled set of one matrix as a ``mask``,
and each row's nearest labeled row in the 1-NN probe's order (least direct
squared distance d2, then lowest row), with that d2 within a bound (0
exactly when direct) and its square root ``min_dist``. The greedy and the
probe (``pipeline.probe_accuracy``) extend it in place by one merge rule:
two d2 further apart than their bounds decide by value, others by direct
d2 (after Elkan, ICML 2003). Rows chosen elsewhere come with the screen
values of one ``_kernels.nn_indices`` search, made direct only when
``min_dist`` is read, which the greedy and the cover radius do and a probe
never does. A greedy pick screens the rows it may lower with the same
bound on one float32 matrix product (``_kernels._sq_dist_expansion``), and
the next farthest rows with its own, since later picks mostly come from
them. The bound proves the picks and every ``min_dist`` byte those of a
full ``dist_to_row`` pass per center, ``checks.cover_radius``'s oracle.
"""

import functools

import numpy as np

from . import _kernels
from .errors import SettingError

# rows whose screen columns a greedy pick computes at once: its own and those
# of the next farthest rows, which later picks mostly are; on a 1,200 x 1,024
# matrix 16 columns cost about four matrix-vector products
_PREFETCH = 16

# k-means: Lloyd iterations per restart at most, and k-means++ restarts
_KMEANS_ITERS = 100
_KMEANS_RESTARTS = 4


class SelectionState:
    """Each row's nearest labeled row of one matrix, extended in place.

    Holds the matrix ``emb`` as given (a C-contiguous float32 or float64
    one, not copied), its float64 squared row norms ``sq_norms``, each row's
    screen slack as a center ``slack``, and the greedy's float32 form
    ``emb32`` (``emb`` itself when float32, else made on first use). Per
    row: ``nearest`` (-1 before any), its squared distance ``d2`` within
    ``bound`` (0 exactly when it is direct) and its distance ``min_dist``,
    all changed by ``_merge``; the labeled set, only as a ``mask`` (seeded
    by any rows ``labeled``); and ``trace``, the last ``k_center_greedy``
    call's (picked index, distance at pick time) pairs in pick order.
    """

    def __init__(self, emb, labeled=()):
        self.emb = _kernels._matrix(emb)
        n, p = self.emb.shape
        self.sq_norms = _kernels._sq_norms(self.emb)
        with np.errstate(over="ignore", invalid="ignore"):
            self.slack = _kernels._sq_dist_slack(self.sq_norms + self.sq_norms.max(initial=0), p)
        self.mask, self.trace = np.zeros(n, dtype=bool), []
        self.nearest = np.full(n, -1, dtype=np.int64)
        self.d2, self.bound, self._min_dist = np.full(n, np.inf), np.zeros(n), np.full(n, np.inf)
        self.extend(labeled)

    @functools.cached_property
    def emb32(self):
        return _kernels._as_f32(self.emb)

    @property
    def labeled(self):
        """The labeled rows, ``mask``'s rows in index order."""
        return np.flatnonzero(self.mask).tolist()

    @property
    def min_dist(self):
        """Each row's distance to its nearest labeled row, ``sqrt(d2)``: on a
        finite matrix, bit for bit the least of a full ``dist_to_row`` pass
        per labeled row. A row whose bound is not 0 gets its direct d2 here,
        on the first read."""
        with np.errstate(over="ignore", invalid="ignore"):
            self._exact(np.flatnonzero(self.bound))
        return self._min_dist

    def extend(self, rows):
        """Label ``rows``, any rows: a repeated or already labeled row is
        dropped, and the others get one ``nn_indices`` search for every row,
        merged into each row's nearest so far by ``_merge``. A row outside
        [0, n) raises ``IndexError`` and leaves the state as it was."""
        rows = np.sort(np.array([int(i) for i in rows], dtype=np.int64))
        fresh = ~self.mask[_check_rows(rows, len(self.mask))]
        new = rows[fresh & (np.diff(rows, prepend=-1) > 0)]  # a sorted repeat follows its first
        if not new.size:
            return
        self.mask[new] = True
        with np.errstate(over="ignore", invalid="ignore"):  # new is sorted: ties to the lower row
            near, d2, bound = _kernels.nn_indices(self.emb, self.emb[new], None, self.sq_norms, True)
            self._merge(np.arange(len(self.mask)), new[near], d2, bound)

    def _merge(self, rows, near, d2, bound):
        """Make ``near`` (one row, or one per row as ``bound``) the nearest
        labeled row of each of ``rows`` that it is nearer to in the probe's
        order, given its d2 within ``bound``. Where the two d2 lie further
        apart than the sum of their bounds the values decide, elsewhere both
        sides get their direct d2; each bound is twice its value's error, so
        it also covers the comparison's own rounding. A row taken with its
        bound keeps it, and gets its ``min_dist`` anew when read. Under the
        caller's errstate."""
        old, old_bound = self.d2[rows], self.bound[rows]
        # a tie, a nan on either side or an infinite bound counts as close
        close = ~(np.abs(d2 - old) > bound + old_bound)
        take = d2 < old  # apart, the rule below reduces to this
        if np.count_nonzero(close):  # most of a greedy pick's rows lie apart
            near, bound = np.full(rows.shape, near), np.full(rows.shape, bound)
            nearest = self.nearest[rows]
            redo = np.flatnonzero(close & (bound != 0))
            d2[redo] = _kernels._sq_dists_to(self.emb, self.emb, rows[redo], near[redo])
            self._exact(rows[close & (old_bound != 0)])
            old[close], bound[close] = self.d2[rows[close]], 0.0
            take = (d2 < old) | ((d2 == old) & (near < nearest)) | (nearest < 0)
        rows, d2 = rows[take], d2[take]
        if isinstance(near, np.ndarray):
            near, bound = near[take], bound[take]
        self.nearest[rows], self.d2[rows], self.bound[rows] = near, d2, bound
        self._min_dist[rows] = np.sqrt(d2)

    def _exact(self, rows):
        """Give ``rows`` the direct d2 to their nearest labeled row, and its ``min_dist``."""
        d2 = self.d2[rows] = _kernels._sq_dists_to(self.emb, self.emb, rows, self.nearest[rows])
        self.bound[rows] = 0.0
        self._min_dist[rows] = np.sqrt(d2)

    def _start(self, idx):
        """Start with ``idx`` labeled: one full ``dist_to_row`` pass gives
        each row's ``min_dist``, and fl(min_dist^2) its d2 within 3.01 u d2
        plus half a subnormal (u = 2^-53), below half of 2^-50 d2 + tiny;
        a read recomputes its rows' exact ``min_dist``, the same bytes."""
        dist = self._min_dist
        dist[:] = _kernels.dist_to_row(self.emb, idx)
        self.nearest[:] = idx
        np.multiply(dist, dist, out=self.d2)
        np.multiply(self.d2, 2.0 ** -50, out=self.bound)
        self.bound += np.finfo(np.float64).tiny

    def _lower(self, idx, approx):
        """Merge the new labeled row ``idx``, of screen column ``approx``,
        into the rows it may be nearer to, under the caller's
        ``np.errstate``. A row whose ``approx`` exceeds fl(m^2) plus the
        center's ``slack`` cannot have a direct distance at most its m
        (``nn_indices``' docstring has the proof); every other row gets its
        direct d2, by a full pass when every row passes."""
        min_dist = self._min_dist
        limit = min_dist * min_dist
        limit += self.slack[idx]
        # a nan on either side, or an infinite limit, keeps the row
        cand = np.flatnonzero(~(approx > limit))
        if not cand.size:
            return
        full = cand.size == min_dist.shape[0]
        d2 = _kernels._sq_dists_to(self.emb, _kernels._wide(self.emb[idx]), None if full else cand)
        self._merge(cand, idx, d2, 0.0)


def _check_rows(rows, n):
    """The sorted ``rows``, or ``IndexError`` if one lies outside [0, n)."""
    if len(rows) and not (0 <= rows[0] and rows[-1] < n):
        raise IndexError("labeled row out of range")
    return rows


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
    n = state.mask.shape[0]
    held = np.count_nonzero(state.mask)
    _check_budget(k, n - held)
    min_dist = state.min_dist  # made exact here, and kept exact by every pick
    prefetched = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for pick in range(k):
            cold = not (held or pick)
            if cold:
                seeded = cold_start_seed is not None
                idx = int(np.random.default_rng(cold_start_seed).permutation(n)[0]) if seeded else 0
            else:
                cand = np.where(state.mask, -np.inf, min_dist)
                idx = int(np.argmax(cand))
                if idx not in prefetched:
                    far = np.argpartition(cand, -min(_PREFETCH, n))[-_PREFETCH:]
                    top = [idx] + [int(i) for i in far if i != idx]
                    cols = _kernels._sq_dist_expansion(
                        state.emb32, state.sq_norms, state.emb32[top], state.sq_norms[top])
                    prefetched = dict(zip(top, cols.T.copy()))  # each column, contiguous
            state.trace.append((idx, float(min_dist[idx])))
            state.mask[idx] = True
            if cold:
                state._start(idx)
            else:
                state._lower(idx, prefetched[idx])
    return state


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
            sizes = np.bincount(labels, minlength=n_clusters)
            if not sizes.all():  # a reseed reads the distances to this iteration's centers
                dist_to_center = np.sqrt(_kernels._sq_dists_to(emb, centers, ref_rows=labels))
            for c in range(n_clusters):
                if sizes[c]:
                    centers[c] = _kernels._wide(emb[labels == c]).mean(axis=0)
                else:
                    far = int(np.argmax(dist_to_center))
                    centers[c] = emb[far]
                    dist_to_center[far] = 0.0
        inertia = float(np.sum(_kernels._sq_dists_to(emb, centers, ref_rows=labels)))
        if inertia < best_inertia:
            best_inertia = inertia
            best_labels = labels
    return best_labels
