"""Hot numeric inner loops, vectorized in numpy.

Every kernel converts its matrix arguments to C-contiguous float64 first.
``dist_to_row``, ``pair_mean_abs`` and ``pairwise_dists`` compute each value
directly. ``all_pairs_mean_abs`` uses the sorted-gap form of Gini's mean
difference, O(p n log n) and within a few ulps of the pairwise sum.
``nn_indices`` finds candidates with one matrix product per query block and
re-ranks them with the direct squared distance, so its answer, ties
included, is exactly that of the direct search. The private helpers, not
part of the traced set, are ``_sq_norms``, ``_sq_dist_expansion`` (that
product, |a|^2 - 2 a.b + |b|^2, computed nowhere else) and ``_sq_dist_slack``
(its rounding bound), which the screened cover update in ``coreset`` shares,
and ``_row_dists`` (``dist_to_row``'s values at a subset of rows, bit for bit).
``tests/test_kernels.py`` checks each kernel against a plain-Python loop oracle.
"""

import numpy as np

BACKEND = "numpy"


def _as_c64(a):
    return np.ascontiguousarray(a, dtype=np.float64)


def dist_to_row(emb, idx):
    """Euclidean distance from every row of ``emb`` to row ``idx``."""
    return _row_dists(_as_c64(emb), int(idx))


def _row_dists(emb, idx, rows=None):
    """``dist_to_row(emb, idx)``, or its values at ``rows`` only, bit for bit.

    ``emb`` must be C-contiguous float64. ``einsum`` sums every row of a
    matrix with two or more rows in the same order, wherever the row sits,
    but a lone row in another order once p passes its 8192-element buffer;
    so a one-row subset of a larger matrix is evaluated as a pair.
    """
    if rows is None:
        sub = emb
    elif len(rows) == 1 and emb.shape[0] > 1:
        return _row_dists(emb, idx, [rows[0], rows[0]])[:1]
    else:
        sub = emb[rows]
    diff = sub - emb[idx]
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def _sq_norms(X):
    return np.einsum("ij,ij->i", X, X)


def _sq_dist_expansion(A, a_sq, B, b_sq):
    """|a|^2 - 2 a.b + |b|^2 for every row a of ``A`` (axis 0) and b of ``B``
    (axis 1), from the squared row norms: ``nn_indices``' ``approx``."""
    with np.errstate(over="ignore", invalid="ignore"):
        approx = A @ B.T
        approx *= -2.0
        approx += a_sq[:, None]
        approx += b_sq
    return approx


def _sq_dist_slack(scale, p):
    """Twice the bound B of ``nn_indices``' docstring for each ``scale`` S,
    the sum of a query's squared norm and the largest reference one: inf
    wherever 4 S overflows or is nan, so that callers treat it as unbounded.
    """
    f64 = np.finfo(np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        slack = 4 * (p + 8) * f64.eps * scale + 2 * f64.tiny
        slack[~np.isfinite(4 * scale)] = np.inf
    return slack


def pair_mean_abs(X, ia, ib):
    """Mean absolute per-feature difference for each row pair (ia[k], ib[k])."""
    X = _as_c64(X)
    ia = np.asarray(ia, dtype=np.int64)
    ib = np.asarray(ib, dtype=np.int64)
    return np.abs(X[ia] - X[ib]).mean(axis=1)


def all_pairs_mean_abs(X):
    """Mean over all unordered row pairs of the mean absolute difference.

    Per column, sum_{i<j} |x_i - x_j| = sum_k k (n - k) (x_(k+1) - x_(k))
    over the sorted values x_(1) <= ... <= x_(n) (Gini's mean difference in
    sorted form), so the cost is O(p n log n), not O(p n^2). Every gap and
    weight is >= 0, so the sum does not cancel: the result stays within a
    few ulps of the pairwise loop even when the values share a large offset.
    """
    X = _as_c64(X)
    n = X.shape[0]
    gaps = np.diff(np.sort(X, axis=0), axis=0)
    k = np.arange(1.0, n)
    gaps *= (k * (n - k))[:, None]
    return float(gaps.sum()) / X.shape[1] / (n * (n - 1) / 2.0)


def nn_indices(Q, R):
    """Index of the nearest row of ``R`` for each row of ``Q``.

    Ties resolve to the lowest reference index. The answer is that of the
    direct search, which takes the first minimum of
    ``d2 = einsum((q - r)**2)`` over the references, but most of the work
    is one matrix product per query block,
    ``approx = |q|^2 - 2 q.r + |r|^2``, followed by an exact re-rank.

    Rounding bound. For p features, eps = 2u the float64 machine epsilon,
    gamma_p = p u / (1 - p u) and S_q = |q|^2 + max_r |r|^2, let

        B_q = 2 (p + 8) eps S_q + tiny.

    Both ``approx`` and the direct ``d2`` lie within B_q / 2 of the exact
    squared distance d <= 2 S_q. The direct ``d2`` rounds p differences,
    p squares and a (p - 1)-term sum of nonnegative terms: at most
    (p + 2) u d <= (2 p + 4) u S_q. ``approx`` carries the dot-product error
    gamma_p |q| |r| <= gamma_p S_q / 2 (doubled), the two norm errors,
    gamma_p S_q together, and two additions of magnitude <= 2 S_q: at most
    (2 p + 4) u S_q. Together that is 2 (p + 2) eps S_q; the other
    12 eps S_q cover the rounding of the threshold below and second-order
    terms, and ``tiny`` (the smallest normal float64) covers underflow. The
    dot-product bound holds for any summation order, with or without FMA,
    so for any BLAS that multiplies matrices the classical way.

    So ``approx`` and ``d2`` differ by at most B_q, and the direct nearest
    reference has ``approx`` within 2 B_q of the row minimum. Every
    reference that close is a candidate. A query with one candidate takes
    it; a query with several re-ranks them with the direct ``d2`` in
    reference order, so ties go to the lowest index. A query for which
    4 S_q overflows or is nan re-ranks every reference. The re-rank's
    ``einsum`` sums each row in one pass, in the same order as over a full
    (queries, refs, p) tensor, while p <= 8192 (numpy's buffer size).

    The same 2 B_q screens a threshold m, a float, in ``coreset``: if the
    direct distance ``sqrt(d2)`` is below m then ``approx <= fl(m * m) +
    2 B_q``, computed in float64. A correctly rounded sqrt is monotone, so
    ``d2 < m^2`` exactly, and ``approx < m^2 + B_q``. When m^2 <= 4 S_q,
    rounding m^2 and then the sum costs at most 8 u S_q + 2 u B_q plus an
    underflow term, well inside the other B_q (B_q >= 36 u S_q + tiny). When
    m^2 > 4 S_q, ``approx <= 2 S_q + B_q / 2 < 4 S_q <= fl(m^2)`` already.
    """
    Q, R = _as_c64(Q), _as_c64(R)
    if R.shape[0] == 0:
        raise ValueError("the 1-NN search needs at least one reference row")
    q_sq, r_sq = _sq_norms(Q), _sq_norms(R)
    with np.errstate(over="ignore", invalid="ignore"):
        slack = _sq_dist_slack(q_sq + r_sq.max(), Q.shape[1])
    unbounded = np.isinf(slack)
    out = np.empty(Q.shape[0], dtype=np.int64)
    # block the queries so the (block, refs) distance matrix stays small
    block = max(1, 2 ** 18 // R.shape[0])
    for start in range(0, Q.shape[0], block):
        stop = min(start + block, Q.shape[0])
        approx = _sq_dist_expansion(Q[start:stop], q_sq[start:stop], R, r_sq)
        with np.errstate(over="ignore", invalid="ignore"):
            near = approx <= (approx.min(axis=1) + slack[start:stop])[:, None]
        near[unbounded[start:stop]] = True
        out[start:stop] = np.argmax(near, axis=1)
        for i in np.flatnonzero(np.count_nonzero(near, axis=1) > 1):
            cand = np.flatnonzero(near[i])
            diff = Q[start + i] - R[cand]
            out[start + i] = cand[np.argmin(np.einsum("rp,rp->r", diff, diff))]
    return out


def pairwise_dists(X):
    """Full symmetric Euclidean distance matrix."""
    X = _as_c64(X)
    n = X.shape[0]
    D = np.zeros((n, n))
    for i in range(n - 1):
        diff = X[i + 1:] - X[i]
        d = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        D[i, i + 1:] = d
        D[i + 1:, i] = d
    return D
