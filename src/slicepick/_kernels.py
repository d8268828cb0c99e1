"""Hot numeric inner loops, vectorized in numpy.

Every kernel takes a float32 or float64 matrix as it is (any other input
becomes float64) and widens each block it gathers to float64 before any
arithmetic, so a float32 matrix gives the bits of its exact float64
widening. Every distance is the direct one that ``_sq_dists`` sums, so
``dist_to_row``, ``pairwise_dists`` and ``nn_indices``' re-rank agree bit
for bit. ``all_pairs_mean_abs`` uses the sorted-gap form of Gini's mean
difference, O(p n log n) and within a few ulps of the pairwise sum; it and
``pair_mean_abs`` apply an affine map x -> (x - lo) / scale to their own
widened blocks, so a caller normalizes without a copy of its matrix.
``nn_indices`` screens candidates with one float32 matrix product per query
block and re-ranks them by the direct float64 squared distance, so its
answer, ties included, is that of the direct search; it reads a subset of
its query rows without copying them, and can return each answer's screen
value and bound, with which ``pipeline.ProbeCarry`` merges a search of a
selection's new rows into its earlier nearest rows. Each kernel works one
block of at most ``_BLOCK`` values at a time, so none holds an (n, p) array
beside its input. The private helpers are not traced; ``_sq_dist_expansion``
(that float32 product) and ``_sq_dist_slack`` (its rounding bound) also
serve ``coreset``. ``tests/test_kernels.py`` checks each kernel against a
plain-Python loop, and ``tests/test_memory.py`` their transient memory.
"""

import numpy as np

BACKEND = "numpy"

# the most float64 values a transient block holds (2 MB): a full distance
# pass, a 1-NN search or a column sort keeps no (n, p) copy of its matrix
_BLOCK = 2 ** 18


def _block_rows(width):
    """The rows (or columns) of ``width`` values in a transient block, at least one."""
    return max(1, _BLOCK // max(1, width))


def _matrix(a):
    """``a`` as a C-contiguous float32 or float64 array (itself if it is one)."""
    a = np.asarray(a)
    return np.ascontiguousarray(a, dtype=a.dtype if a.dtype in (np.float32, np.float64) else float)


def _wide(a):
    """A gathered block in float64: itself, or its exact widening."""
    return a.astype(np.float64, copy=False)


def dist_to_row(emb, idx):
    """Euclidean distance from every row of ``emb`` to row ``idx``."""
    return _row_dists(_matrix(emb), int(idx))


def _row_dists(emb, idx, rows=None):
    """``dist_to_row(emb, idx)``, or its values at ``rows`` only, bit for bit."""
    return np.sqrt(_sq_dists_to(emb, _wide(emb[idx]), rows))


def _sq_dists_to(emb, ref, rows=None, ref_rows=None):
    """The direct squared distance from each row of ``emb`` (or of its ``rows``) to the float64
    vector ``ref``, or the i-th to ``ref[ref_rows[i]]`` (rows of any ``_matrix``, widened), from
    float64 differences formed one row block at a time and summed by ``_sq_dists``."""
    m = emb.shape[0] if rows is None else len(rows)
    out = np.empty(m)
    block = _block_rows(emb.shape[1])
    for start in range(0, m, block):
        at = slice(start, start + block) if rows is None else rows[start:start + block]
        to = ref if ref_rows is None else _wide(ref[ref_rows[start:start + block]])
        out[start:start + block] = _sq_dists(emb[at] - to)  # float64, as to is
    return out


def _sq_dists(diff):
    """The direct squared distance, the sum of squares of each row of the
    C-contiguous float64 ``diff``. ``einsum`` sums every row of a matrix with
    two or more rows in the same order, wherever the row sits, but a lone row
    in another order once p passes its 8192-element buffer; so a lone row is
    summed as a pair. (A one-row matrix's only distance, to itself, is 0, or
    nan, in either order.)
    """
    if diff.shape[0] == 1:
        return _sq_dists(np.concatenate([diff, diff]))[:1]
    return np.einsum("ij,ij->i", diff, diff)


def _sq_norms(X):
    """The float64 squared norm of each row of the ``_matrix`` ``X``."""
    return _sq_dists_to(X, np.zeros(X.shape[1]))


def _as_f32(X):
    """The float32 form of ``X`` that ``_sq_dist_expansion`` multiplies (a
    C-contiguous float32 ``X`` itself); a value past the float32 range
    becomes inf, which ``_sq_dist_slack`` already treats as unbounded."""
    with np.errstate(over="ignore"):
        return np.ascontiguousarray(X, dtype=np.float32)


def _sq_dist_expansion(A, a_sq, B, b_sq):
    """|a|^2 - 2 a.b + |b|^2 for every row a of ``A`` (axis 0) and b of ``B``
    (axis 1): ``nn_indices``' ``approx``. ``A`` and ``B`` are the ``_as_f32``
    forms of the rows, whose product is float32; ``a_sq`` and ``b_sq`` are
    the float64 squared norms of the rows, and the sum is float64."""
    with np.errstate(over="ignore", invalid="ignore"):
        approx = np.multiply(A @ B.T, -2.0, dtype=np.float64)
        approx += a_sq[:, None]
        approx += b_sq
    return approx


def _sq_dist_slack(scale, p):
    """Twice the bound B of ``nn_indices``' docstring for each ``scale`` S,
    the sum of a query's squared norm and the largest reference one: inf
    wherever the float32 product can overflow (4 S above the float32
    maximum, or nan) or p is too large for the float32 bound, so that
    callers treat it as unbounded.
    """
    f64, f32 = np.finfo(np.float64), np.finfo(np.float32)
    # gamma_{p+2} in float32's unit roundoff, as a Python float
    k = (p + 2) * float(f32.eps) / 2
    gamma = k / (1 - k) if k <= 0.5 else np.inf
    with np.errstate(over="ignore", invalid="ignore"):
        bound = 2 * (p + 8) * f64.eps * scale + gamma * scale
        bound += 12 * float(f32.tiny) * (np.sqrt(p * scale) + p) + f64.tiny
        slack = 2 * bound
        slack[~(4 * scale <= float(f32.max))] = np.inf
    return slack


def _unit(a, lo, scale):
    """``a`` mapped in place by x -> fl(fl(x - lo) / scale), and returned."""
    a -= lo
    a /= scale
    return a


def pair_mean_abs(X, ia, ib, lo=0.0, scale=1.0):
    """Mean absolute per-feature difference for each row pair (ia[k], ib[k])
    of X mapped by x -> (x - lo) / scale (by default the identity), bit for
    bit the values on a mapped copy of X, which is never made."""
    X = _matrix(X)
    ia = np.asarray(ia, dtype=np.int64)
    ib = np.asarray(ib, dtype=np.int64)
    out = np.empty(ia.shape[0])
    # a block of pairs at a time, so no (pairs, p) matrix is held
    block = _block_rows(X.shape[1])
    for start in range(0, ia.shape[0], block):
        rows = slice(start, start + block)
        diff = _unit(_wide(X[ia[rows]]), lo, scale)
        diff -= _unit(_wide(X[ib[rows]]), lo, scale)
        out[rows] = np.abs(diff, out=diff).mean(axis=1)
    return out


def all_pairs_mean_abs(X, lo=0.0, scale=1.0):
    """Mean over all unordered row pairs of the mean absolute difference,
    on X mapped by x -> (x - lo) / scale (by default the identity).

    Per column, sum_{i<j} |x_i - x_j| = sum_k k (n - k) (x_(k+1) - x_(k))
    over the sorted values x_(1) <= ... <= x_(n) (Gini's mean difference in
    sorted form), so the cost is O(p n log n), not O(p n^2). A block of
    columns at a time is copied to rows, sorted in X's own dtype, widened
    and mapped; widening is exact and the map monotone, so these are the
    sorted mapped columns bit for bit. numpy sums each column's weighted
    gaps pairwise, in one order wherever the column sits, so the result
    does not depend on the block width. Every gap and weight is >= 0, so
    the sum does not cancel: the result stays within a few ulps of the
    pairwise loop even when the values share a large offset.
    """
    X = _matrix(X)
    n, p = X.shape
    k = np.arange(1.0, n)
    weights = k * (n - k)
    col_sums = np.empty(p)
    block = _block_rows(n)
    for start in range(0, p, block):
        cols = X[:, start:start + block].T.copy()
        cols.sort(axis=1)
        cols = _unit(_wide(cols), lo, scale)
        col_sums[start:start + block] = (np.diff(cols, axis=1) * weights).sum(axis=1)
    return float(col_sums.sum()) / p / (n * (n - 1) / 2.0)


def nn_indices(Q, R, rows=None, q_sq=None, screen=False):
    """Index of the nearest row of ``R`` for each row of ``Q[rows]`` (each
    row of ``Q`` when ``rows`` is None); ``q_sq``, if given, is ``_sq_norms(Q)``.
    With ``screen``, also each winner's ``approx`` and 2 B_q, or, where the
    search re-ranked, its direct ``d2`` and 0 (``pipeline.ProbeCarry``).

    Ties resolve to the lowest reference index. The answer is that of the
    direct search, which takes the first minimum of
    ``d2 = einsum((q - r)**2)`` over the references, but most of the work
    is one float32 matrix product per query block,
    ``approx = |q|^2 - 2 q.r + |r|^2``, followed by an exact re-rank.

    Rounding bound. ``approx`` multiplies the float32 forms of the rows in
    float32 and adds their float64 squared norms in float64. For p features,
    let u = 2^-53 and eps = 2 u (float64), u' = 2^-24 (float32),
    gamma_k = k u / (1 - k u) and gamma'_k = k u' / (1 - k u'), tiny and
    tiny' the smallest normal float64 and float32, S_q = |q|^2 + max_r |r|^2,
    and

        B_q = 2 (p + 8) eps S_q + gamma'_{p+2} S_q
              + 12 tiny' (sqrt(p S_q) + p) + tiny.

    ``approx`` and the direct ``d2`` differ by at most B_q. The exact squared
    distance is d <= 2 S_q. The direct ``d2`` rounds p differences,
    p squares and a (p - 1)-term sum of nonnegative terms: at most
    (p + 2) u d <= (2 p + 4) u S_q. In ``approx``, rounding an entry x to
    float32 errs by at most u' |x| + tiny', and the float32 dot product of
    the rounded rows by at most gamma'_p times the sum of the absolute
    products, plus tiny' for each product or partial sum that underflows
    (tiny' also covers a BLAS that flushes subnormals to zero). With
    |q| |r| <= S_q / 2, |q|, |r| <= sqrt(S_q) and
    (1 + gamma'_p) (1 + u')^2 <= 1 + gamma'_{p+2} (Higham, Lemma 3.3), the
    product errs by at most gamma'_{p+2} S_q / 2 + 6 tiny' (sqrt(p S_q) + p),
    doubled by the factor -2. The two float64 norms err by gamma_p S_q
    together, and the two float64 additions, of magnitude about 2 S_q, by
    4 u S_q plus second-order terms. The rest of 2 (p + 8) eps S_q, at least
    (p + 24) u S_q, covers those terms, and ``tiny`` covers float64
    underflow. The dot-product bound holds for any summation order, with or
    without FMA, so for any BLAS that multiplies matrices the classical way.
    It needs (p + 2) u' <= 1/2, and no float32 overflow: while
    4 S_q <= the float32 maximum, no rounded entry, product or partial sum
    reaches it. Otherwise, or when S_q is nan, the bound is infinite.

    So the direct nearest reference has ``approx`` within 2 B_q of the row
    minimum. Every reference that close is a candidate. A query with one
    candidate takes it; a query with several re-ranks them with the direct
    ``d2`` (``_sq_dists``) in reference order, so ties go to the lowest
    index. A query with an infinite bound re-ranks every reference.

    The same 2 B_q screens a threshold m, a float, in ``coreset``: if the
    direct distance ``sqrt(d2)`` is at most m, ties included, then
    ``approx <= fl(fl(m * m) + 2 B_q)``, computed in float64. A correctly
    rounded sqrt is monotone, so ``d2 <= m^2 (1 + 3 u)`` and
    ``approx <= m^2 (1 + 3 u) + B_q``. When m^2 <= 4 S_q, the threshold is
    at least m^2 + 2 B_q - 2 u m^2 - 2 u B_q, and 5 u m^2 + 2 u B_q <= B_q
    because B_q >= 36 u S_q; an underflow of m^2 costs less than ``tiny``.
    When m^2 > 4 S_q, fl(m^2) >= 4 S_q, and the threshold is at least
    (4 S_q + 2 B_q)(1 - u), above 2 S_q (1 + (p + 2) u) + B_q >= ``approx``.

    Each query block is gathered from ``Q``, with its squared norms and
    float32 form, by ``_nn_block``; the reference side is built once.
    """
    Q, R = _matrix(Q), _matrix(R)
    if R.shape[0] == 0:
        raise ValueError("the 1-NN search needs at least one reference row")
    if rows is not None:
        rows = np.asarray(rows, dtype=np.int64)
    m = Q.shape[0] if rows is None else rows.shape[0]
    r_sq, R32 = _sq_norms(R), _as_f32(R)
    out = np.empty(m, dtype=np.int64), np.empty(m), np.empty(m)
    # block the queries so neither the gathered rows nor the (block, refs)
    # distance matrix grows with the query count
    block = _block_rows(max(R.shape[0], Q.shape[1]))
    for start in range(0, m, block):
        at = slice(start, start + block) if rows is None else rows[start:start + block]
        q = Q[at]
        found = _nn_block(q, _sq_norms(q) if q_sq is None else q_sq[at], R, R32, r_sq)
        for a, b in zip(out, found):
            a[start:start + block] = b
    return out if screen else out[0]


def _nn_block(q, q_sq, R, R32, r_sq):
    """``nn_indices(q, R, screen=True)`` for one query block, given the
    reference side: a function of its own, so a block's arrays are freed
    before the next block's are made."""
    approx = _sq_dist_expansion(_as_f32(q), q_sq, R32, r_sq)
    with np.errstate(over="ignore", invalid="ignore"):
        slack = _sq_dist_slack(q_sq + r_sq.max(), q.shape[1])
        near = approx <= (approx.min(axis=1) + slack)[:, None]
    near[np.isinf(slack)] = True
    out = np.argmax(near, axis=1)
    value = approx[np.arange(len(out)), out]
    for i in np.flatnonzero(np.count_nonzero(near, axis=1) > 1):
        cand = np.flatnonzero(near[i])
        d2 = _sq_dists(_wide(q[i]) - R[cand])  # float64
        j = np.argmin(d2)
        out[i], value[i], slack[i] = cand[j], d2[j], 0.0
    return out, value, slack


def pairwise_dists(X):
    """Full symmetric Euclidean distance matrix, row i bit for bit ``dist_to_row(X, i)``."""
    X = _matrix(X)
    n = X.shape[0]
    D = np.zeros((n, n))
    for i in range(n - 1):
        D[i, i + 1:] = D[i + 1:, i] = np.sqrt(_sq_dists_to(X[i + 1:], _wide(X[i])))
    return D
