"""Hot numeric inner loops, vectorized in numpy.

Every kernel converts its matrix arguments to C-contiguous float64 first.
``tests/test_kernels.py`` checks each one against a plain-Python loop oracle.
"""

import numpy as np

BACKEND = "numpy"


def _as_c64(a):
    return np.ascontiguousarray(a, dtype=np.float64)


def dist_to_row(emb, idx):
    """Euclidean distance from every row of ``emb`` to row ``idx``."""
    emb = _as_c64(emb)
    diff = emb - emb[int(idx)]
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def pair_mean_abs(X, ia, ib):
    """Mean absolute per-feature difference for each row pair (ia[k], ib[k])."""
    X = _as_c64(X)
    ia = np.asarray(ia, dtype=np.int64)
    ib = np.asarray(ib, dtype=np.int64)
    return np.abs(X[ia] - X[ib]).mean(axis=1)


def all_pairs_mean_abs(X):
    """Mean over all unordered row pairs of the mean absolute difference."""
    X = _as_c64(X)
    n = X.shape[0]
    total = 0.0
    for i in range(n - 1):
        total += float(np.abs(X[i + 1:] - X[i]).mean(axis=1).sum())
    return total / (n * (n - 1) / 2.0)


def nn_indices(Q, R):
    """Index of the nearest row of ``R`` for each row of ``Q``.

    Ties resolve to the lowest reference index.
    """
    Q, R = _as_c64(Q), _as_c64(R)
    out = np.empty(Q.shape[0], dtype=np.int64)
    # block the queries so the (block, refs, dim) difference tensor stays small
    block = max(1, int(2 ** 22 // max(1, R.shape[0] * R.shape[1])))
    for start in range(0, Q.shape[0], block):
        stop = min(start + block, Q.shape[0])
        diff = Q[start:stop, None, :] - R[None, :, :]
        d2 = np.einsum("qrp,qrp->qr", diff, diff)
        out[start:stop] = np.argmin(d2, axis=1)
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
