import math

import numpy as np
import pytest

from slicepick import _kernels

# ---------------------------------------------------------------------------
# plain-Python loop oracles: one scalar operation at a time, no vectorization


def loop_dist_to_row(emb, idx):
    n, p = emb.shape
    out = np.empty(n)
    for i in range(n):
        s = 0.0
        for j in range(p):
            d = emb[i, j] - emb[idx, j]
            s += d * d
        out[i] = math.sqrt(s)
    return out


def loop_pair_mean_abs(X, ia, ib):
    p = X.shape[1]
    out = np.empty(len(ia))
    for k in range(len(ia)):
        s = 0.0
        for j in range(p):
            s += abs(X[ia[k], j] - X[ib[k], j])
        out[k] = s / p
    return out


def loop_all_pairs_mean_abs(X):
    n, p = X.shape
    total = 0.0
    for i in range(n - 1):
        for j in range(i + 1, n):
            s = 0.0
            for q in range(p):
                s += abs(X[i, q] - X[j, q])
            total += s / p
    return total / (n * (n - 1) / 2.0)


def loop_nn_indices(Q, R):
    nq, p = Q.shape
    out = np.empty(nq, dtype=np.int64)
    for i in range(nq):
        best = math.inf
        best_j = 0
        for j in range(R.shape[0]):
            s = 0.0
            for q in range(p):
                d = Q[i, q] - R[j, q]
                s += d * d
            if s < best:
                best = s
                best_j = j
        out[i] = best_j
    return out


def loop_pairwise_dists(X):
    n, p = X.shape
    D = np.zeros((n, n))
    for i in range(n - 1):
        for j in range(i + 1, n):
            s = 0.0
            for q in range(p):
                d = X[i, q] - X[j, q]
                s += d * d
            D[i, j] = D[j, i] = math.sqrt(s)
    return D


SHAPES = [(2, 1), (7, 3), (40, 7)]


@pytest.fixture(params=SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def X(request):
    n, p = request.param
    return np.random.default_rng(n * 100 + p).standard_normal((n, p))


def test_dist_to_row(X):
    for idx in (0, X.shape[0] - 1):
        got = _kernels.dist_to_row(X, idx)
        assert got[idx] == 0.0
        assert np.allclose(got, loop_dist_to_row(X, idx), rtol=1e-12, atol=1e-12)


def test_pair_mean_abs(X):
    rng = np.random.default_rng(1)
    ia = rng.integers(0, X.shape[0], size=25)
    ib = rng.integers(0, X.shape[0], size=25)
    assert np.allclose(
        _kernels.pair_mean_abs(X, ia, ib), loop_pair_mean_abs(X, ia, ib),
        rtol=1e-12, atol=1e-12,
    )


def test_all_pairs_mean_abs(X):
    got = _kernels.all_pairs_mean_abs(X)
    assert isinstance(got, float)
    assert math.isclose(got, loop_all_pairs_mean_abs(X), rel_tol=1e-12)


def test_nn_indices(X):
    Q = np.random.default_rng(2).standard_normal((15, X.shape[1]))
    got = _kernels.nn_indices(Q, X)
    assert got.dtype == np.int64
    assert np.array_equal(got, loop_nn_indices(Q, X))
    assert np.array_equal(_kernels.nn_indices(X, X), np.arange(X.shape[0]))


def test_pairwise_dists(X):
    got = _kernels.pairwise_dists(X)
    assert np.array_equal(got, got.T)
    assert np.allclose(got, loop_pairwise_dists(X), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("p", [16, 8193, 20000])
def test_pairwise_dists_rows_are_dist_to_row(p, dtype):
    # past einsum's 8192-element buffer too, where a lone last row pair
    # would be summed in another order
    X = (np.random.default_rng(p).standard_normal((5, p)) * 1e3).astype(dtype)
    D = _kernels.pairwise_dists(X)
    for i in range(len(X)):
        assert D[i].tobytes() == _kernels.dist_to_row(X, i).tobytes()


def test_nn_tie_breaks_to_lowest_reference():
    refs = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
    queries = np.array([[0.0, 0.0], [1.0, 1.0]])
    assert list(_kernels.nn_indices(queries, refs)) == [1, 0]
    assert list(loop_nn_indices(queries, refs)) == [1, 0]


def test_kernels_accept_non_contiguous_float32():
    X = np.random.default_rng(3).standard_normal((9, 8)).astype(np.float32)[:, ::2]
    X64 = X.astype(np.float64)
    assert np.array_equal(_kernels.dist_to_row(X, 4), _kernels.dist_to_row(X64, 4))
    assert np.array_equal(_kernels.pairwise_dists(X), _kernels.pairwise_dists(X64))
    assert np.array_equal(_kernels.nn_indices(X, X[:3]), _kernels.nn_indices(X64, X64[:3]))


def test_kernels_public_functions_are_the_traced_set():
    # perfbench/tracer.py wraps every public function of _kernels and knows
    # the byte count of exactly these five; helpers must stay private
    public = {
        name for name, obj in vars(_kernels).items()
        if callable(obj) and not name.startswith("_")
    }
    assert public == {
        "dist_to_row", "pair_mean_abs", "all_pairs_mean_abs", "nn_indices", "pairwise_dists",
    }


def test_nn_duplicated_reference_rows():
    rng = np.random.default_rng(4)
    base = rng.standard_normal((5, 6))
    refs = base[[3, 0, 3, 1, 0, 4, 2, 4, 3]]
    queries = np.vstack([base, refs, rng.standard_normal((20, 6))])
    got = _kernels.nn_indices(queries, refs)
    assert np.array_equal(got, loop_nn_indices(queries, refs))
    assert list(got[:5]) == [1, 3, 6, 0, 5]


def test_nn_identical_reference_rows():
    rng = np.random.default_rng(5)
    refs = np.repeat(rng.standard_normal((1, 4)), 7, axis=0)
    queries = np.vstack([refs[:1], rng.standard_normal((10, 4))])
    got = _kernels.nn_indices(queries, refs)
    assert np.array_equal(got, loop_nn_indices(queries, refs))
    assert not got.any()


def test_nn_large_offset_needs_reranking():
    # |q|^2 - 2 q.r + |r|^2 cancels about 16 digits here, so the matrix
    # product alone cannot order the references; the direct re-rank must
    rng = np.random.default_rng(6)
    refs = 1e4 + 1e-4 * rng.standard_normal((30, 5))
    queries = 1e4 + 1e-4 * rng.standard_normal((40, 5))
    assert np.array_equal(_kernels.nn_indices(queries, refs), loop_nn_indices(queries, refs))


def test_nn_norms_past_overflow_use_direct_distances():
    # |q|^2 overflows to inf, so the expansion is nan; the differences do not
    queries = np.array([[2e154]])
    refs = np.array([[2e154 + 1e140], [2e154 - 1e139], [1e154]])
    got = _kernels.nn_indices(queries, refs)
    assert np.array_equal(got, loop_nn_indices(queries, refs))
    assert list(got) == [1]


def test_nn_empty_reference_set_rejected():
    with pytest.raises(ValueError, match="at least one reference row"):
        _kernels.nn_indices(np.zeros((3, 2)), np.zeros((0, 2)))


def test_all_pairs_mean_abs_large_offset():
    # the signed-weight sorted form sum_k (2k - n + 1) x_(k) cancels here and
    # misses this tolerance by four orders of magnitude (2e-8 relative)
    X = 1e6 + 1e-3 * np.random.default_rng(7).standard_normal((40, 7))
    assert math.isclose(
        _kernels.all_pairs_mean_abs(X), loop_all_pairs_mean_abs(X), rel_tol=1e-12
    )


def test_all_pairs_mean_abs_two_rows():
    X = np.array([[1.0, -2.0, 0.5], [4.0, 2.0, 0.5]])
    assert _kernels.all_pairs_mean_abs(X) == 7.0 / 3.0
    assert loop_all_pairs_mean_abs(X) == 7.0 / 3.0
