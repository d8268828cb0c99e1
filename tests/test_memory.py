"""Transient memory of the (n, p) passes, and the bits of their blocked forms.

``tracemalloc`` sees numpy's array allocations, so the peak it records
around one call is what that call holds beyond its inputs. The matrix spans
eight blocks of ``_kernels._BLOCK`` values, by rows or by columns: a
whole-matrix copy shows as a multiple of its bytes, a block as a fraction.
A float32 matrix's float64 copy is twice its bytes, so a kernel that widens
one block at a time stays below them.
"""

import tracemalloc

import numpy as np
import pytest

from slicepick import _kernels
from slicepick.coreset import SelectionState, k_center_greedy, kmeans_labels, silhouette_score
from slicepick.data import (
    DatasetIndex,
    SynthSpec,
    generate_synthetic,
    group_deviation,
    load_dataset,
    save_dataset,
)
from slicepick.pipeline import probe_accuracy

N, P = 8192, 256
assert N // (_kernels._BLOCK // P) == 8


@pytest.fixture(scope="module")
def X():
    return np.random.default_rng(41).standard_normal((N, P))


def dataset(X):
    """``X`` as a dataset of patients of 4 volumes of 16 slices."""
    i = np.arange(len(X))
    return DatasetIndex(np.stack([i, i // 64, i // 16, i % 16], axis=1), X, 1, X.shape[1])


def peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# -- memory bounds -------------------------------------------------------------

def test_group_deviation_holds_one_sorted_copy(X):
    # one sorted column block at a time: no sorted or normalized copy of
    # the matrix
    ds = dataset(X)
    assert peak_bytes(group_deviation, ds, "dataset") < 0.5 * X.nbytes


def test_load_dataset_holds_one_matrix(X, tmp_path):
    # data.bin's bytes are the float32 matrix: no float64 copy of the file
    # and no finiteness mask of the whole matrix beside it
    save_dataset(dataset(X), np.zeros(N, dtype=np.int64), tmp_path)
    X32 = X.astype(np.float32)
    assert peak_bytes(load_dataset, tmp_path) < 1.3 * X32.nbytes
    ds, _ = load_dataset(tmp_path)
    assert ds.pixel_matrix().tobytes() == X32.tobytes()


@pytest.fixture(scope="module")
def X32(X):
    return X.astype(np.float32)


PAIRS = np.arange(N), np.arange(N)[::-1].copy()

# each call on a float32 matrix X
WIDENING_CALLS = {
    "dist_to_row": lambda X: _kernels.dist_to_row(X, 7),
    "_sq_norms": _kernels._sq_norms,
    "nn_indices": lambda X: _kernels.nn_indices(X, X[:N // 16], PAIRS[0][::2]),
    "pair_mean_abs": lambda X: _kernels.pair_mean_abs(X, *PAIRS, float(X.min()), 3.0),
    "probe_accuracy": lambda X: probe_accuracy(X, range(0, N, 16), PAIRS[0] % 5),
    "greedy": lambda X: k_center_greedy(SelectionState(X), 40, cold_start_seed=1),
    "adjacent deviation": lambda X: group_deviation(dataset(X), "adjacent"),
    "dataset deviation": lambda X: group_deviation(dataset(X), "dataset"),
    "patient deviation": lambda X: group_deviation(dataset(X), "patient"),
}


@pytest.mark.parametrize("name", list(WIDENING_CALLS))
def test_kernels_widen_a_float32_matrix_one_block_at_a_time(X32, name):
    assert peak_bytes(WIDENING_CALLS[name], X32) < X32.nbytes


# 512 rows of 4,096 values in eight clusters: eight row blocks, and an
# (n, n) distance matrix a quarter of the float32 matrix's bytes
@pytest.fixture(scope="module")
def W32():
    rng = np.random.default_rng(46)
    centers = rng.standard_normal((8, 4096)) * 10
    W = centers[np.arange(512) % 8] + rng.standard_normal((512, 4096))
    assert len(W) // _kernels._block_rows(W.shape[1]) == 8
    return W.astype(np.float32)


def test_silhouette_holds_its_distance_matrix_alone(W32):
    assert peak_bytes(silhouette_score, W32, np.arange(512) % 8) < W32.nbytes


def test_pairwise_dists_holds_its_result_alone(W32):
    assert peak_bytes(_kernels.pairwise_dists, W32) - 512 * 512 * 8 < W32.nbytes


def test_kmeans_widens_a_float32_matrix_one_block_at_a_time(W32):
    assert peak_bytes(kmeans_labels, W32, 8, 0) < W32.nbytes


def test_generated_and_saved_pixels_are_never_copied(tmp_path):
    # 2,048 rows of 1,024 values, eight row blocks: the generator holds its
    # float32 matrix and one block of noise, the writer writes its buffer
    spec = SynthSpec(n_patients=16, volumes_per_patient=4, slices_per_volume=32, h=32, w=32)
    ds, labels = generate_synthetic(spec)
    pixels = ds.pixel_matrix().nbytes
    assert ds.n // _kernels._block_rows(spec.h * spec.w) == 8
    assert peak_bytes(generate_synthetic, spec) < 1.75 * pixels
    assert peak_bytes(save_dataset, ds, labels, tmp_path, spec) < 0.5 * pixels


def test_probe_copies_only_the_labeled_rows(X):
    labels = np.arange(N) % 5
    assert peak_bytes(probe_accuracy, X, range(0, N, 16), labels) < 0.5 * X.nbytes


def test_dist_to_row_forms_differences_by_block(X):
    assert peak_bytes(_kernels.dist_to_row, X, 7) < 0.5 * X.nbytes


# -- bit identity --------------------------------------------------------------

def assert_same_bits(a, b):
    a, b = np.atleast_1d(np.asarray(a, dtype=float)), np.atleast_1d(np.asarray(b, dtype=float))
    nan = np.isnan(a)
    assert np.array_equal(nan, np.isnan(b))
    assert a[~nan].tobytes() == b[~nan].tobytes()


def normalized(X):
    """The oracle: (the min-max normalized copy of X, lo, scale)."""
    lo, hi = X.min(), X.max()
    if hi == lo:
        return np.zeros_like(X), lo, 1.0
    return (X - lo) / (hi - lo), lo, hi - lo


def matrix(kind, n, rng):
    X = rng.standard_normal((n, 6)) * 3.0 + 5.0
    if kind == "constant":
        X[:] = 2.5
    elif kind == "inf":
        X[n // 2, 1] = np.inf
    elif kind == "-inf":  # half a row, so that hi > lo at every n
        X[n // 3, :3] = -np.inf
    elif kind == "nan":
        X[n - 1, 4] = np.nan
    return X


@pytest.mark.parametrize("n", [1, 255, 256, 257, 513])
@pytest.mark.parametrize("kind", ["plain", "constant", "inf", "-inf", "nan"])
def test_mapped_kernels_match_the_normalized_copy(kind, n):
    rng = np.random.default_rng(n)
    X = matrix(kind, n, rng)
    ia, ib = rng.integers(0, n, n), rng.integers(0, n, n)
    with np.errstate(invalid="ignore"):
        Xn, lo, scale = normalized(X)
        assert_same_bits(_kernels.pair_mean_abs(X, ia, ib, lo, scale),
                         _kernels.pair_mean_abs(Xn, ia, ib))
        if n > 1:
            assert_same_bits(_kernels.all_pairs_mean_abs(X, lo, scale),
                             _kernels.all_pairs_mean_abs(Xn))
    if kind == "constant":
        assert not _kernels.pair_mean_abs(X, ia, ib, lo, scale).any()


@pytest.mark.parametrize("rows", [1, 2, 7, 256])
def test_mean_abs_kernels_do_not_depend_on_block_height(monkeypatch, rows):
    # per-pair means and in-place gaps are the same bits in blocks of any height
    rng = np.random.default_rng(45)
    X = rng.standard_normal((513, 6)) * 3.0 + 5.0
    ia, ib = rng.integers(0, 513, 700), rng.integers(0, 513, 700)
    assert _kernels._block_rows(X.shape[1]) > len(X)
    pairs = _kernels.pair_mean_abs(X, ia, ib, 1.5, 4.0)
    gini = _kernels.all_pairs_mean_abs(X, 1.5, 4.0)
    monkeypatch.setattr(_kernels, "_BLOCK", rows * X.shape[1])
    assert _kernels._block_rows(X.shape[1]) == rows
    assert_same_bits(_kernels.pair_mean_abs(X, ia, ib, 1.5, 4.0), pairs)
    assert_same_bits(_kernels.all_pairs_mean_abs(X, 1.5, 4.0), gini)


def test_one_infinity_throughout_is_nan():
    # hi == lo == -inf: every x - lo is nan, as it is wherever lo or hi is
    # infinite; the whole-matrix normalized copy held zeros here alone
    ds = DatasetIndex(np.array([(i, 0, 0, i) for i in range(3)]), np.full((3, 2), -np.inf), 1, 2)
    with np.errstate(invalid="ignore"):
        assert np.isnan(group_deviation(ds, "dataset"))


def test_nn_indices_on_a_row_subset():
    # integer points, so ties are common; several query blocks
    rng = np.random.default_rng(43)
    Q = rng.integers(0, 3, (3000, 8)).astype(float)
    R = Q[::2]
    rows = rng.permutation(3000)[:2000]
    assert _kernels._BLOCK // R.shape[0] < len(rows) // 8
    assert np.array_equal(_kernels.nn_indices(Q, R, rows), _kernels.nn_indices(Q[rows], R))
    assert np.array_equal(_kernels.nn_indices(Q, R, rows[:0]), np.empty(0, dtype=np.int64))


def test_blocked_row_dists_match_one_block():
    # past einsum's 8192-element buffer, blocks of 29 rows and a lone last row
    p = 9000
    assert _kernels._BLOCK // p == 29
    emb = np.random.default_rng(44).standard_normal((59, p)) * 1e3
    for idx in (0, 58):
        assert_same_bits(_kernels.dist_to_row(emb, idx),
                         np.sqrt(_kernels._sq_dists(emb - emb[idx])))
        rows = np.r_[np.arange(58, 0, -2), 7]
        assert_same_bits(np.sqrt(_kernels._sq_dists_to(emb, _kernels._wide(emb[idx]), rows)),
                         np.sqrt(_kernels._sq_dists(emb[rows] - emb[idx])))
