"""The screened cover update against plain full distance passes.

A greedy pick skips the rows its new center provably cannot lower, and
``SelectionState.extend`` merges a search by the same bound; every test
here compares the picks and the exact ``min_dist`` bytes with
``checks.full_pass_greedy``, which takes one full ``dist_to_row`` pass per
center and no screen, and each row's nearest center with the loop
``checks.brute_force_nearest``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slicepick import _kernels
from slicepick.checks import brute_force_nearest, cover_radius, full_pass_greedy
from slicepick.coreset import SelectionState, k_center_greedy


def assert_same_as_full_passes(emb, initial, k, seed=None):
    state = k_center_greedy(SelectionState(emb, initial), k, cold_start_seed=seed)
    trace, min_dist = full_pass_greedy(emb, initial, k, seed)
    assert state.trace == trace
    assert state.min_dist.tobytes() == min_dist.tobytes()
    assert np.array_equal(state.nearest, brute_force_nearest(emb, state.labeled))
    return state


def full_pass_cover(emb, rows, min_dist=None):
    emb = np.ascontiguousarray(emb, dtype=np.float64)
    out = np.full(emb.shape[0], np.inf) if min_dist is None else min_dist.copy()
    for idx in rows:
        np.minimum(out, _kernels.dist_to_row(emb, idx), out=out)
    return out


@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(1, 40),
    p=st.integers(1, 12),
    seed=st.integers(0, 2 ** 31 - 1),
    n_init=st.integers(0, 4),
    first=st.integers(0, 40),
    offset=st.sampled_from([0.0, 1.0, 1e4]),
    scale=st.sampled_from([1.0, 1e-4, 1e3]),
)
def test_property_matches_full_passes(n, p, seed, n_init, first, offset, scale):
    rng = np.random.default_rng(seed)
    emb = offset + scale * rng.standard_normal((n, p))
    if n > 3:  # a few exact duplicates
        emb[rng.integers(n, size=2)] = emb[rng.integers(n)]
    initial = sorted(rng.choice(n, size=min(n_init, n), replace=False).tolist())
    free = n - len(initial)
    k1 = min(first, free)
    state = assert_same_as_full_passes(emb, initial, k1, seed)
    first = state.trace
    # continuing the state gives the picks of one longer call
    k2 = int(rng.integers(0, free - k1 + 1))
    cont = k_center_greedy(state, k2, cold_start_seed=seed)
    trace, min_dist = full_pass_greedy(emb, initial, k1 + k2, seed)
    assert first + cont.trace == trace
    assert cont.min_dist.tobytes() == min_dist.tobytes()


def test_duplicated_rows():
    rng = np.random.default_rng(11)
    base = rng.standard_normal((7, 5))
    emb = base[rng.integers(7, size=60)]
    for initial in ([], [0], [3, 4, 59]):
        assert_same_as_full_passes(emb, initial, 60 - len(initial), seed=2)


def test_all_identical_rows():
    emb = np.repeat(np.random.default_rng(12).standard_normal((1, 6)), 25, axis=0)
    state = assert_same_as_full_passes(emb, [], 25, seed=4)
    assert not state.min_dist.any()


def test_large_offset_near_ties():
    # |x|^2 - 2 x.c + |c|^2 cancels about 16 digits here: with a zero slack
    # the screen drops rows whose direct distance is below their cover
    rng = np.random.default_rng(13)
    for trial in range(5):
        emb = 1e4 + 1e-4 * rng.standard_normal((80, 6))
        assert_same_as_full_passes(emb, [], 40, seed=trial)
        assert_same_as_full_passes(emb, [1, 2], 30)


def test_huge_values_take_the_non_finite_fallback():
    rng = np.random.default_rng(14)
    # near 1e200 every squared norm and nonzero squared distance overflows
    emb = 1e200 * rng.standard_normal((30, 4))
    emb[::3] = emb[0]
    assert_same_as_full_passes(emb, [], 12, seed=1)
    # near 2e154 the squared norms overflow but the direct distances do not
    emb = 2e154 + 1e141 * rng.integers(-50, 50, size=(30, 4))
    state = assert_same_as_full_passes(emb, [], 12, seed=1)
    assert np.isfinite(state.min_dist).all() and state.min_dist.any()


def test_wide_rows_subset_distances_match_full_pass():
    # p past numpy's 8192-element einsum buffer: a lone row sums in another
    # order than a row of a matrix, so subsets of every size must match
    rng = np.random.default_rng(15)
    emb = rng.standard_normal((12, 10_000)) * rng.uniform(0.1, 1e3, size=(12, 1))
    for idx in (0, 5, 11):
        full = _kernels.dist_to_row(emb, idx)
        for rows in ([3], [idx], [0, 7], [2, 3, 4, 9, 11], list(range(12))):
            got = np.sqrt(_kernels._sq_dists_to(emb, _kernels._wide(emb[idx]), np.array(rows)))
            assert got.tobytes() == full[rows].tobytes()
    assert_same_as_full_passes(emb, [], 11, seed=3)
    assert_same_as_full_passes(emb, [2, 6], 8)


def test_batched_extend_cover_matches_sequential_passes():
    # more centers than one screen block holds (2**18 // n columns)
    rng = np.random.default_rng(16)
    emb = rng.standard_normal((3000, 3))
    rows = rng.choice(3000, size=200, replace=False).tolist()
    state = SelectionState(emb, rows)
    assert state.min_dist.tobytes() == full_pass_cover(emb, rows).tobytes()
    more = rng.choice(3000, size=150, replace=False).tolist()
    before = state.min_dist.copy()
    state.extend(more)
    assert state.min_dist.tobytes() == full_pass_cover(emb, more, before).tobytes()


def test_batched_extend_cover_float32_input():
    rng = np.random.default_rng(17)
    emb = rng.standard_normal((50, 7)).astype(np.float32)
    got = SelectionState(emb, [4, 9, 30]).min_dist
    assert got.tobytes() == full_pass_cover(emb, [4, 9, 30]).tobytes()


def test_non_finite_entries_propagate_like_full_passes():
    emb = np.random.default_rng(18).standard_normal((20, 3))
    emb[5, 1] = np.nan
    emb[9, 0] = np.inf
    rows = [0, 5, 12]
    got = SelectionState(emb, rows).min_dist
    with np.errstate(invalid="ignore"):
        want = full_pass_cover(emb, rows)
    assert got.tobytes() == want.tobytes()


def test_cold_start_takes_one_full_pass(monkeypatch):
    calls = []
    real = _kernels.dist_to_row

    def counted(emb, idx):
        calls.append(idx)
        return real(emb, idx)

    monkeypatch.setattr(_kernels, "dist_to_row", counted)
    emb = np.random.default_rng(19).standard_normal((400, 16))
    state = k_center_greedy(SelectionState(emb), 60, cold_start_seed=5)
    # only the first center meets an all-inf cover; later picks are screened
    assert calls == [state.trace[0][0]]


def test_screened_state_continues_a_foreign_cover():
    # a state whose distances exceed any in the matrix still screens exactly
    rng = np.random.default_rng(20)
    emb = rng.standard_normal((30, 4))
    state = k_center_greedy(SelectionState(emb, [0]), 0)
    state.min_dist[:], state.d2[:] = 1e30, 1e60
    state.min_dist[0] = state.d2[0] = 0.0
    min_dist = state.min_dist.copy()
    got = k_center_greedy(state, 5)
    labeled = [0]
    for idx, dist in got.trace:
        cand = np.where(np.isin(np.arange(30), labeled), -np.inf, min_dist)
        assert idx == int(np.argmax(cand)) and dist == min_dist[idx]
        labeled.append(idx)
        np.minimum(min_dist, _kernels.dist_to_row(emb, idx), out=min_dist)
    assert got.min_dist.tobytes() == min_dist.tobytes()


@pytest.mark.parametrize("n_labeled", [1, 3])
def test_cover_radius_is_full_passes(n_labeled):
    emb = np.random.default_rng(21).standard_normal((25, 3))
    rows = list(range(n_labeled))
    assert cover_radius(emb, rows) == float(full_pass_cover(emb, rows).max())
