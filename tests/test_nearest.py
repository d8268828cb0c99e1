"""Each row's nearest labeled row, as the greedy's cover keeps it, and the
float32 screen that both the cover and the 1-NN search run through.

The oracles are plain loops over direct differences: ``loop_nearest`` takes
the least squared distance ``einsum((x - c)**2)`` over the labeled rows in
index order, ties going to the lowest row, which is the probe's order. On
small-integer data every squared distance is exact in any summation order,
so there ``scalar_nearest`` checks the same answer one scalar at a time.
A float32 matrix must give the bits of its float64 widening throughout.
"""

import math
import tracemalloc

import numpy as np
import pytest

from slicepick import _kernels
from slicepick.checks import brute_force_nearest as loop_nearest
from slicepick.checks import full_pass_greedy
from slicepick.coreset import SelectionState, k_center_greedy
from slicepick.data import GROUPINGS, DatasetIndex, group_deviation
from slicepick.pipeline import probe_accuracy


def scalar_nearest(X, labeled):
    out = []
    for x in X.tolist():
        best, best_c = math.inf, -1
        for c in sorted(labeled):
            s = sum((a - b) ** 2 for a, b in zip(x, X[c].tolist()))
            if s < best:
                best, best_c = s, c
        out.append(best_c)
    return np.array(out)


def loop_nn(Q, R):
    """``nn_indices``' answer by the loop: the nearest row of R per row of Q."""
    X = np.concatenate([R, Q])
    return loop_nearest(X, range(R.shape[0]))[R.shape[0]:]


def check_greedy(emb, initial, k, seed=None):
    """Picks and ``min_dist`` bytes as the full passes give them, and the
    nearest labeled rows as the loop gives them, after every round of a
    greedy that continues its own state."""
    state = SelectionState(emb, initial)
    for step in (k // 2, k - k // 2):
        state = k_center_greedy(state, step, cold_start_seed=seed)
        held = set(state.labeled) - {i for i, _ in state.trace}
        trace, min_dist = full_pass_greedy(emb, held, len(state.trace), seed)
        assert state.trace == trace
        assert state.min_dist.tobytes() == min_dist.tobytes()
        assert np.array_equal(state.nearest, loop_nearest(emb, state.labeled))
    return state


def check_nn(Q, R):
    assert np.array_equal(_kernels.nn_indices(Q, R), loop_nn(Q, R))


# -- near ties ---------------------------------------------------------------


def test_duplicate_rows():
    rng = np.random.default_rng(31)
    emb = rng.standard_normal((6, 4))[rng.integers(6, size=50)]
    for initial in ([], [0], [7, 3, 49]):
        check_greedy(emb, initial, 50 - len(initial), seed=3)
    check_nn(emb, emb[::3])


def test_mirrored_points():
    # every row of the y axis is equidistant from (-k, 0) and (k, 0)
    ys = np.arange(-4.0, 5.0)
    mirrored = [[s * k, 0.0] for k in (1.0, 2.0, 3.0) for s in (1, -1)]
    emb = np.array(mirrored + [[0.0, y] for y in ys] + [[1.0, y] for y in ys])
    for initial in ([0, 1], [1, 0], [5], []):
        state = check_greedy(emb, initial, 12, seed=1)
        assert np.array_equal(state.nearest, scalar_nearest(emb, state.labeled))
    check_nn(emb[6:], emb[:6])


def test_small_integers_tie_everywhere():
    rng = np.random.default_rng(32)
    for trial in range(6):
        emb = rng.integers(-2, 3, size=(40, 3)).astype(np.float64)
        state = check_greedy(emb, [], 25, seed=trial)
        assert np.array_equal(state.nearest, scalar_nearest(emb, state.labeled))


def test_squared_distances_that_round_to_one_distance():
    # from the origin, row 0 is at d2 = N + 1 and row 1 at d2 = N, exactly
    # (integers below 2^53), and sqrt(N) == sqrt(N + 1) in float64: the
    # distances tie, the lower row does not win, the nearer one does
    b = 2 ** 25
    emb = np.array([[2.0 * b + 1, b + 2.0], [2.0 * b + 2, float(b)], [0.0, 0.0]])
    d2 = [int(x) ** 2 + int(y) ** 2 for x, y in emb[:2]]
    assert d2[0] == d2[1] + 1 and math.sqrt(d2[0]) == math.sqrt(d2[1])
    state = check_greedy(emb, [0, 1], 0)
    assert state.nearest[2] == 1
    assert list(_kernels.nn_indices(emb[2:], emb[:2])) == [1]
    labels = np.array([0, 1, 1])
    assert probe_accuracy(emb, [0, 1], labels, state) == probe_accuracy(emb, [0, 1], labels) == 1.0


@pytest.mark.parametrize("first, nearest", [(2, 0), (0, 0)])
def test_tie_goes_to_the_lower_row_whichever_is_picked_first(first, nearest):
    # row 1 is as far from row 0 as from row 2; the greedy picks the other
    # end second, so the lower row is once the later pick and once the earlier
    emb = np.array([[-1.0], [0.0], [1.0]])
    state = k_center_greedy(SelectionState(emb, [first]), 1)
    assert [i for i, _ in state.trace] == [2 - first]
    assert state.nearest[1] == nearest
    assert np.array_equal(state.nearest, loop_nearest(emb, state.labeled))


# -- the float32 screen's bound ----------------------------------------------


def test_large_offset_and_tiny_noise():
    # the float32 product loses every digit of the differences here
    rng = np.random.default_rng(33)
    for trial in range(3):
        emb = 1e4 + 1e-4 * rng.standard_normal((60, 5))
        check_greedy(emb, [], 30, seed=trial)
        check_greedy(emb, [4, 9], 20)
        check_nn(emb[:40], emb[40:])


@pytest.mark.parametrize("scale", [2e18, 3.5e18, 5e18, 1e20, 1e39])
def test_values_near_float32_overflow(scale):
    # with 4 p scale^2 around the float32 maximum (3.4e38), the bound is
    # finite just below it and infinite above; past 3.4e38 the float32 copy
    # itself is inf
    rng = np.random.default_rng(34)
    emb = scale * rng.uniform(-1, 1, size=(40, 4))
    emb[::7] = emb[3]
    check_greedy(emb, [], 20, seed=2)
    check_nn(emb[:25], emb[25:])


@pytest.mark.parametrize("scale", [1e-36, 1e-39, 1e-42, 1e-45, 1e-300])
def test_values_below_float32_tiny(scale):
    # subnormal in float32, or flushed to zero by the cast
    rng = np.random.default_rng(35)
    emb = scale * rng.standard_normal((40, 6))
    emb[::5] = emb[1]
    check_greedy(emb, [], 20, seed=3)
    check_nn(emb[:25], emb[25:])


def test_tiny_rows_beside_ordinary_ones():
    rng = np.random.default_rng(36)
    emb = rng.standard_normal((40, 6))
    emb[::2] *= 1e-40
    check_greedy(emb, [], 20, seed=4)
    check_greedy(emb, [0, 1], 10)
    check_nn(emb[:25], emb[25:])


def test_screen_keeps_few_rows_on_ordinary_data():
    # the widened bound still screens: most rows are not recomputed
    rng = np.random.default_rng(37)
    emb = rng.standard_normal((400, 64))
    sq = _kernels._sq_norms(emb)
    e32 = _kernels._as_f32(emb)
    approx = _kernels._sq_dist_expansion(e32, sq, e32[:1], sq[:1])[:, 0]
    d2 = _kernels._sq_dists(emb - emb[0])
    slack = _kernels._sq_dist_slack(sq[:1] + sq.max(), 64)[0]
    assert np.all(np.abs(approx - d2) <= slack / 2)
    assert slack < 0.01 * np.median(d2)


# -- the state and the probe -------------------------------------------------


def test_cover_probe_matches_the_loop_probe():
    rng = np.random.default_rng(38)
    emb = rng.integers(-3, 4, size=(70, 4)).astype(np.float64)
    labels = rng.integers(0, 3, size=70)
    state = k_center_greedy(SelectionState(emb), 0)
    for k in (1, 4, 10, 55):
        state = k_center_greedy(state, k - len(state.labeled), cold_start_seed=5)
        nearest = scalar_nearest(emb, state.labeled)
        unlabeled = np.setdiff1d(np.arange(70), state.labeled)
        want = float(np.mean(labels[nearest[unlabeled]] == labels[unlabeled]))
        assert probe_accuracy(emb, state.labeled, labels, state) == want
        assert probe_accuracy(emb, state.labeled, labels) == want


def test_cover_probe_of_a_full_or_empty_state():
    emb = np.random.default_rng(39).standard_normal((5, 2))
    labels = np.array([0, 1, 0, 1, 1])
    state = k_center_greedy(SelectionState(emb), 5)
    assert probe_accuracy(emb, state.labeled, labels, state) == 1.0
    state = k_center_greedy(SelectionState(emb), 0)
    with pytest.raises(ValueError, match="at least one labeled row"):
        probe_accuracy(emb, state.labeled, labels, state)


# -- float32 storage ---------------------------------------------------------


def float32_inputs():
    """Tie-heavy float32 matrices, an ordinary one, and a tie of distances
    that only the float64 squared distances resolve."""
    rng = np.random.default_rng(40)
    ys = np.arange(-4.0, 5.0)
    mirrored = [[s * k, 0.0] for k in (1.0, 2.0, 3.0) for s in (1, -1)]
    # from the zero row, row 0 is at d2 = N + 1 and row 1 at d2 = N, exact
    # integers below 2^53 whose float64 square roots are equal; in float32
    # both d2 round to one value
    c, p = 8386608, 80
    tie = np.zeros((3, p))
    tie[:2, 1:] = c
    tie[0, 0] = 1.0
    assert math.sqrt((p - 1) * c * c) == math.sqrt((p - 1) * c * c + 1)
    inputs = {
        "duplicates": rng.standard_normal((6, 4))[rng.integers(6, size=50)],
        "mirrored": np.array(mirrored + [[0.0, y] for y in ys] + [[1.0, y] for y in ys]),
        "small integers": rng.integers(-2, 3, size=(40, 3)),
        # a few float32 ulps around 1e4
        "large offset": 1e4 + 1e-3 * rng.standard_normal((60, 5)),
        "ordinary": 3.0 * rng.standard_normal((60, 7)) - 1.0,
        "float64 tie": tie,
    }
    return {name: X.astype(np.float32) for name, X in inputs.items()}


FLOAT32_INPUTS = float32_inputs()


@pytest.mark.parametrize("name", list(FLOAT32_INPUTS))
def test_float32_matrix_gives_the_bits_of_its_widening(name):
    # every kernel, statistic and cover computes in float64, so a float32
    # matrix and its exact float64 widening give the same bits
    X = FLOAT32_INPUTS[name]
    W = X.astype(np.float64)
    n = len(X)
    rng = np.random.default_rng(n)
    for idx in (0, n // 2, n - 1):
        assert _kernels.dist_to_row(X, idx).tobytes() == _kernels.dist_to_row(W, idx).tobytes()
    rows = rng.permutation(n)[:n // 2]
    for refs in (slice(None, None, 3), slice(2)):
        assert np.array_equal(_kernels.nn_indices(X, X[refs]), _kernels.nn_indices(W, W[refs]))
    assert np.array_equal(_kernels.nn_indices(X, X[::3], rows),
                          _kernels.nn_indices(W, W[::3], rows))
    lo = float(W.min())
    scale = float(W.max()) - lo
    ia, ib = rng.integers(0, n, 2 * n), rng.integers(0, n, 2 * n)
    assert (_kernels.pair_mean_abs(X, ia, ib, lo, scale).tobytes()
            == _kernels.pair_mean_abs(W, ia, ib, lo, scale).tobytes())
    assert _kernels.all_pairs_mean_abs(X, lo, scale) == _kernels.all_pairs_mean_abs(W, lo, scale)
    assert scale > 0

    i = np.arange(n)
    ids = np.stack([i, i // 8, i // 4, i % 4], axis=1)
    ds = DatasetIndex(ids, X, 1, X.shape[1])
    wide = DatasetIndex(ids, X, 1, X.shape[1])
    wide.pixel_matrix = lambda: W
    for grouping in GROUPINGS:
        assert group_deviation(ds, grouping) == group_deviation(wide, grouping)

    states = SelectionState(X, [0, 1]), SelectionState(W, [0, 1])
    assert states[0].emb is X and states[0].emb32 is X
    if name == "float64 tie":
        assert list(states[0].nearest) == [0, 1, 1]
    for k in (0, (n - 2) // 2, (n - 2) - (n - 2) // 2):
        a, b = (k_center_greedy(s, k, cold_start_seed=3) for s in states)
        assert a.trace == b.trace
        assert a.sq_norms.tobytes() == b.sq_norms.tobytes()
        assert a.min_dist.tobytes() == b.min_dist.tobytes()
        assert a.nearest.tobytes() == b.nearest.tobytes()


# -- the state carried across rounds -----------------------------------------


def check_carried_rounds(X, budgets, seed=0):
    """A probe's state carried over nested random rounds of ``X``: every
    round, each unlabeled row's nearest labeled row is the loop's, and the
    accuracy is a fresh state's, bit for bit. Returns the state."""
    rng = np.random.default_rng(seed)
    order, labels, state = rng.permutation(len(X)), rng.integers(0, 3, len(X)), SelectionState(X)
    for b in budgets:
        labeled = sorted(order[:b].tolist())
        acc = probe_accuracy(X, labeled, labels, state)
        unlabeled = np.setdiff1d(order, labeled)
        assert np.array_equal(state.nearest[unlabeled], loop_nearest(X, labeled)[unlabeled])
        assert acc == probe_accuracy(X, labeled, labels)
    return state


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", list(FLOAT32_INPUTS))
def test_carried_probe_matches_the_loop_every_round(name, dtype):
    X = FLOAT32_INPUTS[name].astype(dtype)
    n = len(X)
    for seed in range(3):
        check_carried_rounds(X, sorted({1, 2, n // 4, n // 2, n - 1, n} - {0}), seed)


@pytest.mark.parametrize("first", [0, 1])
def test_new_row_tying_a_carried_one_goes_to_the_lower_row(first):
    # row 2 is as far from row 0 as from row 1; the lower row wins whether
    # it is carried or new, and also where a large offset blurs the screen
    for offset in (0.0, 1e4):
        X = offset + np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 3.0]])
        labels = np.array([0, 1, 2, 1])
        state = SelectionState(X)
        probe_accuracy(X, [first], labels, state)
        assert state.nearest[2] == first
        assert probe_accuracy(X, [0, 1], labels, state) == probe_accuracy(X, [0, 1], labels)
        assert list(state.nearest[[2, 3]]) == [0, 0]
        assert state.bound[2] == 0  # the tie took the direct d2 of both rows


@pytest.mark.parametrize("scale", [3.5e18, 1e20, 1e39])
def test_carried_probe_where_a_bound_is_infinite(scale):
    # past the float32 bound every row's search re-ranks all its candidates
    rng = np.random.default_rng(34)
    X = scale * rng.uniform(-1, 1, size=(40, 4))
    X[::7] = X[3]
    state = check_carried_rounds(X, [2, 9, 20, 39])
    assert scale < 1e20 or not state.bound.any()
    # one huge row among ordinary ones: its own bound is infinite while it is
    # unlabeled, and every bound of the round that labels it
    X = rng.standard_normal((40, 4))
    X[5] *= scale
    for seed in range(4):
        check_carried_rounds(X, [1, 4, 10, 20, 39], seed)


def test_carried_probe_needs_nested_rounds():
    X = np.random.default_rng(41).standard_normal((6, 2))
    state = SelectionState(X)
    probe_accuracy(X, [0, 3], np.zeros(6), state)
    with pytest.raises(ValueError, match="every earlier round's"):
        probe_accuracy(X, [1, 3], np.zeros(6), state)


def test_carried_round_copies_only_its_new_labeled_rows():
    # 8,192 x 256 (eight row blocks): 256 rows held, then one round of 512
    # new ones holds no (n, new rows) screen and no copy of the matrix
    X = np.random.default_rng(41).standard_normal((8192, 256))
    labels = np.arange(8192) % 5
    state = SelectionState(X)
    probe_accuracy(X, range(0, 8192, 32), labels, state)
    labeled = sorted(set(range(0, 8192, 32)) | set(range(1, 8192, 16)))
    tracemalloc.start()
    try:
        probe_accuracy(X, labeled, labels, state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * X.nbytes
    assert np.count_nonzero(state.mask) == len(state.labeled) == 768


# -- one state for the greedy and the probe ----------------------------------


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", list(FLOAT32_INPUTS))
def test_chunked_extends_then_greedy_match_the_full_passes(name, dtype):
    # extends of random chunks, then a greedy that continues the same state:
    # its picks and min_dist bytes are the full passes', and every row's
    # nearest is the loop's, after each step
    X = FLOAT32_INPUTS[name].astype(dtype)
    n = len(X)
    for seed in range(3):
        rng = np.random.default_rng(seed)
        order = rng.permutation(n).tolist()
        cuts = sorted(rng.integers(1, max(2, n // 2), size=2).tolist())
        state = SelectionState(X)
        for chunk in (order[:cuts[0]], order[cuts[0]:cuts[1]]):
            state.extend(chunk)
            assert np.array_equal(state.nearest, loop_nearest(X, state.labeled))
        labeled = list(state.labeled)
        k = n - len(labeled) - (n - len(labeled)) // 4
        k_center_greedy(state, k, cold_start_seed=seed)
        trace, min_dist = full_pass_greedy(X, labeled, k, seed)
        assert state.trace == trace
        assert state.min_dist.tobytes() == min_dist.tobytes()
        assert np.array_equal(state.nearest, loop_nearest(X, state.labeled))


def test_new_duplicate_of_a_labeled_row_becomes_its_nearest():
    # rows 1 and 4 coincide; row 4 is labeled first, so it is its own
    # nearest, until the lower duplicate is labeled too
    rng = np.random.default_rng(42)
    for X in (rng.standard_normal((6, 3)), 1e4 + 1e-3 * rng.standard_normal((6, 3))):
        X[1] = X[4]
        state = SelectionState(X, [4, 0])
        assert state.nearest[4] == 4 == state.nearest[1]
        state.extend([1])
        assert state.nearest[4] == 1 == state.nearest[1]
        assert np.array_equal(state.nearest, loop_nearest(X, [0, 1, 4]))
        assert state.min_dist[[1, 4]].tolist() == [0.0, 0.0]


@pytest.mark.parametrize("scale", [1e20, 1e39])
def test_extends_where_bounds_are_infinite_match_the_full_passes(scale):
    # a lone new row past the float32 bound keeps the screen's infinite
    # bound (no re-rank), as a cold start's rows keep an unknown d2; their
    # merges and the read must still give the loop's rows and the full
    # passes' bytes
    rng = np.random.default_rng(43)
    X = rng.standard_normal((30, 4))
    X[[3, 11]] *= scale
    X[20] = X[11]
    assert np.isinf(_kernels.nn_indices(X, X[[11]], None, None, True)[2]).all()
    for start in ([], [11]):
        state = SelectionState(X, start)
        if not start:
            k_center_greedy(state, 2, cold_start_seed=1)
        for row in (3, 20, 0, 7):
            state.extend([row] if row not in state.labeled else [])
            assert np.array_equal(state.nearest, loop_nearest(X, state.labeled))
        labeled = list(state.labeled)
        assert state.min_dist.tobytes() == full_pass_greedy(X, labeled, 0)[1].tobytes()
        k_center_greedy(state, 10)
        trace, min_dist = full_pass_greedy(X, labeled, 10)
        assert state.trace == trace and state.min_dist.tobytes() == min_dist.tobytes()
        assert np.array_equal(state.nearest, loop_nearest(X, state.labeled))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", ["ordinary", "mirrored"])
def test_a_probed_state_defers_the_direct_pass_to_the_first_read(monkeypatch, name, dtype):
    # the probe reads nearest rows only: a row merged by its screen value
    # keeps its bound, with no direct d2, until min_dist is read
    X = FLOAT32_INPUTS[name].astype(dtype)
    direct = set()  # (row, labeled row) pairs given a direct d2
    real = _kernels._sq_dists_to

    def counted(emb, ref, rows=None, ref_rows=None):
        if rows is not None:
            direct.update(zip(np.asarray(rows).tolist(), np.asarray(ref_rows).tolist()))
        return real(emb, ref, rows, ref_rows)

    monkeypatch.setattr(_kernels, "_sq_dists_to", counted)
    state, labels = SelectionState(X), np.arange(len(X)) % 3
    for b in (3, 10, 20):
        probe_accuracy(X, range(b), labels, state)
    bounded = np.flatnonzero(state.bound)
    assert bounded.size
    assert not set(zip(bounded.tolist(), state.nearest[bounded].tolist())) & direct
    assert state.min_dist.tobytes() == full_pass_greedy(X, range(20), 0)[1].tobytes()
    assert not state.bound.any()


# -- the merge's invariants --------------------------------------------------


def direct_d2(X, rows, refs):
    """The direct squared distance of each of ``rows`` to its ``refs`` row,
    by the loop's einsum over each pair taken twice (never a lone row)."""
    W = np.ascontiguousarray(X, dtype=np.float64)
    out = np.empty(len(rows))
    for k, (i, c) in enumerate(zip(rows, refs)):
        diff = W[i] - W[[c, c]]
        out[k] = np.einsum("ij,ij->i", diff, diff)[0]
    return out


def check_invariants(state):
    """A zero bound marks a direct d2, whose min_dist is its square root, bit
    for bit; any other d2 lies within half its bound of the direct one.
    Reads the stored ``_min_dist``, so the state is left as it was."""
    held = np.count_nonzero(state.nearest >= 0)  # every row once any is labeled
    assert held in (0, len(state.nearest))
    rows = np.arange(held)
    direct = direct_d2(state.emb, rows, state.nearest[rows])
    exact = state.bound[rows] == 0
    assert state.d2[rows][exact].tobytes() == direct[exact].tobytes()
    assert state._min_dist[rows][exact].tobytes() == np.sqrt(direct[exact]).tobytes()
    assert np.all(np.abs(state.d2[rows] - direct) <= state.bound[rows] / 2)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", list(FLOAT32_INPUTS))
def test_a_zero_bound_marks_a_direct_d2_after_every_step(name, dtype):
    # extends, greedy calls (a cold start's among them) and reads, in turn
    X = FLOAT32_INPUTS[name].astype(dtype)
    n = len(X)

    def greedy(state, k, seed=None):
        k_center_greedy(state, min(k, n - len(state.labeled)), cold_start_seed=seed)

    def extend(state, rows):
        state.extend([i for i in rows if not state.mask[i]])

    for seed in range(3):
        order = np.random.default_rng(seed).permutation(n).tolist()
        for state in (SelectionState(X), SelectionState(X, order[:2])):
            check_invariants(state)
            steps = [
                lambda: greedy(state, 2, seed),
                lambda: extend(state, order[:n // 3]),
                lambda: greedy(state, n // 4),
                lambda: extend(state, order[:n // 2 + 1]),
            ]
            for step in steps:
                step()
                check_invariants(state)
                state.min_dist
                check_invariants(state)
                assert not state.bound.any()
            assert np.array_equal(state.nearest, loop_nearest(X, state.labeled))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_picks_tying_a_cold_start_center_go_to_the_lower_row(dtype):
    # on small integers a later pick is often exactly as near a row as the
    # first center, which the row holds with a cold start's bound, not 0
    X = FLOAT32_INPUTS["small integers"].astype(dtype)
    n = len(X)
    ties = moved = 0
    for seed in range(12):
        state = k_center_greedy(SelectionState(X), 9, cold_start_seed=seed)
        first, *picks = [i for i, _ in state.trace]
        least = to_first = direct_d2(X, range(n), [first] * n)
        for pick in picks:
            to_pick = direct_d2(X, range(n), [pick] * n)
            tied = np.count_nonzero((to_pick == to_first) & (to_first == least))
            ties, moved = ties + tied, moved + tied * (pick < first)
            least = np.minimum(least, to_pick)
        trace, min_dist = full_pass_greedy(X, [], 9, seed)
        assert state.trace == trace
        assert state.min_dist.tobytes() == min_dist.tobytes()
        assert np.array_equal(state.nearest, loop_nearest(X, state.labeled))
    assert ties > 0 and moved > 0


@pytest.mark.parametrize("bad", [-1, -2, 6])
def test_a_row_out_of_range_leaves_the_state_unchanged(bad):
    X = np.random.default_rng(44).standard_normal((6, 3))
    labels = np.arange(6) % 2
    with pytest.raises(IndexError):
        SelectionState(X, [bad])
    with pytest.raises(IndexError):
        probe_accuracy(X, [bad], labels)
    state = SelectionState(X, [5])
    before = list(state.labeled), state.mask.tobytes(), state.nearest.tobytes(), state.d2.tobytes()
    calls = (
        lambda: state.extend([bad]),
        lambda: state.extend([2, bad]),
        lambda: probe_accuracy(X, [bad], labels, state),
        lambda: probe_accuracy(X, [5, bad], labels, state),
    )
    for call in calls:
        with pytest.raises(IndexError):
            call()
        after = list(state.labeled), state.mask.tobytes(), state.nearest.tobytes(), state.d2.tobytes()
        assert after == before


def test_repeated_and_labeled_rows_are_labeled_once():
    # row 5 already labeled and row 2 given twice: the state is a fresh
    # one's of the same set, for the greedy's budget and the probe's nesting
    X = np.random.default_rng(45).standard_normal((6, 3))
    labels = np.arange(6) % 2
    state, fresh = SelectionState(X, [5]), SelectionState(X, [2, 5])
    state.extend([5, 2, 2])
    for name in ("mask", "nearest", "d2", "min_dist"):
        assert getattr(state, name).tobytes() == getattr(fresh, name).tobytes()
    assert probe_accuracy(X, [2, 5], labels, state) == probe_accuracy(X, [2, 5], labels)
    assert k_center_greedy(state, 3).trace == k_center_greedy(fresh, 3).trace
