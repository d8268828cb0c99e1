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
from slicepick.pipeline import ProbeCarry, cover_probe_accuracy, probe_accuracy


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
        labeled = state.labeled
        n_init = len(labeled) - len(state.trace)
        trace, min_dist = full_pass_greedy(emb, labeled[:n_init], len(state.trace), seed)
        assert state.trace == trace
        assert state.min_dist.tobytes() == min_dist.tobytes()
        assert np.array_equal(state.nearest, loop_nearest(emb, labeled))
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
    assert cover_probe_accuracy(state, labels) == probe_accuracy(emb, [0, 1], labels) == 1.0


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
        assert cover_probe_accuracy(state, labels) == want
        assert probe_accuracy(emb, state.labeled, labels) == want


def test_cover_probe_of_a_full_or_empty_state():
    emb = np.random.default_rng(39).standard_normal((5, 2))
    labels = np.array([0, 1, 0, 1, 1])
    assert cover_probe_accuracy(k_center_greedy(SelectionState(emb), 5), labels) == 1.0
    with pytest.raises(ValueError, match="at least one labeled row"):
        cover_probe_accuracy(k_center_greedy(SelectionState(emb), 0), labels)


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


# -- the probe's carry -------------------------------------------------------


def check_carried_rounds(X, budgets, seed=0):
    """A probe carried over nested random rounds of ``X``: every round, each
    unlabeled row's nearest labeled row is the loop's, and the accuracy is
    the fresh probe's, bit for bit. Returns the carry."""
    rng = np.random.default_rng(seed)
    order, labels, carry = rng.permutation(len(X)), rng.integers(0, 3, len(X)), ProbeCarry(X)
    for b in budgets:
        labeled = sorted(order[:b].tolist())
        acc = probe_accuracy(X, labeled, labels, carry)
        unlabeled = np.setdiff1d(order, labeled)
        assert np.array_equal(carry.nearest[unlabeled], loop_nearest(X, labeled)[unlabeled])
        assert acc == probe_accuracy(X, labeled, labels)
    return carry


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
        carry = ProbeCarry(X)
        probe_accuracy(X, [first], labels, carry)
        assert carry.nearest[2] == first
        assert probe_accuracy(X, [0, 1], labels, carry) == probe_accuracy(X, [0, 1], labels)
        assert list(carry.nearest[[2, 3]]) == [0, 0]
        assert carry.bound[2] == 0  # the tie took the direct d2 of both rows


@pytest.mark.parametrize("scale", [3.5e18, 1e20, 1e39])
def test_carried_probe_where_a_bound_is_infinite(scale):
    # past the float32 bound every row's search re-ranks all its candidates
    rng = np.random.default_rng(34)
    X = scale * rng.uniform(-1, 1, size=(40, 4))
    X[::7] = X[3]
    carry = check_carried_rounds(X, [2, 9, 20, 39])
    assert scale < 1e20 or not carry.bound.any()
    # one huge row among ordinary ones: its own bound is infinite while it is
    # unlabeled, and every bound of the round that labels it
    X = rng.standard_normal((40, 4))
    X[5] *= scale
    for seed in range(4):
        check_carried_rounds(X, [1, 4, 10, 20, 39], seed)


def test_carried_probe_needs_nested_rounds():
    X = np.random.default_rng(41).standard_normal((6, 2))
    carry = ProbeCarry(X)
    probe_accuracy(X, [0, 3], np.zeros(6), carry)
    with pytest.raises(ValueError, match="every earlier round's"):
        probe_accuracy(X, [1, 3], np.zeros(6), carry)


def test_carried_round_copies_only_its_new_labeled_rows():
    # 8,192 x 256 (eight row blocks): 256 rows seen, then one round of 512
    # new ones holds no (n, new rows) screen and no copy of the matrix
    X = np.random.default_rng(41).standard_normal((8192, 256))
    labels = np.arange(8192) % 5
    carry = ProbeCarry(X)
    probe_accuracy(X, range(0, 8192, 32), labels, carry)
    labeled = sorted(set(range(0, 8192, 32)) | set(range(1, 8192, 16)))
    tracemalloc.start()
    try:
        probe_accuracy(X, labeled, labels, carry)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * X.nbytes
    assert np.count_nonzero(carry.seen) == 768
