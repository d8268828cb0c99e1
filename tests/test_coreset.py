import numpy as np
import pytest

from slicepick import (
    _kernels,
    k_center_greedy,
    kmeans_labels,
    silhouette_score,
)
from slicepick._kernels import dist_to_row, pairwise_dists
from slicepick.checks import brute_force_k_center, cover_radius
from slicepick.coreset import SelectionState


def ref_silhouette(emb, labels):
    emb = np.asarray(emb, dtype=np.float64)
    labels = np.asarray(labels)
    n = len(emb)
    scores = []
    for i in range(n):
        own = [j for j in range(n) if labels[j] == labels[i] and j != i]
        if not own:
            scores.append(0.0)
            continue
        a = np.mean([np.linalg.norm(emb[i] - emb[j]) for j in own])
        b = min(
            np.mean([np.linalg.norm(emb[i] - emb[j]) for j in range(n) if labels[j] == c])
            for c in set(labels)
            if c != labels[i]
        )
        scores.append(0.0 if max(a, b) == 0 else (b - a) / max(a, b))
    return float(np.mean(scores))


def loop_silhouette(emb, labels):
    """The per-row loop ``silhouette_score`` replaced, kept as its bit-level
    oracle: one row's distance sums and means at a time."""
    D = pairwise_dists(np.ascontiguousarray(emb, dtype=np.float64))
    labels = np.asarray(labels)
    uniq = np.unique(labels)
    scores = np.zeros(len(D))
    members = {c: np.flatnonzero(labels == c) for c in uniq}
    for i in range(len(D)):
        own = members[labels[i]]
        if own.size < 2:
            continue
        a = D[i, own].sum() / (own.size - 1)
        b = min(D[i, members[c]].mean() for c in uniq if c != labels[i])
        denom = max(a, b)
        scores[i] = 0.0 if denom == 0 else (b - a) / denom
    return float(scores.mean())


class TestDistance:
    """The greedy's row distance, ``dist_to_row``."""

    def test_self_distance_zero(self):
        emb = np.random.default_rng(0).standard_normal((4, 3))
        assert dist_to_row(emb, 2)[2] == 0.0

    def test_three_four_five(self):
        emb = np.array([[0.0, 0.0], [3.0, 4.0]])
        assert dist_to_row(emb, 0)[1] == 5.0

    def test_symmetry(self):
        emb = np.random.default_rng(1).standard_normal((6, 4))
        for i in range(6):
            for j in range(6):
                assert dist_to_row(emb, i)[j] == dist_to_row(emb, j)[i]

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            dist_to_row(np.zeros((3, 2)), 3)


class TestGreedy:
    line = np.array([[0.0], [1.0], [10.0]])

    def test_farthest_point_first(self):
        state = k_center_greedy(SelectionState(self.line, [0]), 1)
        assert [i for i, _ in state.trace] == [2]
        assert state.trace[0][1] == 10.0

    def test_two_picks(self):
        state = k_center_greedy(SelectionState(self.line, [0]), 2)
        assert [i for i, _ in state.trace] == [2, 1]

    def test_budget_too_large(self):
        with pytest.raises(ValueError):
            k_center_greedy(SelectionState(self.line, [0]), 3)

    @pytest.mark.parametrize("k", [-1, 3])
    def test_budget_outside_range_gives_range_and_value(self, k):
        with pytest.raises(ValueError) as info:
            k_center_greedy(SelectionState(self.line, [0]), k)
        assert str(info.value) == (
            f"selection setting budget must lie in [0, 2] (the unlabeled rows), got {k}"
        )

    def test_cold_start_defaults_to_lowest_index(self):
        state = k_center_greedy(SelectionState(self.line), 1)
        assert state.labeled == [0]
        assert np.isinf(state.trace[0][1])

    def test_cold_start_seeded(self):
        emb = np.random.default_rng(2).standard_normal((10, 2))
        a = k_center_greedy(SelectionState(emb), 3, cold_start_seed=5)
        b = k_center_greedy(SelectionState(emb), 3, cold_start_seed=5)
        assert a.trace == b.trace

    def test_trace_distances_non_increasing(self):
        emb = np.random.default_rng(3).standard_normal((30, 4))
        state = k_center_greedy(SelectionState(emb, [0]), 10)
        dists = [d for _, d in state.trace]
        assert all(b <= a for a, b in zip(dists, dists[1:]))

    def test_radius_monotone_in_budget(self):
        emb = np.random.default_rng(4).standard_normal((25, 3))
        radii = [
            cover_radius(emb, k_center_greedy(SelectionState(emb, [0]), k).labeled)
            for k in range(1, 10)
        ]
        assert all(b <= a for a, b in zip(radii, radii[1:]))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            emb = rng.standard_normal((12, 3))
            perm = rng.permutation(12)
            inv = np.empty(12, dtype=np.int64)
            inv[perm] = np.arange(12)
            sel = k_center_greedy(SelectionState(emb, [3]), 5).trace
            sel_perm = k_center_greedy(SelectionState(emb[perm], [int(inv[3])]), 5).trace
            assert [int(inv[i]) for i, _ in sel] == [i for i, _ in sel_perm]

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(6)
        emb = rng.standard_normal((15, 4))
        Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        moved = emb @ Q + rng.standard_normal(4)
        a = [i for i, _ in k_center_greedy(SelectionState(emb, [2]), 6).trace]
        b = [i for i, _ in k_center_greedy(SelectionState(moved, [2]), 6).trace]
        assert a == b


class TestGreedyContinuation:
    emb = np.random.default_rng(4).standard_normal((30, 3))

    @pytest.mark.parametrize("initial", [[], [11, 5]])
    def test_continued_state_matches_list_seed(self, initial):
        first = k_center_greedy(SelectionState(self.emb, initial), 4, cold_start_seed=1)
        labeled, trace = list(first.labeled), first.trace
        cont = k_center_greedy(first, 6, cold_start_seed=1)
        seeded = k_center_greedy(SelectionState(self.emb, labeled), 6, cold_start_seed=1)
        assert cont.trace == seeded.trace
        assert np.array_equal(cont.min_dist, seeded.min_dist)
        assert cont.labeled == sorted(labeled + [i for i, _ in cont.trace])
        whole = k_center_greedy(SelectionState(self.emb, initial), 10, cold_start_seed=1)
        assert trace + cont.trace == whole.trace

    def test_chained_rounds_match_one_call(self):
        state = k_center_greedy(SelectionState(self.emb), 0, cold_start_seed=7)
        picks = []
        for k in (1, 0, 3, 5):
            state = k_center_greedy(state, k, cold_start_seed=7)
            assert len(state.trace) == k
            picks += state.trace
        assert picks == k_center_greedy(SelectionState(self.emb), 9, cold_start_seed=7).trace
        assert float(state.min_dist.max()) == cover_radius(self.emb, state.labeled)

    def test_passed_state_is_extended_in_place(self):
        first = k_center_greedy(SelectionState(self.emb, [3]), 2)
        labeled, min_dist = list(first.labeled), first.min_dist
        cont = k_center_greedy(first, 4)
        assert cont is first and cont.min_dist is min_dist
        assert len(cont.trace) == 4
        assert cont.labeled == sorted(labeled + [i for i, _ in cont.trace])
        assert cont.trace == k_center_greedy(SelectionState(self.emb, labeled), 4).trace

    def test_continuations_reuse_the_norms_and_float32_copy(self, monkeypatch):
        calls = {"_sq_norms": 0, "_as_f32": 0}
        for name in calls:
            real = getattr(_kernels, name)

            def counted(X, name=name, real=real):
                calls[name] += 1
                return real(X)

            monkeypatch.setattr(_kernels, name, counted)
        state = SelectionState(self.emb)
        for k in (1, 3, 0, 5):
            assert k_center_greedy(state, k, cold_start_seed=2) is state
        assert calls == {"_sq_norms": 1, "_as_f32": 1}
        seeded = SelectionState(self.emb, set(state.labeled) - {i for i, _ in state.trace})
        assert state.trace == k_center_greedy(seeded, 5).trace

    def test_budget_counts_state_rows(self):
        state = k_center_greedy(SelectionState(self.emb), 28)
        with pytest.raises(ValueError):
            k_center_greedy(state, 3)
        k_center_greedy(state, 2)
        with pytest.raises(ValueError):
            k_center_greedy(state, 1)


class TestBruteForce:
    def test_line_instance(self):
        emb = np.array([[0.0], [1.0], [10.0]])
        radius, best = brute_force_k_center(emb, [0], 1)
        assert radius == 1.0
        assert best == [2]

    def test_full_budget_zero_radius(self):
        emb = np.random.default_rng(7).standard_normal((6, 2))
        radius, best = brute_force_k_center(emb, [0], 5)
        assert radius == 0.0
        assert sorted(best) == [1, 2, 3, 4, 5]

    def test_agrees_with_greedy_on_equally_spaced_line(self):
        # {0,1,2,3} with 0 labeled: greedy adds 3 and both radii are 1
        emb = np.arange(4, dtype=np.float64)[:, None]
        radius, _ = brute_force_k_center(emb, [0], 1)
        greedy = k_center_greedy(SelectionState(emb, [0]), 1)
        assert cover_radius(emb, greedy.labeled) == radius == 1.0

    @pytest.mark.parametrize("k", [-1, 6])
    def test_budget_outside_range_gives_range_and_value(self, k):
        emb = np.zeros((6, 1))
        with pytest.raises(ValueError) as info:
            brute_force_k_center(emb, [0], k)
        assert str(info.value) == (
            f"selection setting budget must lie in [0, 5] (the unlabeled rows), got {k}"
        )

    def test_initial_cover_uses_no_selection_state(self, monkeypatch):
        # the oracle must not run through the screen it checks
        from slicepick import checks

        def no_state(*args, **kwargs):
            raise AssertionError("brute force built a SelectionState")

        monkeypatch.setattr(checks, "SelectionState", no_state)
        emb = np.array([[0.0], [1.0], [4.0], [6.0], [10.0]])
        assert brute_force_k_center(emb, [0, 4], 1) == (2.0, [2])

    def test_instance_size_guard(self):
        emb = np.zeros((60, 1))
        with pytest.raises(ValueError):
            brute_force_k_center(emb, [], 10)

    def test_greedy_within_twice_optimal(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            n = int(rng.integers(4, 13))
            k = int(rng.integers(1, 5))
            emb = rng.standard_normal((n, int(rng.integers(1, 4))))
            init = [] if rng.random() < 0.5 else [int(rng.integers(n))]
            k = min(k, n - len(init))
            state = k_center_greedy(SelectionState(emb, init), k, cold_start_seed=0)
            opt, _ = brute_force_k_center(emb, init, k)
            assert cover_radius(emb, state.labeled) <= 2 * opt + 1e-12


class TestCoverRadius:
    def test_all_labeled_zero(self):
        emb = np.random.default_rng(9).standard_normal((5, 2))
        assert cover_radius(emb, range(5)) == 0.0

    def test_line_example(self):
        assert cover_radius(np.array([[0.0], [1.0], [10.0]]), [0, 2]) == 1.0

    def test_empty_labeled_rejected(self):
        with pytest.raises(ValueError):
            cover_radius(np.zeros((3, 1)), [])

    def test_matches_direct_recomputation(self):
        rng = np.random.default_rng(10)
        emb = rng.standard_normal((20, 3))
        labeled = [1, 7, 13]
        expected = max(
            min(np.linalg.norm(emb[i] - emb[j]) for j in labeled) for i in range(20)
        )
        assert cover_radius(emb, labeled) == expected


class TestSilhouette:
    def test_two_tight_separated_clusters(self):
        emb = np.array([[0.0, 0.0], [0.0, 0.0], [9.0, 9.0], [9.0, 9.0]])
        assert silhouette_score(emb, [0, 0, 1, 1]) == 1.0

    def test_all_identical_points(self):
        assert silhouette_score(np.zeros((6, 2)), [0, 0, 0, 1, 1, 1]) == 0.0

    def test_single_cluster_rejected(self):
        with pytest.raises(ValueError):
            silhouette_score(np.zeros((4, 2)), [1, 1, 1, 1])

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(5, 15))
            emb = rng.standard_normal((n, 3))
            labels = rng.integers(0, 3, size=n)
            if len(set(labels)) < 2:
                continue
            assert silhouette_score(emb, labels) == pytest.approx(
                ref_silhouette(emb, labels), abs=1e-12
            )

    def test_bits_match_per_row_loop(self):
        # singletons, coincident points and 2-40 clusters of up to 480 rows
        rng = np.random.default_rng(14)
        for trial in range(30):
            n = int(rng.integers(3, 481)) if trial % 3 else int(rng.integers(3, 40))
            k = int(rng.integers(2, min(n, 40) + 1))
            labels = rng.integers(0, k, size=n)
            labels[:2] = [0, 1]
            labels[rng.random(n) < 0.05] = k  # a few extra, often tiny clusters
            emb = rng.standard_normal((n, int(rng.integers(1, 33))))
            emb[rng.random(n) < 0.2] = emb[0]  # coincident rows
            if trial % 5 == 0:
                emb = np.round(emb)
            got = silhouette_score(emb, labels)
            assert got == loop_silhouette(emb, labels)
            if n < 60:  # the pure-python oracle is O(n^2 k)
                assert got == pytest.approx(ref_silhouette(emb, labels), abs=1e-12)

    def test_singletons_and_coincident_clusters(self):
        emb = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [5.0, 5.0], [5.0, 5.0]])
        labels = [0, 0, 1, 2, 3]
        assert silhouette_score(emb, labels) == loop_silhouette(emb, labels) == 0.4


class TestKmeans:
    def test_deterministic(self):
        emb = np.random.default_rng(12).standard_normal((30, 4))
        a = kmeans_labels(emb, 4, seed=3)
        b = kmeans_labels(emb, 4, seed=3)
        assert np.array_equal(a, b)

    def test_recovers_separated_blobs(self):
        rng = np.random.default_rng(13)
        centers = np.array([[0.0, 0.0], [20.0, 0.0], [0.0, 20.0]])
        emb = np.vstack([c + 0.1 * rng.standard_normal((10, 2)) for c in centers])
        labels = kmeans_labels(emb, 3, seed=0)
        blocks = [set(labels[i * 10 : (i + 1) * 10]) for i in range(3)]
        assert all(len(b) == 1 for b in blocks)
        assert len(set().union(*blocks)) == 3
