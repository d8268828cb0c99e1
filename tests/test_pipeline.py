import json
import os

import numpy as np
import pytest

from slicepick import (
    LossConfig,
    RoundPlan,
    SynthSpec,
    TrainConfig,
    budgets,
    generate_synthetic,
    probe_accuracy,
    run_ablation,
    run_experiment,
)
from slicepick.checks import brute_force_nearest

# chi-square upper critical value, 19 dof, p = 0.001
CHI2_CRIT_19 = 43.82


def small_experiment_ds():
    spec = SynthSpec(
        n_patients=6, volumes_per_patient=1, slices_per_volume=4, h=3, w=3,
        class_count=4, seed=20,
    )
    return generate_synthetic(spec)


KINDS = ["random", "coreset_raw", "coreset_learned"]


def learned_space_settings(epochs=2):
    """``run_experiment``'s settings of the learned space."""
    return dict(
        loss=LossConfig(tau=0.1, ntxent=1.0, patient=0.05, volume=0.35, slice_group=0),
        train=TrainConfig(epochs=epochs, hidden=(8,), rep_dim=4, proj_dim=3),
    )


class TestBudgets:
    def test_large_pool_rounding(self):
        plan = RoundPlan(fractions=(0.02,))
        assert budgets(plan, 1448) == [29]

    def test_exact_fractions(self):
        plan = RoundPlan(fractions=(0.02, 0.03))
        assert budgets(plan, 100) == [2, 3]

    def test_clamped_to_one(self):
        plan = RoundPlan(fractions=(0.02,))
        assert budgets(plan, 10) == [1]

    def test_nondecreasing_and_bounded(self):
        plan = RoundPlan()
        for n in (1, 7, 53, 480, 1448):
            b = budgets(plan, n)
            assert all(x >= 1 for x in b)
            assert all(y >= x for x, y in zip(b, b[1:]))
            assert b[-1] <= n

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            RoundPlan(fractions=(0.3, 0.2))
        with pytest.raises(ValueError):
            RoundPlan(fractions=(0.0, 0.2))
        with pytest.raises(ValueError):
            RoundPlan(fractions=())
        with pytest.raises(ValueError):
            RoundPlan(n_repeats=0)


class TestProbe:
    def test_fully_labeled_is_one(self):
        X = np.random.default_rng(0).standard_normal((5, 3))
        assert probe_accuracy(X, range(5), [0, 1, 0, 1, 0]) == 1.0

    def test_separable_constant_classes(self):
        X = np.array([[0.0], [0.0], [0.0], [9.0], [9.0], [9.0]])
        y = [0, 0, 0, 1, 1, 1]
        assert probe_accuracy(X, [0, 3], y) == 1.0

    def test_empty_labeled_rejected(self):
        with pytest.raises(ValueError):
            probe_accuracy(np.zeros((3, 1)), [], [0, 1, 0])

    def test_random_labels_near_chance(self):
        # geometry-independent labels: expected accuracy 1/k
        rng = np.random.default_rng(1)
        k = 4
        accs = []
        for _ in range(10):
            X = rng.standard_normal((500, 4))
            y = rng.integers(0, k, size=500)
            labeled = rng.choice(500, size=50, replace=False)
            accs.append(probe_accuracy(X, labeled, y))
        mean = float(np.mean(accs))
        # 10 x 450 Bernoulli(1/4) trials: sd of the mean ~ 0.0065
        assert abs(mean - 1.0 / k) < 5 * 0.0065


class TestRunExperiment:
    def run_small(self, threads=1, repeats=2):
        ds, labels = small_experiment_ds()
        plan = RoundPlan(fractions=(0.1, 0.2, 0.5), n_repeats=repeats, seed=9)
        return run_experiment(
            ds, labels, KINDS, plan, **learned_space_settings(), threads=threads
        )

    def test_deterministic_and_thread_invariant(self):
        a = self.run_small(threads=1)
        b = self.run_small(threads=3)
        assert a.to_json() == b.to_json()
        assert a.summary_csv() == b.summary_csv()

    def test_one_repeat_is_thread_invariant(self):
        # one training, then three cells: the pools of 2 and 3 workers must
        # give the serial bytes
        serial = self.run_small(threads=1, repeats=1)
        for threads in (2, 3):
            pooled = self.run_small(threads=threads, repeats=1)
            assert pooled.to_json() == serial.to_json()
            assert pooled.summary_csv() == serial.summary_csv()

    def test_nested_selections(self):
        report = self.run_small()
        for strategy in report.strategies:
            for repeat in range(report.n_repeats):
                prev = None
                for r in range(len(report.fractions)):
                    sel = report.entry(strategy, repeat, r).selected
                    assert len(sel) == report.budgets[r]
                    if prev is not None:
                        assert sel[: len(prev)] == prev
                    prev = sel

    def test_delta_non_increasing_for_coreset(self):
        report = self.run_small()
        for strategy in ("coreset_raw", "coreset_learned"):
            for repeat in range(report.n_repeats):
                deltas = [
                    report.entry(strategy, repeat, r).delta
                    for r in range(len(report.fractions))
                ]
                assert all(d is not None for d in deltas)
                assert all(b <= a + 1e-12 for a, b in zip(deltas, deltas[1:]))

    def test_probe_computed_in_raw_pixel_space(self):
        # against a loop over direct pixel differences, not the 1-NN search
        # that probe_accuracy shares with the greedy's screen
        ds, labels = small_experiment_ds()
        report = self.run_small()
        X = ds.pixel_matrix()
        row_of = {sid: i for i, sid in enumerate(ds.ids[:, 0].tolist())}
        for e in report.entries:
            rows = [row_of[s] for s in e.selected]
            nearest = brute_force_nearest(X, rows)
            unlabeled = np.setdiff1d(np.arange(ds.n), rows)
            want = float(np.mean(labels[nearest[unlabeled]] == labels[unlabeled]))
            assert e.probe_accuracy == want

    def test_random_has_no_delta_but_learned_space_radius(self):
        report = self.run_small()
        e = report.entry("random", 0, 0)
        assert e.delta is None
        assert e.delta_learned is not None

    def test_deltas_equal_cover_radius_recomputed(self, monkeypatch):
        # the running covers must give exactly what cover_radius gives from
        # scratch, for every strategy kind
        from slicepick import pipeline
        from slicepick.checks import cover_radius

        spaces = []
        real_embed_all = pipeline.embed_all

        def recording_embed_all(params, ds):
            spaces.append(real_embed_all(params, ds))
            return spaces[-1]

        monkeypatch.setattr(pipeline, "embed_all", recording_embed_all)
        ds, labels = small_experiment_ds()
        plan = RoundPlan(fractions=(0.05, 0.06, 0.3, 0.6), n_repeats=2, seed=3)
        report = run_experiment(ds, labels, KINDS, plan, **learned_space_settings())
        assert report.budgets == [1, 1, 7, 14]
        X = ds.pixel_matrix()
        row_of = {sid: i for i, sid in enumerate(ds.ids[:, 0].tolist())}
        assert len(spaces) == plan.n_repeats
        for e in report.entries:
            learned = spaces[e.repeat]
            space = {"random": None, "coreset_raw": X, "coreset_learned": learned}[e.strategy]
            rows = [row_of[s] for s in e.selected]
            if space is None:
                assert e.delta is None
            else:
                assert e.delta == cover_radius(space, rows)
            assert e.delta_learned == cover_radius(learned, rows)

    def test_json_excludes_wall_time(self):
        report = self.run_small()
        doc = json.loads(report.to_json())
        assert all("wall" not in key for key in doc["entries"][0])
        assert report.entries[0].wall_time_s >= 0

    def test_duplicate_strategy_names_rejected(self):
        ds, labels = small_experiment_ds()
        with pytest.raises(ValueError):
            run_experiment(
                ds, labels,
                ["random", "random"],
                RoundPlan(fractions=(0.5,), n_repeats=1),
            )

    def test_no_strategies_rejected(self):
        from slicepick import SettingError

        ds, labels = small_experiment_ds()
        message = "experiment setting strategies must hold at least one strategy, got []"
        with pytest.raises(SettingError) as info:
            run_experiment(ds, labels, [], RoundPlan(fractions=(0.5,), n_repeats=1))
        assert str(info.value) == message

    def test_unknown_kind_rejected(self):
        from slicepick import SettingError

        ds, labels = small_experiment_ds()
        with pytest.raises(SettingError) as info:
            run_experiment(ds, labels, ["random", "bogus"], RoundPlan(fractions=(0.5,)))
        assert info.value.setting == "strategies"
        assert str(info.value) == (
            "experiment setting strategies must hold only the kinds random, coreset_raw, "
            "coreset_learned, got ['random', 'bogus']"
        )

    def test_learned_space_needs_a_loss(self):
        ds, labels = small_experiment_ds()
        with pytest.raises(ValueError, match="coreset_learned requires a loss config"):
            run_experiment(ds, labels, ["coreset_learned"], RoundPlan(fractions=(0.5,)))

    def test_label_alignment_checked(self):
        ds, labels = small_experiment_ds()
        with pytest.raises(ValueError):
            run_experiment(
                ds, labels[:-1], ["random"],
                RoundPlan(fractions=(0.5,), n_repeats=1),
            )

    def test_full_budget_round_scores_one(self):
        ds, labels = small_experiment_ds()
        plan = RoundPlan(fractions=(1.0,), n_repeats=1, seed=4)
        report = run_experiment(ds, labels, ["random"], plan)
        assert report.entry("random", 0, 0).probe_accuracy == 1.0
        assert len(report.entry("random", 0, 0).selected) == ds.n

    def test_random_selection_uniformity(self):
        # 1000 repeats drawing 5 of 20 slices: per-slice selection counts
        # pass a chi-square uniformity check at p > 0.001
        spec = SynthSpec(
            n_patients=5, volumes_per_patient=1, slices_per_volume=4, h=2, w=2,
            class_count=2, seed=0,
        )
        ds, labels = generate_synthetic(spec)
        plan = RoundPlan(fractions=(0.25,), n_repeats=1000, seed=17)
        report = run_experiment(ds, labels, ["random"], plan)
        counts = np.zeros(ds.n)
        for e in report.entries:
            for sid in e.selected:
                counts[sid] += 1
        expected = 1000 * 5 / 20
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        assert chi2 < CHI2_CRIT_19


class TestProbePath:
    """Every round probes once, with a state over the pixel matrix: the
    selection's own for a selection made in that matrix, which then holds
    every labeled row already, and a cell's or an ablation row's own
    otherwise."""

    @pytest.fixture
    def probes(self, monkeypatch):
        from slicepick import pipeline

        calls = []  # (args, rows the state held before the call, after it)
        real = pipeline.probe_accuracy

        def counted(*args):
            held = len(args[3].labeled)
            acc = real(*args)
            calls.append((args, held, len(args[3].labeled)))
            return acc

        monkeypatch.setattr(pipeline, "probe_accuracy", counted)
        return calls

    @pytest.mark.parametrize(
        "kind,extends", [("random", 1), ("coreset_raw", 0), ("coreset_learned", 1)]
    )
    def test_each_round_of_a_kind(self, probes, kind, extends):
        ds, labels = small_experiment_ds()
        plan = RoundPlan(fractions=(0.1, 0.2, 0.5), n_repeats=2, seed=9)
        run_experiment(ds, labels, [kind], plan, **learned_space_settings(epochs=1))
        assert len(probes) == plan.n_repeats * len(plan.fractions)
        for args, held, after in probes:
            assert args[0] is ds.pixel_matrix() and args[3].emb is ds.pixel_matrix()
            assert after == len(set(args[1]))
            assert (after > held) == bool(extends)

    def test_each_ablation_row(self, probes):
        ds, labels = small_experiment_ds()
        settings = learned_space_settings(epochs=1)
        loss_cfgs = [None, settings["loss"], LossConfig(ntxent=1.0)]
        rows = run_ablation(ds, labels, loss_cfgs[:1], settings["train"], 0.2, 5)
        assert len(probes) == 1 and probes[0][1] == probes[0][2]
        assert run_ablation(ds, labels, loss_cfgs, settings["train"], 0.2, 5)[0] == rows[0]
        assert len(probes) == 4
        assert [held for _, held, _ in probes[2:]] == [0, 0]
        assert all(args[0] is ds.pixel_matrix() for args, _, _ in probes)


class TestRepeatWorkers:
    KINDS = ["random", "coreset_learned"]

    def settings(self, **train_kw):
        base = dict(epochs=1, hidden=(6,), rep_dim=3, proj_dim=2)
        base.update(train_kw)
        return dict(
            loss=LossConfig(tau=0.5, ntxent=1.0, patient=0.05, volume=0.35),
            train=TrainConfig(**base),
        )

    def test_pool_never_exceeds_its_phase_task_count(self, monkeypatch):
        import concurrent.futures

        from slicepick import pipeline

        asked = []
        # the inline pool runs its initializer here, in the test's process
        monkeypatch.setattr(pipeline, "_worker_fn", None)

        class InlinePool:
            def __init__(self, max_workers, mp_context, initializer, initargs):
                asked.append((max_workers, mp_context.get_start_method()))
                initializer(*initargs)

            def map(self, fn, items):
                return map(fn, items)

            def shutdown(self, cancel_futures=False):
                pass

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        ds, labels = small_experiment_ds()
        plan = RoundPlan(fractions=(0.1, 0.5), n_repeats=2, seed=1)
        serial = run_experiment(ds, labels, self.KINDS, plan, **self.settings(), threads=1)
        assert asked == []
        # 2 trainings, then 2 kinds x 2 repeats = 4 cells
        for threads, pools in [(8, [(2, "fork"), (4, "fork")]), (3, [(2, "fork"), (3, "fork")])]:
            asked.clear()
            pooled = run_experiment(
                ds, labels, self.KINDS, plan, **self.settings(), threads=threads
            )
            assert asked == pools
            assert pooled.to_json() == serial.to_json()

    def test_a_task_pickles_only_its_kind_and_repeat(self, monkeypatch):
        # forked workers inherit the dataset; at 32 x 32 float32 pixels its
        # matrix is 256 KB, which a task carrying it would exceed
        from multiprocessing.reduction import ForkingPickler

        ds, labels = generate_synthetic(SynthSpec(
            n_patients=4, volumes_per_patient=2, slices_per_volume=8, h=32, w=32, seed=6,
        ))
        assert ds.pixel_matrix().nbytes >= 256 * 1024
        sizes = []
        dumps = ForkingPickler.dumps

        def counted_dumps(obj, protocol=None):
            data = dumps(obj, protocol)
            sizes.append(len(data))
            return data

        strategies = ["random", "coreset_raw"]
        plan = RoundPlan(fractions=(0.1, 0.5), n_repeats=2, seed=2)
        with monkeypatch.context() as m:
            m.setattr(ForkingPickler, "dumps", staticmethod(counted_dumps))
            pooled = run_experiment(ds, labels, strategies, plan, threads=2)
        assert sizes and max(sizes) < 4096
        assert pooled.to_json() == run_experiment(ds, labels, strategies, plan).to_json()

    def test_single_repeat_runs_without_a_pool(self, monkeypatch):
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started for one repeat")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        ds, labels = small_experiment_ds()
        plan = RoundPlan(fractions=(0.5,), n_repeats=1)
        run_experiment(ds, labels, ["random"], plan, threads=4)

    @pytest.mark.parametrize("threads", [0, -1])
    def test_threads_below_one_rejected(self, threads):
        ds, labels = small_experiment_ds()
        with pytest.raises(ValueError, match="threads"):
            run_experiment(
                ds, labels, ["random"],
                RoundPlan(fractions=(0.5,), n_repeats=2), threads=threads,
            )

    def test_worker_error_keeps_its_type_and_message(self):
        from slicepick import SettingError

        ds, labels = small_experiment_ds()
        plan = RoundPlan(fractions=(0.5,), n_repeats=2)
        with pytest.raises(SettingError, match="batch_size must be a multiple of .*, got 7$"):
            run_experiment(
                ds, labels, self.KINDS, plan, **self.settings(batch_size=7), threads=2
            )

    def test_dead_worker_is_a_slicepick_error(self, monkeypatch):
        from slicepick import SlicepickError, pipeline

        parent = os.getpid()

        def die_in_worker(*args, **kwargs):
            assert os.getpid() != parent, "training ran in the calling process"
            os._exit(3)

        monkeypatch.setattr(pipeline, "train", die_in_worker)
        ds, labels = small_experiment_ds()
        plan = RoundPlan(fractions=(0.5,), n_repeats=2)
        with pytest.raises(SlicepickError, match="worker process died"):
            run_experiment(ds, labels, self.KINDS, plan, **self.settings(), threads=2)
