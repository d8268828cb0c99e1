"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured figures (run with ``pytest tests/test_acceptance.py -v -s``).

The reference synthetic dataset is 20 patients x 2 volumes x 12 slices of
16x16 pixels with 8 classes; scales put volume identity well above the
depth drift and noise so that coverage-driven selection is measurably
better than chance.
"""

import time

import numpy as np
import pytest

from conftest import (
    random_structured_batch,
    ref_group_deviation,
    ref_group_loss_from_batch,
    ref_ntxent,
)
from slicepick import (
    LossConfig,
    RoundPlan,
    SelectionState,
    SynthSpec,
    TrainConfig,
    brute_force_k_center,
    embed_all,
    generate_synthetic,
    group_deviation,
    k_center_greedy,
    kmeans_labels,
    run_experiment,
    silhouette_score,
    train,
)
from slicepick.checks import cover_radius, fd_loss_grad, max_rel_err, validate_plan
from slicepick.cli import main
from slicepick.encoder import _backward_batch, _forward_batch, init_params
from slicepick.encoder import Architecture
from slicepick.losses import LossBatch, combined_loss, loss_and_grad
from slicepick.sampler import build_epoch, default_batch_size, tuple_width

REFERENCE_SPEC = SynthSpec(
    n_patients=20,
    volumes_per_patient=2,
    slices_per_volume=12,
    h=16,
    w=16,
    class_count=8,
    patient_scale=0.4,
    volume_scale=1.0,
    adjacent_scale=0.3,
    noise_scale=0.05,
    seed=0,
)

BEST_WEIGHTS = LossConfig(tau=0.1, ntxent=1.0, patient=0.05, volume=0.35, slice_group=0)
NTXENT_ONLY = LossConfig(tau=0.1, ntxent=1.0, patient=0, volume=0, slice_group=0)


def report(criterion, detail):
    print(f"\n[criterion {criterion}] PASS {detail}")


@pytest.fixture(scope="module")
def reference_data():
    return generate_synthetic(REFERENCE_SPEC)


def test_criterion_1_loss_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        batch, ids = random_structured_batch(
            rng,
            n_pairs=int(rng.integers(2, 7)),
            dim=int(rng.integers(3, 8)),
            n_patients=int(rng.integers(2, 4)),
            n_volumes=int(rng.integers(1, 4)),
        )
        tau = float(rng.choice([0.1, 0.5, 1.0]))
        cfg = LossConfig(
            tau=tau,
            ntxent=float(rng.integers(0, 2)),
            patient=float(rng.uniform(0, 1)),
            volume=float(rng.uniform(0, 1)),
            slice_group=float(rng.uniform(0, 1)),
        )
        z = [list(row) for row in batch.z]
        expected = (
            cfg.ntxent * ref_ntxent(z, tau)
            + cfg.patient * ref_group_loss_from_batch(batch, ids, "patient", tau)
            + cfg.volume * ref_group_loss_from_batch(batch, ids, "volume", tau)
            + cfg.slice_group * ref_group_loss_from_batch(batch, ids, "slice", tau)
        )
        worst = max(worst, abs(combined_loss(batch, cfg) - expected))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-10
    assert elapsed < 30
    report(1, f"loss vs brute force: max abs err {worst:.2e} on 200 batches ({elapsed:.1f}s)")


def test_criterion_2_gradient_fidelity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst_loss_grad = 0.0
    for _ in range(20):
        batch, _ = random_structured_batch(
            rng, n_pairs=int(rng.integers(2, 7)), dim=int(rng.integers(3, 9))
        )
        cfg = LossConfig(
            tau=float(rng.choice([0.1, 0.5, 1.0])),
            ntxent=1.0,
            patient=float(rng.uniform(0.02, 0.5)),
            volume=float(rng.uniform(0.02, 0.5)),
            slice_group=float(rng.uniform(0.0, 0.3)),
        )
        err = max_rel_err(loss_and_grad(batch, cfg)[1], fd_loss_grad(batch, cfg))
        worst_loss_grad = max(worst_loss_grad, err)
    assert worst_loss_grad < 1e-4

    worst_backprop = 0.0
    for case in range(5):
        arch = Architecture(
            input_dim=int(rng.integers(4, 8)),
            hidden=(int(rng.integers(3, 6)), int(rng.integers(3, 6))),
            rep_dim=int(rng.integers(3, 5)),
            proj_dim=3,
        )
        params = init_params(arch, int(rng.integers(2 ** 31)))
        batch0, _ = random_structured_batch(rng, n_pairs=3, dim=arch.input_dim)
        X = batch0.z
        cfg = LossConfig(tau=0.5, ntxent=1.0, patient=0.05, volume=0.35, slice_group=0.1)

        def loss_of():
            _, proj, _ = _forward_batch(params, X)
            return combined_loss(LossBatch(proj, batch0.structure), cfg)

        _, proj, cache = _forward_batch(params, X)
        _, dz = loss_and_grad(LossBatch(proj, batch0.structure), cfg)
        g_w, g_b = _backward_batch(params, cache, dz)
        h = 1e-5
        for li in range(len(params.weights)):
            for tensors, grads in ((params.weights, g_w), (params.biases, g_b)):
                t = tensors[li]
                for idx in np.ndindex(t.shape):
                    orig = t[idx]
                    t[idx] = orig + h
                    lp = loss_of()
                    t[idx] = orig - h
                    lm = loss_of()
                    t[idx] = orig
                    worst_backprop = max(
                        worst_backprop, max_rel_err(grads[li][idx], (lp - lm) / (2 * h))
                    )
    elapsed = time.perf_counter() - t0
    assert worst_backprop < 1e-4
    assert elapsed < 120
    report(
        2,
        f"grad fidelity: loss gradient {worst_loss_grad:.2e}, "
        f"backprop {worst_backprop:.2e} (tol 1e-4, {elapsed:.1f}s)",
    )


def test_criterion_3_two_opt():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    worst_ratio = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 13))
        k = int(rng.integers(1, 5))
        emb = rng.standard_normal((n, int(rng.integers(1, 4))))
        n_init = int(rng.integers(0, 3))
        initial = list(rng.choice(n, size=n_init, replace=False))
        k = min(k, n - n_init)
        greedy = k_center_greedy(
            SelectionState(emb, initial), k, cold_start_seed=int(rng.integers(2 ** 31))
        )
        radius = cover_radius(emb, greedy.labeled)
        opt_radius, _ = brute_force_k_center(emb, initial, k)
        assert radius <= 2 * opt_radius + 1e-12
        if opt_radius > 0:
            worst_ratio = max(worst_ratio, radius / opt_radius)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    report(3, f"greedy within 2x optimal on 100 instances; worst ratio "
              f"{worst_ratio:.4f} ({elapsed:.1f}s)")


def test_criterion_4_sampler_invariants():
    t0 = time.perf_counter()
    # stated configuration arithmetic: 8 slices for one or three groups
    # (widths 2 and 4), 9 for two groups (width 3)
    assert tuple_width({"slice"}) == 2 and default_batch_size({"slice"}) == 8
    assert (
        tuple_width({"slice", "volume"}) == 3
        and default_batch_size({"slice", "volume"}) == 9
    )
    assert (
        tuple_width({"slice", "volume", "patient"}) == 4
        and default_batch_size({"slice", "volume", "patient"}) == 8
    )

    rng = np.random.default_rng(404)
    group_settings = (
        {"slice"},
        {"slice", "volume"},
        {"slice", "volume", "patient"},
        {"volume", "patient"},
    )
    for i in range(50):
        spec = SynthSpec(
            n_patients=int(rng.integers(3, 9)),
            volumes_per_patient=int(rng.integers(1, 3)),
            slices_per_volume=int(rng.integers(2, 7)),
            h=2,
            w=2,
            seed=int(rng.integers(2 ** 31)),
        )
        ds, _ = generate_synthetic(spec)
        groups = group_settings[i % len(group_settings)]
        batch_size = default_batch_size(groups, n_patients=spec.n_patients)
        plan = build_epoch(ds, groups, batch_size, seed=int(rng.integers(2 ** 31)))
        validate_plan(ds, plan, groups)
        anchors = plan.batches[:, :, 0].ravel().tolist()
        assert len(anchors) == len(set(anchors))
        assert plan.batches.shape[1] * plan.batches.shape[2] == batch_size
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    report(4, f"sampler invariants clean on 50 datasets ({elapsed:.1f}s)")


def test_criterion_5_training_descent(reference_data):
    t0 = time.perf_counter()
    ds, _ = reference_data
    outcomes = []
    for name, cfg in (("ntxent-only", NTXENT_ONLY), ("(1,0.05,0.35,0)", BEST_WEIGHTS)):
        for seed in range(3):
            result = train(ds, cfg, TrainConfig(epochs=30, seed=seed))
            first, last = result.epoch_losses[0], result.epoch_losses[29]
            assert last < first, f"{name} seed {seed}: {first} -> {last}"
            outcomes.append(f"{name}/s{seed}: {first:.3f}->{last:.3f}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    report(5, f"descent 6/6 runs ({elapsed:.1f}s): " + "; ".join(outcomes))


def test_criterion_6_label_efficiency(reference_data):
    t0 = time.perf_counter()
    ds, labels = reference_data
    kinds = ["random", "coreset_raw", "coreset_learned"]
    plan = RoundPlan(n_repeats=5, seed=123)
    rep = run_experiment(
        ds, labels, kinds, plan, loss=BEST_WEIGHTS, train=TrainConfig(epochs=40), threads=2
    )
    five_pct = plan.fractions.index(0.05)
    n_rounds = len(plan.fractions)

    acc_learned = rep.mean_over_repeats("coreset_learned", five_pct, "probe_accuracy")
    acc_random = rep.mean_over_repeats("random", five_pct, "probe_accuracy")
    per_repeat_acc = sum(
        rep.entry("coreset_learned", r, five_pct).probe_accuracy
        >= rep.entry("random", r, five_pct).probe_accuracy
        for r in range(plan.n_repeats)
    )
    acc_ok = (acc_learned >= acc_random) or (per_repeat_acc >= 4)
    assert acc_ok, f"learned {acc_learned} vs random {acc_random}"

    delta_ok_repeats = sum(
        all(
            rep.entry("coreset_learned", r, rd).delta_learned
            <= rep.entry("coreset_raw", r, rd).delta_learned + 1e-12
            for rd in range(n_rounds)
        )
        for r in range(plan.n_repeats)
    )
    assert delta_ok_repeats >= 4, f"delta ordering holds in {delta_ok_repeats}/5"
    elapsed = time.perf_counter() - t0
    assert elapsed < 600
    report(
        6,
        f"5% probe accuracy learned {acc_learned:.4f} >= random {acc_random:.4f} "
        f"({per_repeat_acc}/5 repeats); learned-space radius ordering in "
        f"{delta_ok_repeats}/5 repeats ({elapsed:.1f}s)",
    )


def test_criterion_7_cluster_quality(reference_data):
    t0 = time.perf_counter()
    ds, _ = reference_data
    n_vol = len(ds.volume_bounds) - 1
    volume_cfg = LossConfig(tau=0.1, ntxent=0, patient=0, volume=1.0, slice_group=0)
    wins = 0
    sils = []
    for seed in range(3):
        emb_group = embed_all(
            train(ds, volume_cfg, TrainConfig(epochs=40, seed=seed)).params, ds
        )
        emb_ntxent = embed_all(
            train(ds, NTXENT_ONLY, TrainConfig(epochs=40, seed=seed)).params, ds
        )
        sil_group = silhouette_score(emb_group, kmeans_labels(emb_group, n_vol, seed=seed))
        sil_ntxent = silhouette_score(
            emb_ntxent, kmeans_labels(emb_ntxent, n_vol, seed=seed)
        )
        sils.append((sil_group, sil_ntxent))
        wins += sil_group > sil_ntxent
    mean_group = float(np.mean([a for a, _ in sils]))
    mean_ntxent = float(np.mean([b for _, b in sils]))
    assert wins >= 2, f"group loss won {wins}/3 seeds: {sils}"
    elapsed = time.perf_counter() - t0
    report(
        7,
        f"silhouette group-loss {mean_group:.4f} vs ntxent {mean_ntxent:.4f}, "
        f"{wins}/3 seeds ({elapsed:.1f}s)",
    )


def test_criterion_8_deviation_statistic():
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(10):
        spec = SynthSpec(
            n_patients=int(rng.integers(1, 4)),
            volumes_per_patient=int(rng.integers(1, 3)),
            slices_per_volume=int(rng.integers(1, 5)),
            h=2,
            w=3,
            seed=int(rng.integers(2 ** 31)),
        )
        ds, _ = generate_synthetic(spec)
        assert ds.n <= 50
        for grouping in ("dataset", "patient", "volume", "adjacent"):
            expected = ref_group_deviation(ds, grouping)
            if expected is None:
                continue
            err = abs(group_deviation(ds, grouping) - expected)
            worst = max(worst, err)
            assert err < 1e-12

    for seed in range(5):
        spec = SynthSpec(
            n_patients=4,
            volumes_per_patient=2,
            slices_per_volume=6,
            h=4,
            w=4,
            patient_scale=0.4,
            volume_scale=1.0,
            adjacent_scale=0.3,
            noise_scale=0.05,
            seed=seed,
        )
        ds, _ = generate_synthetic(spec)
        d_all = group_deviation(ds, "dataset")
        d_vol = group_deviation(ds, "volume")
        d_adj = group_deviation(ds, "adjacent")
        assert d_all > d_vol > d_adj, f"seed {seed}: {d_all}, {d_vol}, {d_adj}"
    elapsed = time.perf_counter() - t0
    report(
        8,
        f"deviation vs brute force max err {worst:.2e} (tol 1e-12); "
        f"ordering dataset>volume>adjacent 5/5 seeds ({elapsed:.1f}s)",
    )


def test_criterion_9_determinism(tmp_path):
    t0 = time.perf_counter()
    data_dir = tmp_path / "data"
    assert main(
        [
            "gen-data", "--out", str(data_dir), "--patients", "6",
            "--volumes-per-patient", "2", "--slices-per-volume", "4",
            "--height", "4", "--width", "4", "--classes", "4", "--seed", "31",
        ]
    ) == 0
    common = [
        "run-rounds", "--data", str(data_dir), "--repeats", "2",
        "--fractions", "0.1,0.25,0.5", "--epochs", "3", "--hidden", "12",
        "--rep-dim", "6", "--proj-dim", "4", "--seed", "77",
    ]
    assert main(common + ["--out", str(tmp_path / "t1"), "--threads", "1"]) == 0
    assert main(common + ["--out", str(tmp_path / "t4"), "--threads", "4"]) == 0
    r1 = (tmp_path / "t1" / "report.json").read_bytes()
    r4 = (tmp_path / "t4" / "report.json").read_bytes()
    s1 = (tmp_path / "t1" / "summary.csv").read_bytes()
    s4 = (tmp_path / "t4" / "summary.csv").read_bytes()
    assert r1 == r4
    assert s1 == s4
    elapsed = time.perf_counter() - t0
    report(9, f"run-rounds byte-identical across --threads 1/4 ({elapsed:.1f}s)")
