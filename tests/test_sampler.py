import os
import re
import subprocess
import sys
from pathlib import Path

from collections import Counter

import numpy as np
import pytest

import slicepick
from conftest import (
    make_dataset,
    plan_slice_ids,
    simulate_build_epoch,
    two_patient_dataset,
    uneven_dataset,
)
from slicepick import SamplerError, SettingError, SynthSpec, gcle, generate_synthetic
from slicepick.checks import validate_plan
from slicepick.sampler import _compose, build_epoch, default_batch_size, tuple_width


def assert_plan_invariants(ds, plan, groups, expect_all_anchors=None):
    width = 1 + len(groups)
    meta = gcle.records_from_ids(ds.ids)
    volume_size = Counter(r["volume_id"] for r in meta)
    assert plan.batches.dtype == np.int64 and plan.batches.ndim == 3
    assert plan.groups == tuple(g for g in ("slice", "volume", "patient") if g in groups)
    anchors = []
    for batch in plan.batches.tolist():
        assert len(batch) * width == plan.batch_size_slices
        pids = [meta[t[0]]["patient_id"] for t in batch]
        assert len(set(pids)) == len(pids)
        for t in batch:
            anchors.append(t[0])
            assert len(t) == width
            a = meta[t[0]]
            for group_type, row in zip(plan.groups, t[1:]):
                c = meta[row]
                if group_type == "slice":
                    if row == t[0]:
                        assert volume_size[a["volume_id"]] == 1
                    else:
                        assert c["volume_id"] == a["volume_id"]
                        assert abs(c["slice_index"] - a["slice_index"]) == 1
                elif group_type == "volume":
                    assert c["volume_id"] == a["volume_id"] and row != t[0]
                elif group_type == "patient":
                    assert c["patient_id"] == a["patient_id"] and row != t[0]
    assert len(anchors) == len(set(anchors))
    if expect_all_anchors:
        assert sorted(anchors) == list(range(ds.n))


class TestTupleWidth:
    def test_values(self):
        assert tuple_width(set()) == 1
        assert tuple_width({"slice", "volume"}) == 3
        assert tuple_width({"slice", "volume", "patient"}) == 4

    def test_unknown_group(self):
        with pytest.raises(ValueError):
            tuple_width({"slice", "bogus"})


class TestDefaultBatchSize:
    def test_stock_configuration(self):
        # 8 slices for one or three groups, 9 for two
        assert default_batch_size({"volume"}) == 8
        assert default_batch_size({"volume", "patient"}) == 9
        assert default_batch_size({"slice", "volume", "patient"}) == 8
        assert default_batch_size(set()) == 8

    def test_patient_cap(self):
        assert default_batch_size(set(), n_patients=3) == 3
        assert default_batch_size({"volume"}, n_patients=2) == 4


class TestBuildEpoch:
    def two_by_two(self):
        # 2 patients x 1 volume x 2 slices
        return make_dataset(
            [(0, 0, 2), (1, 1, 2)], [[0.0], [1.0], [2.0], [3.0]], h=1, w=1
        )

    def test_two_patient_instance(self):
        # 4 anchors -> 4 width-3 tuples, one per patient per batch: two
        # batches of exactly 6 slices
        ds = self.two_by_two()
        plan = build_epoch(ds, {"slice", "volume"}, 6, seed=0)
        assert plan.batch_size_slices == 6
        assert len(plan.batches) == 2
        assert_plan_invariants(ds, plan, {"slice", "volume"}, expect_all_anchors=True)

    def test_single_patient_cannot_fill_two_tuple_batch(self):
        ds = make_dataset([(0, 0, 2)], [[0.0], [1.0]], h=1, w=1)
        width = 3
        plan = build_epoch(ds, {"slice", "volume"}, 2 * width, seed=0)
        assert plan.batches.shape == (0, 2, width)
        plan = build_epoch(ds, {"slice", "volume"}, width, seed=0)
        assert len(plan.batches) == 2  # one single-tuple batch per anchor
        assert all(len(b) == 1 for b in plan.batches)

    def test_single_slice_dataset_one_batch_of_one_tuple(self):
        ds = make_dataset([(0, 0, 1)], [[0.0]], h=1, w=1)
        plan = build_epoch(ds, {"slice"}, 2, seed=0)
        assert len(plan.batches) == 1
        assert plan.batches.tolist() == [[[0, 0]]]  # self-fallback view pair

    def test_stock_batch_arithmetic(self, tiny_ds):
        ds, _ = tiny_ds
        plan = build_epoch(ds, {"slice", "volume", "patient"}, 8, seed=1)
        assert all(len(batch) == 2 for batch in plan.batches)  # width 4
        plan = build_epoch(ds, {"slice", "volume"}, 9, seed=1)
        assert all(len(batch) == 3 for batch in plan.batches)  # width 3

    def test_indivisible_batch_size(self, tiny_ds):
        ds, _ = tiny_ds
        with pytest.raises(SettingError, match="batch_size must be a multiple of 3"):
            build_epoch(ds, {"slice", "volume"}, 8, seed=0)

    def test_single_slice_volume_fallback_and_errors(self):
        ds = make_dataset([(0, 0, 1), (0, 1, 2)], [[0.0], [1.0], [2.0]], h=1, w=1)
        plan = build_epoch(ds, {"slice"}, 2, seed=0)
        lone = [t for b in plan.batches.tolist() for t in b if t[0] == 0]
        assert lone == [[0, 0]] and plan.groups == ("slice",)
        with pytest.raises(SamplerError):
            build_epoch(ds, {"volume"}, 2, seed=0)
        single_patient = make_dataset([(0, 0, 1)], [[0.0]], h=1, w=1)
        with pytest.raises(SamplerError):
            build_epoch(single_patient, {"patient"}, 2, seed=0)

    def test_deterministic_in_seed(self, tiny_ds):
        ds, _ = tiny_ds
        a = build_epoch(ds, {"slice", "volume"}, 9, seed=5)
        b = build_epoch(ds, {"slice", "volume"}, 9, seed=5)
        assert np.array_equal(a.batches, b.batches) and a.to_json(ds) == b.to_json(ds)

    def test_epoch_randomness(self, tiny_ds):
        # some anchor must receive two distinct adjacent companions across
        # reseeded epochs
        ds, _ = tiny_ds
        companions = {}
        for seed in range(100):
            plan = build_epoch(ds, {"slice"}, 2, seed=seed)
            for anchor, companion in plan.batches.reshape(-1, 2).tolist():
                companions.setdefault(anchor, set()).add(companion)
        assert any(len(v) >= 2 for v in companions.values())

    def test_invariants_on_random_datasets(self):
        rng = np.random.default_rng(99)
        for _ in range(15):
            spec = SynthSpec(
                n_patients=int(rng.integers(2, 6)),
                volumes_per_patient=int(rng.integers(1, 3)),
                slices_per_volume=int(rng.integers(2, 5)),
                h=2, w=2, seed=int(rng.integers(2 ** 31)),
            )
            ds, _ = generate_synthetic(spec)
            for groups in (set(), {"slice", "volume"}, {"slice", "volume", "patient"}):
                width = 1 + len(groups)
                plan = build_epoch(ds, groups, 2 * width, seed=int(rng.integers(2 ** 31)))
                assert_plan_invariants(ds, plan, groups)

    def test_matches_reference_simulator(self):
        rng = np.random.default_rng(123)
        for _ in range(20):
            spec = SynthSpec(
                n_patients=int(rng.integers(1, 5)),
                volumes_per_patient=int(rng.integers(1, 3)),
                slices_per_volume=int(rng.integers(2, 4)),
                h=1, w=2, seed=int(rng.integers(2 ** 31)),
            )
            ds, _ = generate_synthetic(spec)
            for groups in (set(), {"slice"}, {"slice", "volume", "patient"}):
                width = 1 + len(groups)
                for per_batch in (1, 2):
                    seed = int(rng.integers(2 ** 31))
                    plan = build_epoch(ds, groups, per_batch * width, seed=seed)
                    sim = simulate_build_epoch(ds, groups, per_batch * width, seed=seed)
                    assert plan_slice_ids(ds, plan) == sim


def test_one_integers_call_draws_what_scalar_calls_draw():
    # build_epoch draws an epoch's companions in one rng.integers call over
    # an (anchors, groups) array of pool sizes, the transpose of a C array;
    # its plans, and every digest that follows from them, rest on numpy
    # drawing exactly what one scalar call per bound, in row-major order,
    # draws, and leaving the same state
    for seed in range(50):
        bounds_rng = np.random.default_rng(1000 + seed)
        bounds = np.concatenate([[1, 2, 2 ** 32 - 1] * 2, bounds_rng.integers(1, 40, size=30)])
        bounds_rng.shuffle(bounds)
        together, apart = np.random.default_rng(seed), np.random.default_rng(seed)
        grid = bounds.reshape(3, 12).T
        drawn = together.integers(grid)
        assert drawn.ravel().tolist() == [int(apart.integers(b)) for b in grid.ravel()]
        assert together.bit_generator.state == apart.bit_generator.state


def test_standard_normal_in_row_blocks_draws_one_draw():
    # generate_synthetic draws its noise one row block at a time into one
    # buffer; gen-data's bytes rest on numpy drawing exactly the values of
    # one (rows, width) draw that way, and leaving the same state
    for seed in range(20):
        shape_rng = np.random.default_rng(2000 + seed)
        rows, width, block = (int(v) for v in shape_rng.integers(1, 40, size=3))
        together, apart = np.random.default_rng(seed), np.random.default_rng(seed)
        whole = together.standard_normal((rows, width))
        buffer = np.empty((min(block, rows), width))
        for start in range(0, rows, block):
            part = apart.standard_normal(out=buffer[:rows - start])
            assert part.tobytes() == whole[start:start + block].tobytes()
        assert together.bit_generator.state == apart.bit_generator.state


def compose_by_listing(bounds, width, batch_size, rng):
    """The batch composition as ``build_epoch`` first wrote it: every pick
    lists the available patients and draws one of them."""
    tuples_per_batch = batch_size // width
    batches = []
    remaining = {p: list(range(a, b)) for p, (a, b) in enumerate(zip(bounds, bounds[1:]))}
    slices_left = bounds[-1] * width
    while slices_left >= batch_size:
        batch = []
        used = set()
        while len(batch) < tuples_per_batch:
            avail = [p for p in remaining if p not in used]
            if not avail:
                break
            p = avail[int(rng.integers(len(avail)))]
            left = remaining[p]
            batch.append(left.pop(int(rng.integers(len(left)))))
            slices_left -= width
            if left:
                used.add(p)
            else:
                del remaining[p]
        if len(batch) < tuples_per_batch:
            break
        batches.append(batch)
    return batches


def reference_size_dataset():
    """The benchmark's reference size: 20 patients x 2 volumes x 12 slices."""
    spec = SynthSpec(n_patients=20, volumes_per_patient=2, slices_per_volume=12, h=2, w=2,
                     class_count=8, seed=1)
    return generate_synthetic(spec)[0]


@pytest.mark.parametrize("make_ds", [reference_size_dataset, uneven_dataset, two_patient_dataset],
                         ids=["reference", "uneven", "two-patients"])
def test_composition_draws_what_listing_the_patients_draws(make_ds):
    # the k-th available patient, found without listing them, is the
    # listed one: the same batches and the same generator state after
    bounds = make_ds().patient_bounds.tolist()
    n_patients = len(bounds) - 1
    for width in (1, 4):
        for per_batch in sorted({1, 2, n_patients}):
            for seed in range(50):
                ours, listing = np.random.default_rng(seed), np.random.default_rng(seed)
                got = _compose(bounds, width, per_batch * width, ours)
                want = compose_by_listing(bounds, width, per_batch * width, listing)
                assert got.tolist() == want, (width, per_batch, seed)
                assert ours.bit_generator.state == listing.bit_generator.state


@pytest.mark.parametrize("fault, invariant", [
    (lambda b: b.astype(np.int32), "batches are not a (B, N, width) int64 array"),
    (lambda b: b[:, :, None], "batches are not a (B, N, width) int64 array"),
    (lambda b: b + 100, "a row is out of range"),
    (lambda b: b - 100, "a row is out of range"),
    (lambda b: b[:, :, :2], "tuple width mismatch"),
    (lambda b: b[:, :1], "batch is not exactly M slices"),
])
def test_validate_plan_checks_the_row_array(tiny_ds, fault, invariant):
    ds, _ = tiny_ds
    plan = build_epoch(ds, {"slice", "volume"}, 6, seed=0)
    validate_plan(ds, plan, {"slice", "volume"})
    plan.batches = fault(plan.batches)
    with pytest.raises(SamplerError, match=re.escape(f"sampler invariant broken: {invariant}")):
        validate_plan(ds, plan, {"slice", "volume"})


# a plan whose first batch holds one tuple twice, so a patient repeats in it
_BAD_PLAN = """
import sys
from slicepick import SamplerError, SynthSpec, generate_synthetic
from slicepick.checks import validate_plan
from slicepick.sampler import build_epoch
ds, _ = generate_synthetic(
    SynthSpec(n_patients=3, volumes_per_patient=1, slices_per_volume=2, h=2, w=2, seed=0)
)
plan = build_epoch(ds, set(), 2, seed=0)
plan.batches[0] = [plan.batches[0][0]] * 2
try:
    validate_plan(ds, plan, set())
except SamplerError as exc:
    print(exc)
print(sys.flags.optimize)
"""


def test_validate_plan_checks_under_python_optimize():
    # python -O strips assert statements, so no invariant may rest on one
    env = dict(os.environ, PYTHONPATH=str(Path(slicepick.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _BAD_PLAN], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "sampler invariant broken: patients repeat within a batch", "1",
    ]
