"""Row order and slice-id values carry no meaning.

Every sampler test draws from ``generate_synthetic``, whose row i holds
slice id i in patient, volume, depth order. Here a dataset's rows are
shuffled and its slice ids relabelled by an order-reversing map; the plan
(in slice ids, under the map), the training bytes and the deviation
statistics must not change. The references build their slice-id maps from
the identity records alone.
"""

import json

import numpy as np
import pytest

from conftest import make_dataset, plan_slice_ids, reference_train, simulate_build_epoch
from slicepick import DatasetIndex, TrainConfig, group_deviation, preset_loss_config
from slicepick.data import GROUPINGS
from slicepick.encoder import train
from slicepick.sampler import build_epoch

GROUP_SETS = [set(), {"slice"}, {"volume", "patient"}, {"slice", "volume", "patient"}]


def relabel(slice_id):
    return 1000 - 7 * slice_id


@pytest.fixture(scope="module")
def datasets():
    """An uneven dataset and its copy with shuffled rows and relabelled slice ids."""
    layout = [(0, 0, 2), (0, 1, 5), (1, 2, 3), (2, 3, 2), (2, 4, 4), (3, 5, 4),
              (4, 6, 3), (4, 7, 2)]
    n = sum(k for _, _, k in layout)
    ds = make_dataset(layout, np.random.default_rng(3).standard_normal((n, 6)), h=2, w=3)
    perm = np.random.default_rng(4).permutation(n)
    ids = ds.ids[perm]
    ids[:, 0] = relabel(ids[:, 0])
    return ds, DatasetIndex(ids, ds.pixel_matrix()[perm], ds.h, ds.w)


def mapped(batches):
    return [[tuple(relabel(s) for s in t) for t in batch] for batch in batches]


@pytest.mark.parametrize("groups", GROUP_SETS, ids=lambda g: "+".join(sorted(g)) or "none")
def test_plan_follows_identity_not_rows(datasets, groups):
    ds, shuffled = datasets
    width = 1 + len(groups)
    for seed in range(5):
        plan = build_epoch(ds, groups, 2 * width, seed)
        moved = build_epoch(shuffled, groups, 2 * width, seed)
        want = mapped(plan_slice_ids(ds, plan))
        assert plan_slice_ids(shuffled, moved) == want
        assert simulate_build_epoch(shuffled, groups, 2 * width, seed) == want
        doc = json.loads(moved.to_json(shuffled))
        assert [[t["anchor"] for t in b] for b in doc["batches"]] == [
            [t[0] for t in b] for b in want
        ]


def test_training_follows_identity_not_rows(datasets):
    ds, shuffled = datasets
    loss_cfg = preset_loss_config(("ntxent", "patient", "volume", "slice"), tau=0.3)
    cfg = TrainConfig(epochs=3, hidden=(6,), rep_dim=4, proj_dim=3, seed=5)
    result, moved = train(ds, loss_cfg, cfg), train(shuffled, loss_cfg, cfg)
    assert np.array_equal(result.params.flat, moved.params.flat)
    assert result.epoch_losses == moved.epoch_losses
    assert plan_slice_ids(shuffled, moved.first_plan) == mapped(
        plan_slice_ids(ds, result.first_plan)
    )
    flat, losses, _ = reference_train(shuffled, loss_cfg, cfg)
    assert np.array_equal(flat, moved.params.flat) and losses == moved.epoch_losses


def test_deviation_follows_identity_not_rows(datasets):
    ds, shuffled = datasets
    for grouping in GROUPINGS:
        assert group_deviation(shuffled, grouping) == pytest.approx(
            group_deviation(ds, grouping), rel=1e-12, abs=0
        )
