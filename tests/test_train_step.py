"""``train`` against the per-step loop it replaced, bit for bit.

``conftest.reference_train`` is that loop: each step looks its rows up
slice by slice, augments them into a new array and stacks both views,
builds its masks through a ``LossStructure`` of its one batch and takes
an out-of-place textbook ADAM step, with the plain augmentation, forward,
loss and backward of ``reference_step``. ``train`` fills buffers allocated
once per run, builds the masks once per epoch as one ``LossStructure``
whose loss tables are built on the first step, and updates ADAM in place;
both must give the same parameters and epoch losses. The outside tracer of
``perfbench`` wraps ``encoder``'s globals, so the tests also count that
``train`` looks each of them up once per epoch or step.
"""

import itertools
from dataclasses import replace

import numpy as np
import pytest

import reference_step
from conftest import reference_train, two_patient_dataset, uneven_dataset
from slicepick import TrainConfig, preset_loss_config
from slicepick import encoder, sampler
from slicepick.checks import check_loss_tables, random_loss_epoch
from slicepick.encoder import train
from slicepick.losses import (
    LossBatch,
    LossConfig,
    LossStructure,
    loss_and_grad,
    slice_positives_from_rows,
)

TERMS = ("ntxent", "patient", "volume", "slice")
SUBSETS = [c for k in range(1, 5) for c in itertools.combinations(TERMS, k)]
SMALL = TrainConfig(epochs=2, hidden=(6,), rep_dim=4, proj_dim=3, seed=5)


def _assert_train_matches_reference(ds, train_cfg, subsets=SUBSETS):
    """``train`` and ``reference_train`` agree bit for bit on every subset;
    returns the steps of the last run."""
    for subset in subsets:
        loss_cfg = preset_loss_config(subset, tau=0.3)
        result = train(ds, loss_cfg, train_cfg)
        flat, losses, steps = reference_train(ds, loss_cfg, train_cfg)
        assert np.array_equal(result.params.flat, flat), (subset, train_cfg.hidden)
        assert result.epoch_losses == losses, (subset, train_cfg.hidden)
    return steps


@pytest.mark.parametrize("make_ds", [uneven_dataset, two_patient_dataset],
                         ids=["uneven", "two-patients"])
def test_train_matches_per_step_loop_bit_for_bit(make_ds):
    ds = make_ds()
    # with no hidden layer the rep layer's input gradient is the unused one
    for train_cfg in (SMALL, replace(SMALL, hidden=())):
        _assert_train_matches_reference(ds, train_cfg)


def test_train_matches_per_step_loop_past_the_adam_bias_crossing():
    # from step 356 on, 1 - 0.9**t is exactly 1.0 and ADAM skips m / bc1
    cfg = replace(SMALL, epochs=60)
    steps = _assert_train_matches_reference(two_patient_dataset(), cfg, [TERMS])
    assert 1.0 - encoder.BETA1 ** 355 != 1.0 and steps > 356


def test_two_patients_cap_the_batch():
    ds = two_patient_dataset()
    loss_cfg = preset_loss_config(("ntxent", "patient", "volume"))
    assert train(ds, loss_cfg, replace(SMALL, epochs=1)).config.batch_size == 6


def _random_epoch(rng, n_batches, n):
    """(B, 2N) patient, volume, slice and depth ids of mirrored two-view batches."""
    pid = rng.integers(0, 3, size=(n_batches, n))
    vid = pid * 10 + rng.integers(0, 2, size=(n_batches, n))
    sid = rng.integers(0, 2 * n, size=(n_batches, n))
    depth = rng.integers(0, 4, size=(n_batches, n))
    return [np.concatenate([x, x], axis=1) for x in (pid, vid, sid, depth)]


def test_epoch_structure_matches_lone_batches():
    # batch 1 has no adjacency positive (its term is skipped), batch 2 one
    # anchor without any; every batch's loss must equal its lone batch's
    rng = np.random.default_rng(21)
    n = 5
    pid, vid, sid, depth = _random_epoch(rng, 4, n)
    spos = slice_positives_from_rows(sid, vid, depth)
    spos[1] = False
    spos[2, 3] = False
    cfgs = [LossConfig(tau=0.4, **dict(zip(["ntxent", "patient", "volume", "slice_group"],
                                           [float(w) for w in ws])))
            for ws in itertools.product((0, 1), (0, 0.3), (0, 0.5), (0, 0.2)) if any(ws)]
    for cfg in cfgs:
        structure = LossStructure(pid, vid, spos, cfg.terms)
        for b in range(4):
            z = rng.standard_normal((2 * n, 3))
            lone = LossBatch(z, LossStructure(pid[b][None], vid[b][None], spos[b][None]))
            loss, grad = loss_and_grad(LossBatch(z=z, structure=structure, index=b), cfg)
            lone_loss, lone_grad = loss_and_grad(lone, cfg)
            assert loss == lone_loss and np.array_equal(grad, lone_grad)
    assert not LossStructure(pid, vid, spos, ("slice",)).active[1].any()


@np.errstate(divide="raise", invalid="raise", over="raise")
def test_epoch_step_matches_the_plain_step():
    # the epoch tables against the plain step, which re-derives every weight,
    # scale and liveness per call, for every term subset, through a
    # structure of every term and one of the config's terms alone; an anchor
    # without a positive or another patient's row must raise no
    # floating-point error either
    rng = np.random.default_rng(25)
    for n, tau in ((1, 0.1), (2, 0.5), (4, 0.1), (7, 0.5)):
        pid, vid, spos = random_loss_epoch(rng, n_batches=6, n_pairs=n)
        z = rng.standard_normal((6, 2 * n, 3))
        z[5, 1] *= 1e-14  # a row whose norm is clamped
        every = LossStructure(pid, vid, spos)
        # batch 3's anchor 0 keeps every other row, though none is a positive
        # or another patient's
        assert every.den[3, every.ntxent_rows + 2 * n].sum() == 2 * n - 1
        assert every.den.any(axis=2).all()
        for subset in SUBSETS:
            cfg = preset_loss_config(subset, tau=tau)
            for structure in (every, LossStructure(pid, vid, spos, cfg.terms)):
                for b in range(6):
                    batch = LossBatch(z[b], structure=structure, index=b)
                    loss, grad = loss_and_grad(batch, cfg)
                    want_loss, want_grad = reference_step.loss_and_grad(batch, cfg)
                    assert loss == want_loss and grad.tobytes() == want_grad.tobytes()


def test_loss_tables_rest_on_this_numpy():
    # the stacked gradient pass, the ufunc reductions and the epoch tables
    # give the step's bits only while numpy reduces as the step assumes;
    # ``slicepick verify`` runs the same check
    ok, detail = check_loss_tables()
    assert ok, detail


@pytest.mark.parametrize("key", ["patient_ids", "volume_ids"])
def test_epoch_with_non_mirrored_ids_rejected(key):
    pid, vid, sid, depth = _random_epoch(np.random.default_rng(22), 3, 4)
    ids = {"patient_ids": pid, "volume_ids": vid}
    ids[key][2, 5] += 100  # batch 2, the view of its anchor 1
    with pytest.raises(ValueError, match=f"{key} of augmented rows must mirror"):
        LossStructure(**ids)


def test_epoch_mask_with_a_diagonal_entry_rejected():
    pid, vid, sid, depth = _random_epoch(np.random.default_rng(23), 3, 4)
    spos = slice_positives_from_rows(sid, vid, depth)
    spos[1, 2, 2] = True
    with pytest.raises(ValueError, match="no anchor can be its own positive"):
        LossStructure(pid, vid, spos)
    with pytest.raises(ValueError, match=(
        r"\(B, N, 2N\) = \(3, 4, 8\) boolean mask, got bool of shape \(3, 4, 7\)$"
    )):
        LossStructure(pid, vid, spos[:, :, :-1])
    with pytest.raises(ValueError, match=(
        r"volume_ids must be a \(B, 2N\) = \(3, 8\) array like patient_ids, "
        r"got shape \(3, 4\)$"
    )):
        LossStructure(pid, vid[:, :4])


def test_step_batch_must_fit_its_structure():
    pid, vid, sid, depth = _random_epoch(np.random.default_rng(24), 2, 3)
    structure = LossStructure(pid, vid)
    with pytest.raises(ValueError, match="one row per row of the batch structure"):
        LossBatch(z=np.ones((4, 2)), structure=structure, index=1)
    # a batch of the structure, counted from 0: neither from the end nor past it
    for index in (-1, 2):
        with pytest.raises(ValueError, match=rf"batch index {index} is not in \[0, 2\)"):
            LossBatch(z=np.ones((6, 2)), structure=structure, index=index)


def test_traced_names_looked_up_once_per_epoch_or_step(monkeypatch, tiny_ds):
    ds, _ = tiny_ds
    calls = {"build_epoch": 0, "augment_batch": 0, "LossBatch": 0, "loss_and_grad": 0}
    steps = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    build = counted("build_epoch", sampler.build_epoch)

    def build_epoch(*args):
        plan = build(*args)
        steps.append(len(plan.batches))
        return plan

    monkeypatch.setattr(sampler, "build_epoch", build_epoch)
    for name in ("augment_batch", "LossBatch", "loss_and_grad"):
        monkeypatch.setattr(encoder, name, counted(name, getattr(encoder, name)))
    loss_cfg = preset_loss_config(("ntxent", "patient", "volume", "slice"))
    train(ds, loss_cfg, replace(SMALL, epochs=3))
    assert calls["build_epoch"] == 3 and sum(steps) > 3
    assert calls["augment_batch"] == calls["LossBatch"] == calls["loss_and_grad"] == sum(steps)
