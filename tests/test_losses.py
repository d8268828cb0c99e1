import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    lone_batch,
    random_structured_batch,
    ref_cosine,
    ref_group_loss_from_batch,
    ref_ntxent,
)
from slicepick.checks import fd_loss_grad, max_rel_err
from slicepick.losses import (
    LossBatch,
    LossConfig,
    LossStructure,
    NORM_EPS,
    _unit_rows,
    combined_loss,
    loss_and_grad,
    preset_loss_config,
    slice_positives_from_rows,
)


def pair_batch(z_pairs, pid_pairs, vid_pairs=None, slice_pos=None):
    """Batch from per-pair data: augmented rows mirror the originals."""
    z = np.vstack([z_pairs, z_pairs]) if isinstance(z_pairs, np.ndarray) else z_pairs
    vid = None if vid_pairs is None else np.tile(vid_pairs, 2)
    return lone_batch(z, np.tile(pid_pairs, 2), vid, slice_pos)


def ntxent_only(batch, tau):
    """The standard two-view loss alone: mean over all 2N rows of
    -log softmax(sim with the paired view / tau) against every other row."""
    return combined_loss(batch, preset_loss_config({"ntxent"}, tau))


def group_only(batch, group_type, tau):
    """One group loss alone, of weight 1."""
    return combined_loss(batch, preset_loss_config({group_type}, tau))


def cosine_sim(a, b):
    """The losses' cosine similarity of two rows: the product of their unit
    rows, each norm clamped below by ``NORM_EPS``."""
    zhat, _, _ = _unit_rows(np.array([a, b], dtype=np.float64), NORM_EPS)
    return float(zhat[0] @ zhat[1])


class TestCosine:
    def test_self_similarity(self):
        v = np.array([1.0, 2.0, -3.0])
        assert cosine_sim(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine_sim([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_antipodal(self):
        assert cosine_sim([1.0, 0.0], [-1.0, 0.0]) == -1.0

    def test_zero_vector_clamps(self):
        assert cosine_sim([0.0, 0.0], [1.0, 0.0]) == 0.0

    def test_matches_reference(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a, b = rng.standard_normal((2, 6))
            assert cosine_sim(a, b) == pytest.approx(ref_cosine(a, b), abs=1e-12)


class TestNtxent:
    def test_single_pair_is_zero(self):
        z = np.array([[1.0, 2.0], [0.3, -1.0]])
        batch = lone_batch(z, [0, 0])
        assert ntxent_only(batch, tau=1.0) == pytest.approx(0.0, abs=1e-12)

    def test_hand_value_orthogonal_cross_pairs(self):
        # identical positives, orthogonal cross pairs: -log(e / (e + 2))
        z = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        batch = lone_batch(z, [0, 1, 0, 1])
        expected = -math.log(math.e / (math.e + 2.0))
        assert ntxent_only(batch, tau=1.0) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.5514, abs=1e-4)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            z = rng.standard_normal((2 * n, int(rng.integers(2, 7))))
            batch = lone_batch(z, np.tile(rng.integers(0, 3, n), 2))
            tau = float(rng.choice([0.1, 0.5, 1.0]))
            assert ntxent_only(batch, tau) == pytest.approx(
                ref_ntxent([list(r) for r in z], tau), abs=1e-10
            )

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            lone_batch(np.zeros((0, 3)), [])


class TestGroupLoss:
    def test_singleton_groups_one_patient_is_zero(self):
        # every slice its own volume, all on one patient: the denominator
        # collapses onto the positives, so every log term vanishes
        rng = np.random.default_rng(2)
        z = rng.standard_normal((3, 4))
        batch = pair_batch(z, pid_pairs=[7, 7, 7], vid_pairs=[0, 1, 2])
        assert group_only(batch, "volume", tau=0.5) == pytest.approx(0.0, abs=1e-12)

    def test_identical_unit_vectors_hand_value(self):
        # two same-group same-patient slices, all four rows the same unit
        # vector: every log term is -log(e/(3e)) = log 3; six terms scale
        # by 1/(N*G) = 1/4
        z = np.tile(np.array([[0.6, 0.8]]), (4, 1))
        batch = lone_batch(z, [0, 0, 0, 0], [5, 5, 5, 5])
        expected = 6 * math.log(3.0) / 4
        assert group_only(batch, "volume", tau=1.0) == pytest.approx(expected, abs=1e-12)

    def test_matches_bruteforce_all_group_types(self):
        rng = np.random.default_rng(3)
        for _ in range(15):
            batch, ids = random_structured_batch(
                rng, n_pairs=int(rng.integers(2, 6)), dim=int(rng.integers(2, 7))
            )
            tau = float(rng.choice([0.1, 0.5, 1.0]))
            for group_type in ("patient", "volume", "slice"):
                assert group_only(batch, group_type, tau) == pytest.approx(
                    ref_group_loss_from_batch(batch, ids, group_type, tau), abs=1e-10
                )

    def test_patient_exclusion_shrinks_loss(self):
        # dropping same-patient outside-group rows from the denominator can
        # only shrink it, so the loss without exclusion is an upper bound
        rng = np.random.default_rng(4)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            z = rng.standard_normal((2 * n, 4))
            pid = np.tile(rng.integers(0, 2, n), 2)
            vid = np.tile(rng.integers(0, 3, n), 2)
            batch = lone_batch(z, pid, vid)
            # variant without exclusion: every row is its own patient
            no_excl = lone_batch(z, np.tile(np.arange(n), 2), vid)
            assert group_only(batch, "volume", 0.5) <= group_only(no_excl, "volume", 0.5) + 1e-12

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            batch, _ = random_structured_batch(rng, n_pairs=int(rng.integers(2, 6)), dim=4)
            for group_type in ("patient", "volume", "slice"):
                assert group_only(batch, group_type, 0.2) >= -1e-12

    def test_missing_labels_rejected(self):
        z = np.ones((4, 3))
        batch = lone_batch(z, [0, 1, 0, 1])
        with pytest.raises(ValueError):
            group_only(batch, "volume", 0.5)
        with pytest.raises(ValueError):
            group_only(batch, "slice", 0.5)


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10 ** 6), st.integers(2, 5))
def test_pair_permutation_invariance(seed, n):
    # permuting the N view-pairs (rows and labels together) leaves every
    # loss unchanged
    rng = np.random.default_rng(seed)
    batch, (pid, vid, spos) = random_structured_batch(rng, n_pairs=n, dim=4)
    perm = rng.permutation(n)
    full = np.concatenate([perm, perm + n])
    permuted = lone_batch(batch.z[full], pid[full], vid[full], spos[np.ix_(perm, full)])
    cfg = LossConfig(tau=0.3, ntxent=1.0, patient=0.2, volume=0.4, slice_group=0.1)
    assert combined_loss(permuted, cfg) == pytest.approx(
        combined_loss(batch, cfg), rel=1e-10, abs=1e-12
    )


class TestCombined:
    def test_ntxent_only_reduction(self):
        rng = np.random.default_rng(6)
        batch, _ = random_structured_batch(rng, n_pairs=3, dim=5)
        cfg = LossConfig(tau=0.7, ntxent=1.0, patient=0, volume=0, slice_group=0)
        assert combined_loss(batch, cfg) == pytest.approx(
            ntxent_only(batch, 0.7), abs=1e-12
        )

    def test_weighted_sum_of_terms(self):
        rng = np.random.default_rng(7)
        batch, _ = random_structured_batch(rng, n_pairs=4, dim=5)
        tau = 0.1
        cfg = LossConfig(tau=tau, ntxent=1.0, patient=0.05, volume=0.35, slice_group=0)
        expected = (
            ntxent_only(batch, tau)
            + 0.05 * group_only(batch, "patient", tau)
            + 0.35 * group_only(batch, "volume", tau)
        )
        assert combined_loss(batch, cfg) == pytest.approx(expected, abs=1e-12)

    def test_linear_in_group_weights(self):
        rng = np.random.default_rng(8)
        batch, _ = random_structured_batch(rng, n_pairs=3, dim=4)
        base = LossConfig(tau=0.5, ntxent=0, patient=0.1, volume=0.2, slice_group=0.3)
        scaled = LossConfig(tau=0.5, ntxent=0, patient=0.3, volume=0.6, slice_group=0.9)
        assert combined_loss(batch, scaled) == pytest.approx(
            3 * combined_loss(batch, base), rel=1e-12
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LossConfig(tau=0.0)
        with pytest.raises(ValueError):
            LossConfig(ntxent=0.5)
        with pytest.raises(ValueError):
            LossConfig(ntxent=0, patient=0, volume=0, slice_group=0)

    @pytest.mark.parametrize("field", ["tau", "ntxent", "patient", "volume", "slice_group"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_setting_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite, got {value!r}"):
            LossConfig(**{field: value})


class TestLossGrad:
    def test_single_pair_identical_rows_zero_grad(self):
        z = np.array([[0.3, 0.4], [0.3, 0.4]])
        batch = lone_batch(z, [0, 0])
        cfg = LossConfig(tau=1.0, ntxent=1.0, patient=0, volume=0, slice_group=0)
        assert np.allclose(loss_and_grad(batch, cfg)[1], 0.0, atol=1e-12)

    def test_finite_differences_random_batches(self):
        rng = np.random.default_rng(9)
        for _ in range(6):
            batch, _ = random_structured_batch(
                rng, n_pairs=int(rng.integers(2, 5)), dim=int(rng.integers(3, 6))
            )
            cfg = LossConfig(
                tau=float(rng.choice([0.1, 0.5, 1.0])),
                ntxent=1.0, patient=0.05, volume=0.35, slice_group=0.1,
            )
            err = max_rel_err(loss_and_grad(batch, cfg)[1], fd_loss_grad(batch, cfg))
            assert err < 1e-6

    def test_temperature_change_tracks_finite_differences(self):
        rng = np.random.default_rng(10)
        batch, _ = random_structured_batch(rng, n_pairs=3, dim=4)
        for tau in (0.25, 0.5):
            cfg = LossConfig(tau=tau, ntxent=1.0, patient=0.2, volume=0.2, slice_group=0.2)
            err = max_rel_err(loss_and_grad(batch, cfg)[1], fd_loss_grad(batch, cfg))
            assert err < 1e-6


class TestLossBatchValidation:
    """A one-batch ``LossStructure`` checks its batch's ids and mask."""

    def batch_parts(self):
        rng = np.random.default_rng(12)
        _, ids = random_structured_batch(rng, n_pairs=3, dim=4)
        keys = ("patient_ids", "volume_ids", "slice_positives")
        return {key: x[None] for key, x in zip(keys, ids)}

    def test_well_formed_batch_accepted(self):
        batch = LossBatch(np.ones((6, 4)), LossStructure(**self.batch_parts()))
        assert batch.structure.groups == ("patient", "volume", "slice")
        assert batch.structure.pos.shape == (1, 3, 3, 6)

    @pytest.mark.parametrize("shape", [(3, 3), (6, 6), (2, 6), (3, 6, 1)])
    def test_wrong_shape_mask(self, shape):
        parts = self.batch_parts()
        parts["slice_positives"] = np.zeros((1, *shape), dtype=bool)
        given = re.escape(str((1, *shape)))
        with pytest.raises(ValueError, match=(
            rf"^slice_positives must be a \(B, N, 2N\) = \(1, 3, 6\) boolean mask, "
            rf"got bool of shape {given}$"
        )):
            LossStructure(**parts)

    def test_index_sets_are_not_a_mask(self):
        parts = self.batch_parts()
        parts["slice_positives"] = np.ones((1, 3, 6), dtype=np.int64)
        with pytest.raises(ValueError, match=r"boolean mask, got int64 of shape \(1, 3, 6\)$"):
            LossStructure(**parts)

    def test_volume_ids_of_another_shape(self):
        parts = self.batch_parts()
        parts["volume_ids"] = parts["volume_ids"][:, :4]
        with pytest.raises(ValueError, match=(
            r"^volume_ids must be a \(B, 2N\) = \(1, 6\) array like patient_ids, "
            r"got shape \(1, 4\)$"
        )):
            LossStructure(**parts)

    @pytest.mark.parametrize("anchor", [0, 2])
    def test_anchor_on_its_own_diagonal(self, anchor):
        parts = self.batch_parts()
        parts["slice_positives"][0, anchor, anchor] = True
        with pytest.raises(ValueError, match="its own positive"):
            LossStructure(**parts)

    def test_own_view_is_not_the_diagonal(self):
        parts = self.batch_parts()
        pos = np.zeros((1, 3, 6), dtype=bool)
        pos[0, np.arange(3), np.arange(3) + 3] = True
        parts["slice_positives"] = pos
        assert LossStructure(**parts).pos[0, 2, 0, 3]

    @pytest.mark.parametrize("key", ["patient_ids", "volume_ids"])
    def test_non_mirrored_ids(self, key):
        parts = self.batch_parts()
        parts[key][0, 4] = parts[key][0, 1] + 100
        with pytest.raises(ValueError, match=f"{key} of augmented rows must mirror"):
            LossStructure(**parts)

    @pytest.mark.parametrize("key,term", [("volume_ids", "volume"),
                                          ("slice_positives", "slice_group")])
    def test_term_without_its_ids_is_named(self, key, term):
        parts = self.batch_parts()
        parts[key] = None
        cfg = LossConfig(tau=0.5, ntxent=0.0, **{term: 1.0})
        name = term.replace("_group", "")
        with pytest.raises(ValueError, match=rf"loss terms \['{name}'\]"):
            combined_loss(LossBatch(np.ones((6, 4)), LossStructure(**parts)), cfg)


class TestSlicePositives:
    def test_adjacency_and_same_slice(self):
        # two volumes: 0 holds slices 0,1,2 (depths 0,1,2); 1 holds slice 3
        sid = np.array([0, 1, 2, 3] * 2)
        vid = np.array([0, 0, 0, 1] * 2)
        idx = np.array([0, 1, 2, 0] * 2)
        pos = slice_positives_from_rows(sid, vid, idx)
        # depth neighbor 1, own view, view of 1
        assert list(np.flatnonzero(pos[0])) == [1, 4, 5]
        assert list(np.flatnonzero(pos[1])) == [0, 2, 4, 5, 6]
        assert list(np.flatnonzero(pos[3])) == [7]  # isolated volume: only its own view


class TestPresets:
    def test_single_group_weights(self):
        cfg = preset_loss_config({"volume"})
        assert (cfg.ntxent, cfg.volume) == (0.0, 1.0)
        cfg = preset_loss_config({"ntxent", "volume"})
        assert (cfg.ntxent, cfg.volume) == (1.0, 0.35)

    def test_tuned_pair(self):
        cfg = preset_loss_config({"ntxent", "patient", "volume"})
        assert (cfg.ntxent, cfg.patient, cfg.volume, cfg.slice_group) == (
            1.0, 0.05, 0.35, 0.0,
        )

    def test_override(self):
        cfg = preset_loss_config({"volume"}, overrides={"volume": 0.7})
        assert cfg.volume == 0.7

    def test_override_of_absent_term_rejected(self):
        with pytest.raises(ValueError, match="'patient'"):
            preset_loss_config({"volume"}, overrides={"patient": 0.7})
        with pytest.raises(ValueError, match="'slice'"):
            preset_loss_config({"ntxent"}, overrides={"slice": 0.1})

    def test_unset_override_of_absent_term_ignored(self):
        cfg = preset_loss_config({"ntxent", "volume"}, overrides={"patient": None})
        assert (cfg.patient, cfg.volume) == (0.0, 0.35)

    def test_unknown_term(self):
        with pytest.raises(ValueError):
            preset_loss_config({"bogus"})
