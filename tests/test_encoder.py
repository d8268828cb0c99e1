import json
import struct

import numpy as np
import pytest

from conftest import random_structured_batch
from slicepick import (
    Architecture,
    AugmentSpec,
    EncoderParams,
    FormatError,
    LossConfig,
    SynthSpec,
    TrainConfig,
    TrainingDivergedError,
    embed_all,
    forward,
    generate_synthetic,
    init_params,
    load_checkpoint,
    save_checkpoint,
    train,
)
from slicepick.checks import max_rel_err
from slicepick.data import DatasetIndex
from slicepick.encoder import _AdamState, _adam_step, _backward_batch, _forward_batch
from slicepick.losses import LossBatch, combined_loss, loss_and_grad


def ref_forward(params, x):
    """Step-by-step scalar-loop forward pass."""
    n_hidden = len(params.arch.hidden)
    a = [float(v) for v in x]
    for layer in range(n_hidden):
        W, b = params.weights[layer], params.biases[layer]
        a = [
            max(0.0, sum(a[i] * W[i, j] for i in range(W.shape[0])) + b[j])
            for j in range(W.shape[1])
        ]
    W, b = params.weights[n_hidden], params.biases[n_hidden]
    rep = [
        sum(a[i] * W[i, j] for i in range(W.shape[0])) + b[j]
        for j in range(W.shape[1])
    ]
    W, b = params.weights[n_hidden + 1], params.biases[n_hidden + 1]
    proj = [
        sum(rep[i] * W[i, j] for i in range(W.shape[0])) + b[j]
        for j in range(W.shape[1])
    ]
    return np.array(rep), np.array(proj)


class TestForward:
    def test_zero_params_zero_outputs(self):
        arch = Architecture(input_dim=4, hidden=(3,), rep_dim=2, proj_dim=2)
        params = EncoderParams(
            arch,
            [np.zeros(s) for s in ((4, 3), (3, 2), (2, 2))],
            [np.zeros(s) for s in (3, 2, 2)],
        )
        rep, proj = forward(params, np.ones(4))
        assert np.all(rep == 0) and np.all(proj == 0)

    def test_identity_configuration(self):
        # no hidden layers, identity representation layer: rep == input
        arch = Architecture(input_dim=3, hidden=(), rep_dim=3, proj_dim=2)
        params = EncoderParams(
            arch, [np.eye(3), np.zeros((3, 2))], [np.zeros(3), np.zeros(2)]
        )
        x = np.array([0.1, -2.0, 5.0])
        rep, _ = forward(params, x)
        assert np.array_equal(rep, x)

    def test_matches_reference(self):
        rng = np.random.default_rng(0)
        arch = Architecture(input_dim=5, hidden=(4, 3), rep_dim=3, proj_dim=2)
        for seed in range(5):
            params = init_params(arch, seed)
            x = rng.standard_normal(5)
            rep, proj = forward(params, x)
            rep_ref, proj_ref = ref_forward(params, x)
            assert np.max(np.abs(rep - rep_ref)) < 1e-12
            assert np.max(np.abs(proj - proj_ref)) < 1e-12

    def test_shape_mismatch(self):
        params = init_params(Architecture(4, (3,), 2, 2), 0)
        with pytest.raises(ValueError):
            forward(params, np.ones(5))


class TestBackprop:
    def test_parameter_gradients_match_finite_differences(self):
        rng = np.random.default_rng(11)
        arch = Architecture(input_dim=6, hidden=(5, 4), rep_dim=4, proj_dim=3)
        params = init_params(arch, 17)
        batch0 = random_structured_batch(rng, n_pairs=4, dim=6)
        X = batch0.z  # reuse the random rows as network inputs
        cfg = LossConfig(tau=0.5, ntxent=1.0, patient=0.05, volume=0.35, slice_group=0.1)

        def loss_of():
            _, proj, _ = _forward_batch(params, X)
            return combined_loss(
                LossBatch(
                    z=proj,
                    patient_ids=batch0.patient_ids,
                    volume_ids=batch0.volume_ids,
                    slice_positives=batch0.slice_positives,
                ),
                cfg,
            )

        _, proj, cache = _forward_batch(params, X)
        _, dz = loss_and_grad(
            LossBatch(
                z=proj,
                patient_ids=batch0.patient_ids,
                volume_ids=batch0.volume_ids,
                slice_positives=batch0.slice_positives,
            ),
            cfg,
        )
        g_w, g_b = _backward_batch(params, cache, dz)
        h = 1e-5
        worst = 0.0
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
                    worst = max(worst, max_rel_err(grads[li][idx], (lp - lm) / (2 * h)))
        assert worst < 1e-4


class TestAdam:
    def test_pure_weight_decay_shrinks_parameters(self):
        params = init_params(Architecture(3, (2,), 2, 2), 0)
        cfg = TrainConfig(learning_rate=0.1, weight_decay=0.5, epochs=1)
        state = _AdamState(params)
        norms0 = [np.linalg.norm(w) for w in params.weights]
        zero_w = [np.zeros_like(w) for w in params.weights]
        zero_b = [np.zeros_like(b) for b in params.biases]
        _adam_step(params, zero_w, zero_b, state, cfg)
        norms1 = [np.linalg.norm(w) for w in params.weights]
        assert all(b < a for a, b in zip(norms0, norms1))


class TestTraining:
    def small_ds(self, seed=0):
        spec = SynthSpec(
            n_patients=2, volumes_per_patient=1, slices_per_volume=4, h=3, w=3,
            class_count=2, seed=seed,
        )
        return generate_synthetic(spec)[0]

    def cfg(self, **kw):
        base = dict(epochs=2, hidden=(8,), rep_dim=4, proj_dim=3, seed=0)
        base.update(kw)
        return TrainConfig(**base)

    def test_smoke_and_bit_determinism(self):
        ds = self.small_ds()
        loss_cfg = LossConfig(tau=0.1, ntxent=1.0, patient=0, volume=0, slice_group=0)
        r1 = train(ds, set(), loss_cfg, self.cfg())
        r2 = train(ds, set(), loss_cfg, self.cfg())
        assert r1.epoch_losses == r2.epoch_losses
        for w1, w2 in zip(r1.params.weights, r2.params.weights):
            assert np.array_equal(w1, w2)
        assert all(np.isfinite(x) for x in r1.epoch_losses)

    def test_descent_ntxent_only(self):
        loss_cfg = LossConfig(tau=0.1, ntxent=1.0, patient=0, volume=0, slice_group=0)
        for seed in range(3):
            ds = self.small_ds(seed)
            res = train(ds, set(), loss_cfg, self.cfg(epochs=30, seed=seed))
            assert res.epoch_losses[-1] < res.epoch_losses[0]

    def test_zero_gradient_training_is_pure_decay(self):
        # one patient, every slice its own volume, volume-group loss only:
        # each anchor's denominator collapses onto its positives, the loss
        # is identically zero, and steps reduce the global parameter norm
        from conftest import make_dataset

        ds = make_dataset(
            [(0, v, 1) for v in range(6)],
            [[float(v), 0.0] for v in range(6)],
            h=1, w=2,
        )
        loss_cfg = LossConfig(tau=0.1, ntxent=0, patient=0, volume=1.0, slice_group=0)
        cfg = self.cfg(epochs=3, batch_size=1, weight_decay=0.01, learning_rate=0.1)
        res = train(ds, set(), loss_cfg, cfg)
        assert res.epoch_losses == [0.0, 0.0, 0.0]
        init = init_params(res.params.arch, np.random.SeedSequence([cfg.seed, 0]))
        norm_before = np.sqrt(sum(np.sum(w ** 2) for w in init.weights))
        norm_after = np.sqrt(sum(np.sum(w ** 2) for w in res.params.weights))
        assert norm_after < norm_before

    def test_divergence_guard(self):
        ds = self.small_ds()
        loss_cfg = LossConfig(tau=0.1, ntxent=1.0, patient=0, volume=0, slice_group=0)
        with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError):
            train(ds, set(), loss_cfg, self.cfg(epochs=5, learning_rate=1e155))

    def test_epochs_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)

    def test_unvalidated_batches_train_bit_identically(self, monkeypatch):
        # the training loop skips LossBatch validation; forcing the full
        # validation back on must not change a single bit, for every term
        from slicepick import encoder

        spec = SynthSpec(
            n_patients=3, volumes_per_patient=2, slices_per_volume=4, h=3, w=3,
            class_count=2, seed=4,
        )
        ds = generate_synthetic(spec)[0]
        loss_cfg = LossConfig(tau=0.2, ntxent=1.0, patient=0.05, volume=0.35, slice_group=0.1)
        fast = train(ds, None, loss_cfg, self.cfg(epochs=3, seed=2))
        flags = []

        def validated(*args, validate=True, **kwargs):
            flags.append(validate)
            return LossBatch(*args, **kwargs)

        monkeypatch.setattr(encoder, "LossBatch", validated)
        checked = train(ds, None, loss_cfg, self.cfg(epochs=3, seed=2))
        assert flags and not any(flags)
        assert fast.epoch_losses == checked.epoch_losses
        for a, b in zip(fast.params.weights + fast.params.biases,
                        checked.params.weights + checked.params.biases):
            assert np.array_equal(a, b)


class TestEmbedAll:
    def test_matches_forward_calls_exactly(self):
        ds = TestTraining().small_ds()
        params = init_params(Architecture(ds.h * ds.w, (6,), 4, 3), 1)
        emb = embed_all(params, ds)
        for i, rec in enumerate(ds.slices):
            assert np.array_equal(emb[i], forward(params, rec.pixels)[0])

    def test_zero_params_zero_matrix(self):
        ds = TestTraining().small_ds()
        arch = Architecture(ds.h * ds.w, (2,), 2, 2)
        params = EncoderParams(
            arch,
            [np.zeros(s) for s in ((ds.h * ds.w, 2), (2, 2), (2, 2))],
            [np.zeros(2)] * 3,
        )
        assert np.all(embed_all(params, ds) == 0)

    def test_permutation_equivariance(self):
        ds = TestTraining().small_ds()
        params = init_params(Architecture(ds.h * ds.w, (6,), 4, 3), 1)
        perm = np.random.default_rng(3).permutation(ds.n)
        permuted = DatasetIndex([ds.slices[i] for i in perm], ds.h, ds.w)
        assert np.array_equal(embed_all(params, permuted), embed_all(params, ds)[perm])


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        arch = Architecture(input_dim=6, hidden=(5,), rep_dim=4, proj_dim=3)
        params = init_params(arch, 7)
        cfg = TrainConfig(epochs=1, seed=7)
        path = tmp_path / "enc.ckpt"
        save_checkpoint(path, params, cfg, seed=7)
        loaded, header = load_checkpoint(path)
        assert loaded.arch == arch
        assert header["seed"] == 7
        assert header["train_cfg"]["epochs"] == 1
        for w, lw in zip(params.weights, loaded.weights):
            assert np.array_equal(lw, w.astype(np.float32).astype(np.float64))

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.ckpt"
        p.write_bytes(b"NOPE" + b"\x00" * 16)
        from slicepick import FormatError

        with pytest.raises(FormatError):
            load_checkpoint(p)

    def saved(self, tmp_path):
        path = tmp_path / "enc.ckpt"
        params = init_params(Architecture(input_dim=6, hidden=(5,), rep_dim=4, proj_dim=3), 7)
        save_checkpoint(path, params, TrainConfig(epochs=1), seed=7)
        raw = path.read_bytes()
        head_len = int.from_bytes(raw[4:8], "little")
        return raw, head_len

    def with_header(self, tmp_path, edit):
        """A copy of a saved checkpoint whose JSON header went through ``edit``."""
        raw, head_len = self.saved(tmp_path)
        header = json.loads(raw[8 : 8 + head_len])
        edit(header)
        head = json.dumps(header).encode()
        path = tmp_path / "edited.ckpt"
        path.write_bytes(raw[:4] + struct.pack("<I", len(head)) + head + raw[8 + head_len:])
        return path

    def test_truncation_names_path_and_field(self, tmp_path):
        raw, head_len = self.saved(tmp_path)
        cuts = {
            0: "magic", 3: "magic", 4: "header length", 7: "header length",
            8: "header length", 8 + head_len // 2: "header length",
            8 + head_len: "blob size", len(raw) - 5: "blob size",
            len(raw) - 1: "blob size",
        }
        for cut, field in cuts.items():
            path = tmp_path / f"cut{cut}.ckpt"
            path.write_bytes(raw[:cut])
            with pytest.raises(FormatError) as exc:
                load_checkpoint(path)
            assert str(path) in str(exc.value) and field in str(exc.value), (cut, exc.value)

    def test_trailing_bytes_rejected(self, tmp_path):
        raw, _ = self.saved(tmp_path)
        path = tmp_path / "long.ckpt"
        path.write_bytes(raw + b"\x00" * 4)
        with pytest.raises(FormatError, match="blob size"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", [
        "format_version", "architecture", "architecture.input_dim",
        "architecture.hidden", "architecture.rep_dim", "architecture.proj_dim",
    ])
    def test_missing_header_key_names_it(self, tmp_path, key):
        def drop(header):
            *parents, leaf = key.split(".")
            for name in parents:
                header = header[name]
            del header[leaf]

        path = self.with_header(tmp_path, drop)
        with pytest.raises(FormatError) as exc:
            load_checkpoint(path)
        assert str(path) in str(exc.value) and f"'{key}'" in str(exc.value)

    @pytest.mark.parametrize("field,value", [("rep_dim", 0), ("hidden", 5), ("input_dim", "x")])
    def test_invalid_architecture_dimensions(self, tmp_path, field, value):
        path = self.with_header(
            tmp_path, lambda header: header["architecture"].__setitem__(field, value)
        )
        with pytest.raises(FormatError, match="'architecture' has invalid dimensions"):
            load_checkpoint(path)

    def test_corrupt_header_json(self, tmp_path):
        raw, head_len = self.saved(tmp_path)
        path = tmp_path / "garbled.ckpt"
        path.write_bytes(raw[:8] + b"\xff" * head_len + raw[8 + head_len:])
        with pytest.raises(FormatError, match="corrupt checkpoint header"):
            load_checkpoint(path)
