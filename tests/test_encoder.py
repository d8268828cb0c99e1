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
    train,
)
from slicepick._io import write_atomic
from slicepick.checks import max_rel_err
from slicepick.data import DatasetIndex
from slicepick.encoder import (
    ADAM_EPS,
    BETA1,
    BETA2,
    _AdamState,
    _adam_step,
    _backward_batch,
    _forward_batch,
    _layer_views,
    augment_batch,
    checkpoint_bytes,
)
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
        params = EncoderParams(arch, np.zeros(4 * 3 + 3 + 3 * 2 + 2 + 2 * 2 + 2))
        rep, proj = forward(params, np.ones(4))
        assert np.all(rep == 0) and np.all(proj == 0)

    def test_identity_configuration(self):
        # no hidden layers, identity representation layer: rep == input
        arch = Architecture(input_dim=3, hidden=(), rep_dim=3, proj_dim=2)
        # W0 = I, then b0, W1 and b1 all zero
        params = EncoderParams(arch, np.concatenate([np.eye(3).ravel(), np.zeros(3 + 6 + 2)]))
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
        # hidden=() is the linear encoder, whose backward stops at the rep layer
        for hidden in ((5, 4), ()):
            self.check_finite_differences(hidden)

    def check_finite_differences(self, hidden):
        rng = np.random.default_rng(11)
        arch = Architecture(input_dim=6, hidden=hidden, rep_dim=4, proj_dim=3)
        params = init_params(arch, 17)
        batch0, _ = random_structured_batch(rng, n_pairs=4, dim=6)
        X = batch0.z  # reuse the random rows as network inputs
        cfg = LossConfig(tau=0.5, ntxent=1.0, patient=0.05, volume=0.35, slice_group=0.1)

        def loss_of():
            _, proj, _ = _forward_batch(params, X)
            return combined_loss(LossBatch(proj, batch0.structure), cfg)

        _, proj, cache = _forward_batch(params, X)
        _, dz = loss_and_grad(LossBatch(proj, batch0.structure), cfg)
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
        assert worst < 1e-4, hidden


class TestAdam:
    def test_pure_weight_decay_shrinks_parameters(self):
        params = init_params(Architecture(3, (2,), 2, 2), 0)
        cfg = TrainConfig(learning_rate=0.1, weight_decay=0.5, epochs=1)
        state = _AdamState(params)
        norms0 = [np.linalg.norm(w) for w in params.weights]
        _adam_step(params, np.zeros_like(params.flat), state, cfg)
        norms1 = [np.linalg.norm(w) for w in params.weights]
        assert all(b < a for a, b in zip(norms0, norms1))

    def test_flat_step_matches_per_tensor_reference(self):
        # reference: the same decoupled-decay ADAM applied tensor by tensor
        arch = Architecture(5, (4, 3), 3, 2)
        params = init_params(arch, 2)
        cfg = TrainConfig(learning_rate=0.05, weight_decay=0.1, epochs=1)
        ref = [t.copy() for pair in zip(params.weights, params.biases) for t in pair]
        m = [np.zeros_like(t) for t in ref]
        v = [np.zeros_like(t) for t in ref]
        state = _AdamState(params)
        rng = np.random.default_rng(5)
        for step in range(1, 4):
            grad = rng.standard_normal(params.flat.size)
            g_w, g_b = _layer_views(arch, grad)
            grads = [g for pair in zip(g_w, g_b) for g in pair]
            _adam_step(params, grad, state, cfg)
            for i, (p, g) in enumerate(zip(ref, grads)):
                p *= 1.0 - cfg.learning_rate * cfg.weight_decay
                m[i] = BETA1 * m[i] + (1.0 - BETA1) * g
                v[i] = BETA2 * v[i] + (1.0 - BETA2) * (g * g)
                p -= cfg.learning_rate * (m[i] / (1.0 - BETA1 ** step)) / (
                    np.sqrt(v[i] / (1.0 - BETA2 ** step)) + ADAM_EPS
                )
        got = [t for pair in zip(params.weights, params.biases) for t in pair]
        assert all(np.array_equal(a, b) for a, b in zip(got, ref))

    def test_step_matches_textbook_bit_for_bit(self):
        # 1 - BETA1**t rounds to exactly 1.0 from t = 356 on, and the step
        # skips its m / bc1
        crossed = [t for t in range(1, 401) if 1.0 - BETA1 ** t == 1.0]
        assert crossed == list(range(356, 401))
        assert 1.0 - BETA1 ** 5000 == 1.0
        params = init_params(Architecture(20, (16,), 8, 4), 3)
        cfg = TrainConfig(learning_rate=0.05, weight_decay=0.1, epochs=1)
        state = _AdamState(params)
        p = params.flat.copy()
        m, v = np.zeros_like(p), np.zeros_like(p)
        rng = np.random.default_rng(9)
        for t in [*range(1, 401), 5000]:
            state.t = t - 1
            grad = rng.standard_normal(p.size)
            _adam_step(params, grad, state, cfg)
            p *= 1.0 - cfg.learning_rate * cfg.weight_decay
            m = BETA1 * m + (1.0 - BETA1) * grad
            v = BETA2 * v + (1.0 - BETA2) * (grad * grad)
            p -= cfg.learning_rate * (m / (1.0 - BETA1 ** t)) / (
                np.sqrt(v / (1.0 - BETA2 ** t)) + ADAM_EPS
            )
            assert state.t == t
            assert np.array_equal(params.flat, p), t
            assert np.array_equal(state.m, m) and np.array_equal(state.v, v), t


class TestAugment:
    H, W, N = 3, 4, 6

    @pytest.mark.parametrize("flip_prob", [0.0, 0.5, 1.0])
    def test_into_buffer_matches_allocating_call(self, flip_prob):
        n, spec = self.N, AugmentSpec(flip_prob=flip_prob)
        X = np.random.default_rng(1).standard_normal((n, self.H * self.W))
        rng_new, rng_out = np.random.default_rng(7), np.random.default_rng(7)
        expected = augment_batch(X, spec, rng_new, self.H, self.W)
        stack = np.full((2 * n, X.shape[1]), np.nan)
        stack[:n] = X
        views = stack[n:]
        got = augment_batch(stack[:n], spec, rng_out, self.H, self.W, out=views)
        assert got is views
        assert views.tobytes() == expected.tobytes()
        assert stack[:n].tobytes() == X.tobytes()
        assert rng_out.random() == rng_new.random()

    @pytest.mark.parametrize("make_out", [
        lambda n, p: np.empty((p, n)).T,
        lambda n, p: np.empty((n, 2 * p))[:, :p],
    ], ids=["transposed", "column-slice"])
    def test_non_contiguous_out_rejected(self, make_out):
        X = np.ones((self.N, self.H * self.W))
        out = make_out(*X.shape)
        with pytest.raises(ValueError, match="C-contiguous"):
            augment_batch(X, AugmentSpec(), np.random.default_rng(0), self.H, self.W, out=out)


class TestFlatParams:
    ARCH = Architecture(4, (3,), 2, 2)
    SIZE = 4 * 3 + 3 + 3 * 2 + 2 + 2 * 2 + 2

    def test_layers_are_views_in_checkpoint_order(self):
        flat = np.arange(self.SIZE, dtype=np.float32)
        params = EncoderParams(self.ARCH, flat)
        assert params.flat.dtype == np.float64
        assert np.array_equal(params.flat, flat)
        shapes = [(4, 3), (3,), (3, 2), (2,), (2, 2), (2,)]
        tensors = [t for pair in zip(params.weights, params.biases) for t in pair]
        assert [t.shape for t in tensors] == shapes
        assert np.array_equal(np.concatenate([t.ravel() for t in tensors]), flat)
        flat[0] = 99.0  # the constructor copied its input
        assert params.weights[0][0, 0] == 0.0
        params.flat[0] = 7.0
        assert params.weights[0][0, 0] == 7.0
        assert all(np.shares_memory(t, params.flat) for t in tensors)

    @pytest.mark.parametrize("flat,message", [
        (np.zeros(SIZE - 1), r"shape \(28,\), expected \(29,\)"),
        (np.zeros(SIZE + 1), r"shape \(30,\), expected \(29,\)"),
        (np.zeros((SIZE, 1)), r"shape \(29, 1\), expected \(29,\)"),
        (np.r_[np.zeros(SIZE - 1), np.nan], "non-finite"),
        (np.r_[-np.inf, np.zeros(SIZE - 1)], "non-finite"),
    ], ids=["short", "long", "2-D", "nan", "-inf"])
    def test_malformed_vector_rejected(self, flat, message):
        with pytest.raises(ValueError, match=message):
            EncoderParams(self.ARCH, flat)


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
        r1 = train(ds, loss_cfg, self.cfg())
        r2 = train(ds, loss_cfg, self.cfg())
        assert r1.epoch_losses == r2.epoch_losses
        for w1, w2 in zip(r1.params.weights, r2.params.weights):
            assert np.array_equal(w1, w2)
        assert all(np.isfinite(x) for x in r1.epoch_losses)

    def test_descent_ntxent_only(self):
        loss_cfg = LossConfig(tau=0.1, ntxent=1.0, patient=0, volume=0, slice_group=0)
        for seed in range(3):
            ds = self.small_ds(seed)
            res = train(ds, loss_cfg, self.cfg(epochs=30, seed=seed))
            assert res.epoch_losses[-1] < res.epoch_losses[0]

    def test_zero_gradient_training_is_pure_decay(self):
        # one patient, batches of one slice, NT-Xent only: each anchor's
        # denominator is its own view, the loss is identically zero, and
        # steps reduce the global parameter norm
        from conftest import make_dataset

        ds = make_dataset(
            [(0, v, 1) for v in range(6)],
            [[float(v), 0.0] for v in range(6)],
            h=1, w=2,
        )
        loss_cfg = LossConfig(tau=0.1, ntxent=1.0, patient=0, volume=0, slice_group=0)
        cfg = self.cfg(epochs=3, batch_size=1, weight_decay=0.01, learning_rate=0.1)
        res = train(ds, loss_cfg, cfg)
        assert res.epoch_losses == [0.0, 0.0, 0.0]
        init = init_params(res.params.arch, np.random.SeedSequence([cfg.seed, 0]))
        norm_before = np.sqrt(sum(np.sum(w ** 2) for w in init.weights))
        norm_after = np.sqrt(sum(np.sum(w ** 2) for w in res.params.weights))
        assert norm_after < norm_before

    def test_oversized_batch_rejected_before_first_epoch(self, monkeypatch):
        from slicepick import SettingError, sampler

        plans = []
        monkeypatch.setattr(sampler, "build_epoch", lambda *args: plans.append(args))
        loss_cfg = LossConfig(tau=0.1, ntxent=1.0, patient=0, volume=0, slice_group=0)
        # two patients: a batch holds at most two 1-slice tuples
        with pytest.raises(SettingError, match="batch_size must be at most 2: .*, got 3$"):
            train(self.small_ds(), loss_cfg, self.cfg(batch_size=3))
        assert plans == []

    def test_divergence_guard(self):
        ds = self.small_ds()
        loss_cfg = LossConfig(tau=0.1, ntxent=1.0, patient=0, volume=0, slice_group=0)
        with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError):
            train(ds, loss_cfg, self.cfg(epochs=5, learning_rate=1e155))

    def test_epochs_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)


class TestEmbedAll:
    def test_matches_forward_calls_exactly(self):
        ds = TestTraining().small_ds()
        params = init_params(Architecture(ds.h * ds.w, (6,), 4, 3), 1)
        emb = embed_all(params, ds)
        assert emb.shape == (ds.n, 4)
        for i, x in enumerate(ds.pixel_matrix()):
            assert np.array_equal(emb[i], forward(params, x)[0])

    def test_other_pixel_size_rejected_before_the_first_row(self, monkeypatch):
        from slicepick import encoder

        ds = TestTraining().small_ds()
        params = init_params(Architecture(ds.h * ds.w + 1, (6,), 4, 3), 1)
        calls = []
        monkeypatch.setattr(encoder, "forward", lambda *a: calls.append(a))
        with pytest.raises(ValueError, match=r"input_dim 10 does not match 3x3 = 9 pixels"):
            embed_all(params, ds)
        assert calls == []

    def test_zero_params_zero_matrix(self):
        ds = TestTraining().small_ds()
        arch = Architecture(ds.h * ds.w, (2,), 2, 2)
        params = EncoderParams(arch, np.zeros_like(init_params(arch, 0).flat))
        assert np.all(embed_all(params, ds) == 0)

    def test_permutation_equivariance(self):
        ds = TestTraining().small_ds()
        params = init_params(Architecture(ds.h * ds.w, (6,), 4, 3), 1)
        perm = np.random.default_rng(3).permutation(ds.n)
        permuted = DatasetIndex(ds.ids[perm], ds.pixel_matrix()[perm], ds.h, ds.w)
        assert np.array_equal(embed_all(params, permuted), embed_all(params, ds)[perm])


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        arch = Architecture(input_dim=6, hidden=(5,), rep_dim=4, proj_dim=3)
        params = init_params(arch, 7)
        cfg = TrainConfig(epochs=1, seed=7)
        path = tmp_path / "enc.ckpt"
        write_atomic(path, checkpoint_bytes(params, cfg))
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
        write_atomic(path, checkpoint_bytes(params, TrainConfig(epochs=1)))
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
            8 + head_len: "parameter blob holds", len(raw) - 5: "parameter blob holds",
            len(raw) - 1: "parameter blob holds",
        }
        for cut, field in cuts.items():
            path = tmp_path / f"cut{cut}.ckpt"
            path.write_bytes(raw[:cut])
            with pytest.raises(FormatError) as exc:
                load_checkpoint(path)
            assert str(path) in str(exc.value) and field in str(exc.value), (cut, exc.value)

    def test_non_finite_blob_rejected(self, tmp_path):
        raw, _ = self.saved(tmp_path)
        path = tmp_path / "nan.ckpt"
        path.write_bytes(raw[:-4] + np.array([np.nan], dtype="<f4").tobytes())
        with pytest.raises(FormatError, match="parameter blob contains non-finite") as exc:
            load_checkpoint(path)
        assert str(path) in str(exc.value)

    def test_trailing_bytes_rejected(self, tmp_path):
        raw, _ = self.saved(tmp_path)
        path = tmp_path / "long.ckpt"
        path.write_bytes(raw + b"\x00" * 4)
        with pytest.raises(FormatError, match="parameter blob holds"):
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

    @pytest.mark.parametrize("version", [True, 1.0, "1", 2])
    def test_format_version_must_be_the_integer_one(self, tmp_path, version):
        path = self.with_header(
            tmp_path, lambda header: header.__setitem__("format_version", version)
        )
        with pytest.raises(FormatError) as exc:
            load_checkpoint(path)
        rule = "unsupported" if version == 2 else "must be an integer"
        assert str(path) in str(exc.value) and "'format_version'" in str(exc.value)
        assert rule in str(exc.value)

    @pytest.mark.parametrize("value", [3.7, 4.0, "4", True, None, 2 ** 70])
    @pytest.mark.parametrize("key", ["input_dim", "hidden[0]", "rep_dim", "proj_dim"])
    def test_every_dimension_is_a_json_integer(self, tmp_path, key, value):
        def edit(header):
            if key == "hidden[0]":
                header["architecture"]["hidden"][0] = value
            else:
                header["architecture"][key] = value

        path = self.with_header(tmp_path, edit)
        with pytest.raises(FormatError) as exc:
            load_checkpoint(path)
        rule = (f"does not fit in int64: {value}" if value == 2 ** 70
                else f"must be an integer, got {value!r}")
        assert str(exc.value) == (
            f"{path}: checkpoint header key 'architecture' has invalid dimensions: "
            f"'architecture.{key}' {rule}"
        )

    def test_zero_width_names_its_key(self, tmp_path):
        path = self.with_header(
            tmp_path, lambda header: header["architecture"]["hidden"].__setitem__(0, 0)
        )
        with pytest.raises(FormatError) as exc:
            load_checkpoint(path)
        assert str(exc.value).endswith("'architecture.hidden[0]' must be >= 1, got 0")

    def test_corrupt_header_json(self, tmp_path):
        raw, head_len = self.saved(tmp_path)
        path = tmp_path / "garbled.ckpt"
        path.write_bytes(raw[:8] + b"\xff" * head_len + raw[8 + head_len:])
        with pytest.raises(FormatError, match="checkpoint header: invalid JSON"):
            load_checkpoint(path)
