"""A small MLP encoder with projection head, trained by ADAM on the
combined contrastive loss.

The network is affine layers over flattened pixels: ReLU on the hidden
layers, a linear representation layer, and a linear projection layer. The
projection output feeds the loss; the pre-projection representation is what
downstream selection uses as the learned feature space. Backpropagation is
written out by hand; training is single-threaded and bit-reproducible for a
fixed seed.
"""

import json
import struct
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import sampler
from ._io import write_atomic
from .errors import FormatError, SamplerError, TrainingDivergedError
from .losses import LossBatch, loss_and_grad, slice_positives_from_rows

CHECKPOINT_MAGIC = b"SENC"


@dataclass(frozen=True)
class Architecture:
    input_dim: int
    hidden: tuple = (64, 64)
    rep_dim: int = 32
    proj_dim: int = 16

    def layer_dims(self):
        dims = (self.input_dim, *self.hidden, self.rep_dim, self.proj_dim)
        return list(zip(dims[:-1], dims[1:]))


@dataclass(eq=False)
class EncoderParams:
    """Weights and biases for every layer, ordered hidden -> rep -> proj."""

    arch: Architecture
    weights: list
    biases: list

    def __post_init__(self):
        dims = self.arch.layer_dims()
        if len(self.weights) != len(dims) or len(self.biases) != len(dims):
            raise ValueError(f"expected {len(dims)} layers")
        for layer, (w, b, (fi, fo)) in enumerate(zip(self.weights, self.biases, dims)):
            if w.shape != (fi, fo) or b.shape != (fo,):
                raise ValueError(f"layer {layer} shapes do not chain: {w.shape}, {b.shape}")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError(f"layer {layer} contains non-finite parameters")

    @property
    def param_count(self):
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    def copy(self):
        return EncoderParams(
            self.arch, [w.copy() for w in self.weights], [b.copy() for b in self.biases]
        )


@dataclass(frozen=True)
class AugmentSpec:
    """Stochastic view generation: intensity jitter, horizontal flip, noise."""

    flip_prob: float = 0.5
    noise_sigma: float = 0.05
    scale_jitter: tuple = (0.9, 1.1)

    def __post_init__(self):
        if not 0 <= self.flip_prob <= 1:
            raise ValueError("flip_prob must be in [0, 1]")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be nonnegative")
        if self.scale_jitter[0] > self.scale_jitter[1]:
            raise ValueError("scale_jitter must be (lo, hi) with lo <= hi")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 3e-4
    weight_decay: float = 1e-6
    epochs: int = 100
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    batch_size: int = None  # None: stock 8/9 rule, capped by patient count
    hidden: tuple = (64, 64)
    rep_dim: int = 32
    proj_dim: int = 16
    augment: AugmentSpec = field(default_factory=AugmentSpec)
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be nonnegative")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("ADAM betas must lie in [0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")


@dataclass
class TrainResult:
    params: EncoderParams
    epoch_losses: list


def epoch_seed(seed, epoch):
    """Seed stream for the batch plan of one epoch of one training run."""
    return np.random.SeedSequence([seed, 2 + epoch])


def init_params(arch, seed):
    """Uniform +-sqrt(6/(fan_in+fan_out)) weights and biases, per layer.

    Biases draw from the same distribution (weights first, then biases) so a
    row whose hidden units are all inactive still maps to a nonzero
    projection; cosine similarity stays well-conditioned from step one.
    """
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fi, fo in arch.layer_dims():
        limit = np.sqrt(6.0 / (fi + fo))
        weights.append(rng.uniform(-limit, limit, size=(fi, fo)))
        biases.append(rng.uniform(-limit, limit, size=fo))
    return EncoderParams(arch, weights, biases)


def _forward_batch(params, X):
    """Forward pass for a (rows, input_dim) matrix; keeps the cache needed
    for backprop. Returns (representations, projections, cache)."""
    n_hidden = len(params.arch.hidden)
    acts = [X]
    pre = []
    A = X
    for layer in range(n_hidden):
        Z = A @ params.weights[layer] + params.biases[layer]
        pre.append(Z)
        A = np.maximum(Z, 0.0)
        acts.append(A)
    rep = acts[-1] @ params.weights[n_hidden] + params.biases[n_hidden]
    proj = rep @ params.weights[n_hidden + 1] + params.biases[n_hidden + 1]
    return rep, proj, (acts, pre, rep)


def _backward_batch(params, cache, d_proj):
    """Gradients of all weights/biases given d(loss)/d(projection)."""
    acts, pre, rep = cache
    n_hidden = len(params.arch.hidden)
    g_w = [None] * (n_hidden + 2)
    g_b = [None] * (n_hidden + 2)
    g_w[n_hidden + 1] = rep.T @ d_proj
    g_b[n_hidden + 1] = d_proj.sum(axis=0)
    d_rep = d_proj @ params.weights[n_hidden + 1].T
    g_w[n_hidden] = acts[n_hidden].T @ d_rep
    g_b[n_hidden] = d_rep.sum(axis=0)
    dA = d_rep @ params.weights[n_hidden].T
    for layer in reversed(range(n_hidden)):
        dZ = dA * (pre[layer] > 0)
        g_w[layer] = acts[layer].T @ dZ
        g_b[layer] = dZ.sum(axis=0)
        dA = dZ @ params.weights[layer].T
    return g_w, g_b


def forward(params, pixels):
    """Representation and projection for one flat pixel vector."""
    x = np.asarray(pixels, dtype=np.float64)
    if x.shape != (params.arch.input_dim,):
        raise ValueError(
            f"pixel vector has shape {x.shape}, expected ({params.arch.input_dim},)"
        )
    rep, proj, _ = _forward_batch(params, x[None, :])
    return rep[0], proj[0]


def embed_all(params, ds):
    """Representation matrix (n, rep_dim), row i for slices[i], no augmentation."""
    return np.stack([forward(params, rec.pixels)[0] for rec in ds.slices])


def augment_batch(X, spec, rng, h, w):
    """One stochastic view per row: scale jitter, maybe horizontal flip, noise.

    Draw order (scales, flips, noise) is fixed so a given rng state always
    produces the same views.
    """
    n = X.shape[0]
    lo, hi = spec.scale_jitter
    scales = rng.uniform(lo, hi, size=n)
    flips = rng.random(size=n) < spec.flip_prob
    noise = rng.standard_normal(size=X.shape) * spec.noise_sigma
    out = X * scales[:, None]
    if flips.any():
        img = out.reshape(n, h, w)
        img[flips] = img[flips, :, ::-1]
        out = img.reshape(n, h * w)
    return out + noise


class _AdamState:
    def __init__(self, params):
        self.m_w = [np.zeros_like(w) for w in params.weights]
        self.v_w = [np.zeros_like(w) for w in params.weights]
        self.m_b = [np.zeros_like(b) for b in params.biases]
        self.v_b = [np.zeros_like(b) for b in params.biases]
        self.t = 0


def _adam_step(params, g_w, g_b, state, cfg):
    # decoupled weight decay: multiplicative shrink before the moment update
    state.t += 1
    shrink = 1.0 - cfg.learning_rate * cfg.weight_decay
    bc1 = 1.0 - cfg.beta1 ** state.t
    bc2 = 1.0 - cfg.beta2 ** state.t
    for tensors, grads, ms, vs in (
        (params.weights, g_w, state.m_w, state.v_w),
        (params.biases, g_b, state.m_b, state.v_b),
    ):
        for i, (p, g) in enumerate(zip(tensors, grads)):
            p *= shrink
            ms[i] = cfg.beta1 * ms[i] + (1.0 - cfg.beta1) * g
            vs[i] = cfg.beta2 * vs[i] + (1.0 - cfg.beta2) * (g * g)
            p -= cfg.learning_rate * (ms[i] / bc1) / (np.sqrt(vs[i] / bc2) + cfg.adam_eps)


def _batch_loss_input(ds, X, batch_tuples, loss_cfg, aug_spec, rng):
    """Assemble the two-view LossBatch and cache metadata for one batch."""
    sids = [sid for t in batch_tuples for sid in t.slice_ids()]
    rows = [ds.row_of(s) for s in sids]
    originals = X[rows]
    views = augment_batch(originals, aug_spec, rng, ds.h, ds.w)
    stacked = np.vstack([originals, views])
    recs = [ds.slices[r] for r in rows]
    pid = np.array([r.patient_id for r in recs] * 2)
    vid = np.array([r.volume_id for r in recs] * 2)
    meta = dict(
        slice_ids=np.array([r.slice_id for r in recs] * 2),
        volume_ids=vid,
        slice_indices=np.array([r.slice_index for r in recs] * 2),
        patient_ids=pid,
    )
    slice_pos = None
    if loss_cfg.slice_group > 0:
        slice_pos = slice_positives_from_rows(
            meta["slice_ids"], meta["volume_ids"], meta["slice_indices"]
        )
    return stacked, pid, vid, slice_pos


def train(ds, enabled_groups, loss_cfg, train_cfg):
    """Train the encoder on the full slice pool; returns a TrainResult.

    Each epoch builds a fresh batch plan (epoch-derived seed), augments
    every batch slice once to form the 2N-row view stack, and applies one
    ADAM step per batch on the combined loss.
    """
    if enabled_groups is None:
        enabled_groups = loss_cfg.enabled_groups
    batch_size = train_cfg.batch_size
    if batch_size is None:
        batch_size = sampler.default_batch_size(
            enabled_groups, n_patients=len(ds.patient_volumes)
        )
    X = ds.pixel_matrix()
    arch = Architecture(
        input_dim=ds.h * ds.w,
        hidden=tuple(train_cfg.hidden),
        rep_dim=train_cfg.rep_dim,
        proj_dim=train_cfg.proj_dim,
    )
    params = init_params(arch, np.random.SeedSequence([train_cfg.seed, 0]))
    state = _AdamState(params)
    aug_rng = np.random.default_rng(np.random.SeedSequence([train_cfg.seed, 1]))

    epoch_losses = []
    for epoch in range(train_cfg.epochs):
        plan = sampler.build_epoch(
            ds, enabled_groups, batch_size, epoch_seed(train_cfg.seed, epoch)
        )
        if not plan.batches:
            raise SamplerError(
                f"batch size {batch_size} yields no batches on this dataset"
            )
        batch_losses = []
        for batch_tuples in plan.batches:
            stacked, pid, vid, slice_pos = _batch_loss_input(
                ds, X, batch_tuples, loss_cfg, train_cfg.augment, aug_rng
            )
            _, proj, cache = _forward_batch(params, stacked)
            if not np.all(np.isfinite(proj)):
                raise TrainingDivergedError(
                    f"non-finite projections at epoch {epoch}, aborting"
                )
            # the stack is finite (checked above) and built well-formed
            batch = LossBatch(
                z=proj, patient_ids=pid, volume_ids=vid, slice_positives=slice_pos,
                validate=False,
            )
            loss, d_proj = loss_and_grad(batch, loss_cfg)
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, aborting"
                )
            g_w, g_b = _backward_batch(params, cache, d_proj)
            _adam_step(params, g_w, g_b, state, train_cfg)
            batch_losses.append(loss)
        epoch_losses.append(float(np.mean(batch_losses)))
    return TrainResult(params=params, epoch_losses=epoch_losses)


# ---------------------------------------------------------------------------
# checkpoint file: magic + u32 header length + JSON header + float32 LE blob

def save_checkpoint(path, params, train_cfg=None, seed=None):
    header = {
        "format_version": 1,
        "architecture": {
            "input_dim": params.arch.input_dim,
            "hidden": list(params.arch.hidden),
            "rep_dim": params.arch.rep_dim,
            "proj_dim": params.arch.proj_dim,
        },
        "train_cfg": asdict(train_cfg) if train_cfg is not None else None,
        "seed": seed,
    }
    blob = b"".join(
        np.ascontiguousarray(t, dtype="<f4").tobytes()
        for w, b in zip(params.weights, params.biases)
        for t in (w, b)
    )
    head = json.dumps(header, sort_keys=True).encode()
    write_atomic(path, CHECKPOINT_MAGIC + struct.pack("<I", len(head)) + head + blob)


def _checkpoint_arch(path, header):
    a = header.get("architecture")
    if not isinstance(a, dict):
        raise FormatError(f"{path}: checkpoint header key 'architecture' is missing")
    for key in ("input_dim", "hidden", "rep_dim", "proj_dim"):
        if key not in a:
            raise FormatError(
                f"{path}: checkpoint header key 'architecture.{key}' is missing"
            )
    try:
        hidden = tuple(int(d) for d in a["hidden"])
        arch = Architecture(int(a["input_dim"]), hidden, int(a["rep_dim"]), int(a["proj_dim"]))
        valid = min(d for layer in arch.layer_dims() for d in layer) >= 1
    except (TypeError, ValueError):
        valid = False
    if not valid:
        raise FormatError(
            f"{path}: checkpoint header key 'architecture' has invalid dimensions {a}"
        )
    return arch


def load_checkpoint(path):
    """Read a checkpoint; returns (EncoderParams, header dict).

    A truncated or corrupt file raises FormatError naming the path and the
    part that is wrong: magic, header length, header key or blob size.
    """
    raw = Path(path).read_bytes()
    if raw[:4] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: bad checkpoint magic {raw[:4]!r}")
    if len(raw) < 8:
        raise FormatError(
            f"{path}: truncated checkpoint header length ({len(raw)} bytes, need 8)"
        )
    (head_len,) = struct.unpack("<I", raw[4:8])
    if len(raw) < 8 + head_len:
        raise FormatError(
            f"{path}: checkpoint header length {head_len} runs past the end "
            f"of the {len(raw)}-byte file"
        )
    try:
        header = json.loads(raw[8 : 8 + head_len])
    except ValueError as exc:
        raise FormatError(f"{path}: corrupt checkpoint header: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError(f"{path}: checkpoint header is not a JSON object")
    if header.get("format_version") != 1:
        raise FormatError(
            f"{path}: unsupported checkpoint header key 'format_version' "
            f"{header.get('format_version')!r}"
        )
    arch = _checkpoint_arch(path, header)
    blob_bytes = len(raw) - 8 - head_len
    expected = 4 * sum(fi * fo + fo for fi, fo in arch.layer_dims())
    if blob_bytes != expected:
        raise FormatError(
            f"{path}: parameter blob size is {blob_bytes} bytes, expected {expected}"
        )
    blob = np.frombuffer(raw, dtype="<f4", offset=8 + head_len)
    weights, biases = [], []
    pos = 0
    for fi, fo in arch.layer_dims():
        weights.append(blob[pos : pos + fi * fo].astype(np.float64).reshape(fi, fo))
        pos += fi * fo
        biases.append(blob[pos : pos + fo].astype(np.float64))
        pos += fo
    try:
        return EncoderParams(arch, weights, biases), header
    except ValueError as exc:
        raise FormatError(f"{path}: parameter blob: {exc}") from exc


def write_loss_history(path, epoch_losses):
    lines = ["epoch,mean_loss"]
    lines += [f"{e + 1},{loss!r}" for e, loss in enumerate(epoch_losses)]
    write_atomic(path, "\n".join(lines) + "\n")
