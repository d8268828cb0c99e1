"""A small MLP encoder with projection head, trained by ADAM on the
combined contrastive loss.

The network is affine layers over flattened pixels: ReLU on the hidden
layers, a linear representation layer, and a linear projection layer. The
projection output feeds the loss; the pre-projection representation is what
downstream selection uses as the learned feature space. Backpropagation is
written out by hand; training is single-threaded and bit-reproducible for a
fixed seed.

Every weight and bias lives in one float64 vector laid out W0, b0, W1, b1,
...: ``EncoderParams`` is built from that vector alone, and its per-layer
arrays are views into it. The gradient and the ADAM moments are vectors
with the same layout, so an ADAM step is one update over the whole vector,
in place through two scratch vectors allocated once per run, and a
checkpoint's parameter blob is that vector in little-endian float32, written
only if ``load_checkpoint`` would take it back (``_io``'s file rules).

Each epoch's batch plan is already dataset rows. The epoch reads their
patient, volume, slice and depth ids from the dataset's identity table,
once, into one ``LossStructure`` of its loss masks, whose loss tables the
first step builds. A step then only gathers its rows into the top half of
one (2N, p) input buffer and their augmented views into the bottom half,
runs forward, evaluates the loss, runs backward into gradient views built
once per run (stopping at the first layer's parameters), and updates ADAM.
The buffer is allocated once per run, like the gradient and ADAM's scratch
vectors; the step's reductions call the ufunc methods (``np.add.reduce``,
``np.logical_and.reduce``), not numpy's Python wrappers; and every step
rounds as the textbook expressions do.
"""

import json
import math
import struct
from dataclasses import dataclass, field, asdict, replace
from pathlib import Path

import numpy as np

from . import _io, sampler
from .errors import FormatError, SettingError, TrainingDivergedError
from .losses import LossBatch, LossStructure, loss_and_grad, slice_positives_from_rows

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


def _is_width(d):
    """The one rule for a layer width, in configs and checkpoints: >= 1."""
    return d >= 1


def _layer_views(arch, flat):
    """Per-layer (weights, biases) views into a vector laid out W0, b0, W1, b1, ..."""
    weights, biases = [], []
    pos = 0
    for fi, fo in arch.layer_dims():
        weights.append(flat[pos : pos + fi * fo].reshape(fi, fo))
        pos += fi * fo
        biases.append(flat[pos : pos + fo])
        pos += fo
    return weights, biases


def _param_count(arch):
    return sum(fi * fo + fo for fi, fo in arch.layer_dims())


@dataclass(eq=False)
class EncoderParams:
    """Weights and biases for every layer, ordered hidden -> rep -> proj.

    The constructor copies ``flat``, the vector of every parameter laid out
    W0, b0, W1, b1, ..., as float64, and checks its length and that every
    value is finite; ``weights`` and ``biases`` are per-layer views into it.
    """

    arch: Architecture
    flat: np.ndarray = field(repr=False)
    weights: list = field(init=False, repr=False)
    biases: list = field(init=False, repr=False)

    def __post_init__(self):
        self.flat, size = np.array(self.flat, dtype=np.float64), _param_count(self.arch)
        if self.flat.shape != (size,):
            raise ValueError(f"parameter vector has shape {self.flat.shape}, expected ({size},)")
        if not np.all(np.isfinite(self.flat)):
            raise ValueError("non-finite parameters")
        self.weights, self.biases = _layer_views(self.arch, self.flat)


@dataclass(frozen=True)
class AugmentSpec:
    """Stochastic view generation: intensity jitter, horizontal flip, noise."""

    flip_prob: float = 0.5
    noise_sigma: float = 0.05
    scale_jitter: tuple = (0.9, 1.1)

    def __post_init__(self):
        if not 0 <= self.flip_prob <= 1:
            raise SettingError("augment", self, "flip_prob", "lie in [0, 1]")
        if not 0 <= self.noise_sigma < math.inf:
            raise SettingError("augment", self, "noise_sigma", "be finite and nonnegative")
        lo, hi = self.scale_jitter
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise SettingError("augment", self, "scale_jitter", "be finite (lo, hi) with lo <= hi")


# ADAM's moment decays and denominator offset: Kingma & Ba's defaults, no setting
BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 3e-4
    weight_decay: float = 1e-6
    epochs: int = 100
    batch_size: int = None  # None: stock 8/9 rule, capped by patient count
    hidden: tuple = (64, 64)
    rep_dim: int = 32
    proj_dim: int = 16
    augment: AugmentSpec = field(default_factory=AugmentSpec)
    seed: int = 0

    def __post_init__(self):
        for name in ("learning_rate", "weight_decay"):
            if not math.isfinite(getattr(self, name)):
                raise SettingError("training", self, name, "be finite")
        if not all(_is_width(d) for d in self.hidden):
            raise SettingError("training", self, "hidden", "hold layer widths >= 1")
        for name in ("rep_dim", "proj_dim"):
            if not _is_width(getattr(self, name)):
                raise SettingError("training", self, name, "be a layer width >= 1")
        if self.batch_size is not None:
            sampler.check_batch_size(self.batch_size)
        if self.learning_rate <= 0:
            raise SettingError("training", self, "learning_rate", "be positive")
        if self.weight_decay < 0:
            raise SettingError("training", self, "weight_decay", "be nonnegative")
        if self.epochs < 1:
            raise SettingError("training", self, "epochs", "be >= 1")
        if self.seed < 0:
            raise SettingError("training", self, "seed", "be a nonnegative integer")


@dataclass
class TrainResult:
    params: EncoderParams
    epoch_losses: list
    config: TrainConfig  # the settings trained with, the stock batch size resolved
    first_plan: sampler.EpochPlan  # epoch 0's batch plan


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
    flat = np.empty(_param_count(arch))
    for w, b in zip(*_layer_views(arch, flat)):
        limit = np.sqrt(6.0 / sum(w.shape))
        w[...] = rng.uniform(-limit, limit, size=w.shape)
        b[...] = rng.uniform(-limit, limit, size=b.shape)
    return EncoderParams(arch, flat)


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


def _backward_batch(params, cache, d_proj, views=None):
    """Gradient of all weights/biases given d(loss)/d(projection).

    Writes into ``views``, the per-layer (weights, biases) views of a vector
    laid out like ``params.flat`` (of a new one when None), and returns them.
    It stops at layer 0's gradients: nothing reads the gradient of the
    input, so that product is never formed.
    """
    acts, pre, rep = cache
    n_hidden = len(params.arch.hidden)
    if views is None:
        views = _layer_views(params.arch, np.empty_like(params.flat))
    g_w, g_b = views
    np.matmul(rep.T, d_proj, out=g_w[n_hidden + 1])
    np.add.reduce(d_proj, axis=0, out=g_b[n_hidden + 1])
    # dZ: d(loss)/d(pre-activation) of ``layer``, the rep layer's first
    dZ = d_proj @ params.weights[n_hidden + 1].T
    for layer in reversed(range(n_hidden + 1)):
        np.matmul(acts[layer].T, dZ, out=g_w[layer])
        np.add.reduce(dZ, axis=0, out=g_b[layer])
        if layer:
            dZ = (dZ @ params.weights[layer].T) * (pre[layer - 1] > 0)
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
    """Representation matrix (n, rep_dim), row i for pixel row i, no augmentation:
    one ``forward`` per pixel row, once the row width matches ``input_dim``."""
    X = ds.pixel_matrix()
    if X.shape[1] != params.arch.input_dim:
        raise ValueError(
            f"encoder input_dim {params.arch.input_dim} does not match "
            f"{ds.h}x{ds.w} = {X.shape[1]} pixels per slice"
        )
    return np.stack([forward(params, x)[0] for x in X])


def augment_batch(X, spec, rng, h, w, out=None):
    """One stochastic view per row: scale jitter, maybe horizontal flip, noise.

    Draw order (scales, flips, noise) is fixed so a given rng state always
    produces the same views. The views are written into ``out``, a
    C-contiguous array shaped like ``X`` (a new one when None), and
    returned; ``X`` is only read.
    """
    n = X.shape[0]
    lo, hi = spec.scale_jitter
    scales = rng.uniform(lo, hi, size=n)
    flips = rng.random(size=n) < spec.flip_prob
    noise = rng.standard_normal(size=X.shape)
    noise *= spec.noise_sigma
    if out is None:
        out = np.empty(X.shape)
    elif not out.flags.c_contiguous:
        # a reshape of it would be a copy, and the flip would be lost
        raise ValueError("augment_batch needs a C-contiguous out array")
    np.multiply(X, scales[:, None], out=out)
    if np.logical_or.reduce(flips):
        img = out.reshape(n, h, w)
        img[flips] = img[flips, :, ::-1]
    out += noise
    return out


class _AdamState:
    def __init__(self, params):
        self.m = np.zeros_like(params.flat)
        self.v = np.zeros_like(params.flat)
        self.t = 0
        # scratch vectors of the in-place step
        self.a = np.empty_like(params.flat)
        self.b = np.empty_like(params.flat)


def _adam_step(params, grad, state, cfg):
    """One ADAM step on ``params.flat`` given a gradient vector of the same
    layout; decoupled weight decay shrinks the parameters first.

    Every update is in place, through the state's two scratch vectors, and
    rounds as the textbook expressions do:
    m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2 and
    p -= lr (m / bc1) / (sqrt(v / bc2) + eps), with b1, b2 and eps the
    constants ``BETA1``, ``BETA2`` and ``ADAM_EPS``. Once bc1 = 1 - b1^t
    rounds to exactly 1.0 (t >= 356), m / bc1 is m itself, so that
    division is skipped.
    """
    state.t += 1
    bc1 = 1.0 - BETA1 ** state.t
    bc2 = 1.0 - BETA2 ** state.t
    p, m, v, a, b = params.flat, state.m, state.v, state.a, state.b
    p *= 1.0 - cfg.learning_rate * cfg.weight_decay
    m *= BETA1
    np.multiply(grad, 1.0 - BETA1, out=a)
    m += a
    v *= BETA2
    np.multiply(grad, grad, out=a)
    a *= 1.0 - BETA2
    v += a
    if bc1 == 1.0:
        np.multiply(m, cfg.learning_rate, out=a)
    else:
        np.divide(m, bc1, out=a)
        a *= cfg.learning_rate
    np.divide(v, bc2, out=b)
    np.sqrt(b, out=b)
    b += ADAM_EPS
    a /= b
    p -= a


def train(ds, loss_cfg, train_cfg):
    """Train the encoder on the full slice pool; returns a TrainResult.

    Each epoch builds a fresh batch plan of dataset rows (epoch-derived
    seed) and the loss structure of their ids in ``ds.ids``; each step
    gathers its batch's N rows and their N augmented views into the one
    2N-row input buffer, and applies one ADAM step on the combined loss;
    ``loss_cfg``'s group terms choose the companions.
    ``sampler.epoch_batch_size`` checks the batch size and companion pools
    before any work, and resolves a ``batch_size`` of None to the stock
    size; the result's ``config`` holds it, and ``first_plan`` the plan of
    epoch 0. ``sampler.build_epoch``, ``augment_batch``,
    ``LossBatch`` and ``loss_and_grad`` are looked up as globals on every
    epoch or step, where an outside tracer can wrap them.
    """
    train_cfg = replace(train_cfg, batch_size=sampler.epoch_batch_size(
        ds, loss_cfg.enabled_groups, train_cfg.batch_size
    ))
    X = ds.pixel_matrix()
    arch = Architecture(
        input_dim=ds.h * ds.w,
        hidden=tuple(train_cfg.hidden),
        rep_dim=train_cfg.rep_dim,
        proj_dim=train_cfg.proj_dim,
    )
    params = init_params(arch, np.random.SeedSequence([train_cfg.seed, 0]))
    state = _AdamState(params)
    grad = np.empty_like(params.flat)
    grad_views = _layer_views(arch, grad)
    # each step's network input: its batch rows on top, their views below
    n = train_cfg.batch_size
    stack = np.empty((2 * n, X.shape[1]))
    aug_rng = np.random.default_rng(np.random.SeedSequence([train_cfg.seed, 1]))

    epoch_losses = []
    # divergence ends in one TrainingDivergedError below, not numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(train_cfg.epochs):
            plan = sampler.build_epoch(
                ds, loss_cfg.enabled_groups, train_cfg.batch_size, epoch_seed(train_cfg.seed, epoch)
            )
            if epoch == 0:
                first_plan = plan
            rows = plan.batches.reshape(len(plan.batches), n)
            # take, unlike ds.ids[...].T, yields contiguous (B, 2N) id rows
            sid, pid, vid, depth = ds.ids.T.take(np.concatenate([rows, rows], axis=1), axis=1)
            slice_pos = None
            if "slice" in loss_cfg.terms:
                slice_pos = slice_positives_from_rows(sid, vid, depth)
            structure = LossStructure(pid, vid, slice_pos, loss_cfg.terms)
            batch_losses = []
            for b in range(len(rows)):
                stack[:n] = X[rows[b]]  # widened: take's out= would not cast
                augment_batch(stack[:n], train_cfg.augment, aug_rng, ds.h, ds.w, out=stack[n:])
                _, proj, cache = _forward_batch(params, stack)
                if not np.logical_and.reduce(np.isfinite(proj), axis=None):
                    raise TrainingDivergedError(
                        f"non-finite projections at epoch {epoch}, aborting"
                    )
                loss, d_proj = loss_and_grad(
                    LossBatch(z=proj, structure=structure, index=b), loss_cfg
                )
                if not math.isfinite(loss):
                    raise TrainingDivergedError(
                        f"non-finite loss at epoch {epoch}, aborting"
                    )
                _backward_batch(params, cache, d_proj, grad_views)
                _adam_step(params, grad, state, train_cfg)
                batch_losses.append(loss)
            epoch_losses.append(float(np.mean(batch_losses)))
            del structure  # its loss tables go before the next epoch builds its own
    return TrainResult(params, epoch_losses, train_cfg, first_plan)


# ---------------------------------------------------------------------------
# checkpoint file: magic + u32 header length + JSON header + float32 LE blob

def checkpoint_bytes(params, train_cfg, path="checkpoint"):
    """The checkpoint file of ``params``; the header keeps ``train_cfg``,
    ADAM's constants included, and its seed. Parameters that are not finite
    in float32 are a FormatError naming ``path``, the file it is for."""
    blob = _io.f32_payload(path, params.flat, "parameter blob")
    settings = {**asdict(train_cfg), "beta1": BETA1, "beta2": BETA2, "adam_eps": ADAM_EPS}
    header = {
        "format_version": _io.FORMAT_VERSION,
        "architecture": asdict(params.arch),
        "train_cfg": settings,
        "seed": train_cfg.seed,
    }
    head = json.dumps(header, sort_keys=True).encode()
    return b"".join((CHECKPOINT_MAGIC, struct.pack("<I", len(head)), head, blob))


def _checkpoint_arch(path, header):
    a = header.get("architecture")
    if not isinstance(a, dict):
        raise FormatError(f"{path}: checkpoint header key 'architecture' is missing")
    # each dimension is a JSON integer and a layer width, its error named by its key
    invalid = f"{path}: checkpoint header key 'architecture' has invalid dimensions"
    hidden = a.get("hidden")
    if not isinstance(hidden, list):
        raise FormatError(f"{invalid}: 'architecture.hidden' must be a list, got {hidden!r}")
    keys = ["input_dim", *(f"hidden[{i}]" for i in range(len(hidden))), "rep_dim", "proj_dim"]
    values = [a.get("input_dim"), *hidden, a.get("rep_dim"), a.get("proj_dim")]
    dims = [_io.json_int(invalid, v, f"'architecture.{k}'") for k, v in zip(keys, values)]
    for key, d in zip(keys, dims):
        if not _is_width(d):
            raise FormatError(f"{invalid}: 'architecture.{key}' must be >= 1, got {d}")
    return Architecture(dims[0], tuple(dims[1:-2]), dims[-2], dims[-1])


def load_checkpoint(path):
    """Read a checkpoint; returns (EncoderParams, header dict).

    A truncated or corrupt file raises FormatError naming the path and the
    part that is wrong: magic, header length, header key or parameter blob.
    """
    raw = Path(path).read_bytes()
    (head_len,) = _io.unpack_header(path, raw, CHECKPOINT_MAGIC, ("header length",))
    end = 8 + head_len
    if len(raw) < end:
        raise FormatError(f"{path}: checkpoint header length {head_len} runs past the end "
                          f"of the {len(raw)}-byte file")
    header = _io.json_document(f"{path}: checkpoint header", raw[8:end], dict, versioned=True)
    arch = _checkpoint_arch(path, header)
    blob = _io.read_f32(path, raw, end, (_param_count(arch),), "parameter blob", "its header")
    return EncoderParams(arch, blob), header


def loss_history_csv(epoch_losses):
    """The ``--history`` file: one line per epoch with its mean loss."""
    lines = ["epoch,mean_loss"]
    lines += [f"{e + 1},{loss!r}" for e, loss in enumerate(epoch_losses)]
    return "\n".join(lines) + "\n"
