"""Contrastive losses over a two-view batch, with exact analytic gradients.

A batch holds 2N embedding rows: rows 0..N-1 are slices, rows N..2N-1 their
augmented views, paired by offset N. Besides the standard augmentation-pair
loss (NT-Xent), group losses treat every batch row sharing the anchor's
group (patient, volume, or adjacent-slice neighborhood) as a positive, and
drop same-patient rows that are NOT in the group from the denominator so
that several group losses can be summed without fighting each other.

All similarities are cosine; gradients are assembled as d(loss)/d(similarity)
matrices and chained through the cosine normalization in closed form.
"""

from dataclasses import InitVar, dataclass

import numpy as np

GROUP_LOSSES = ("patient", "volume", "slice")

NORM_EPS = 1e-12


@dataclass(frozen=True)
class LossConfig:
    """Temperature plus the weights of the four loss terms.

    ``ntxent`` is a 0/1 switch; the group weights are arbitrary nonnegative
    constants. At least one term must be active.
    """

    tau: float = 0.1
    ntxent: float = 1.0
    patient: float = 0.0
    volume: float = 0.0
    slice_group: float = 0.0
    norm_eps: float = 1e-12

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("temperature must be positive")
        if self.ntxent not in (0, 1):
            raise ValueError("ntxent weight is a 0/1 switch")
        weights = (self.ntxent, self.patient, self.volume, self.slice_group)
        if any(w < 0 for w in weights):
            raise ValueError("loss weights must be nonnegative")
        if not any(w > 0 for w in weights):
            raise ValueError("at least one loss weight must be positive")
        if self.norm_eps <= 0:
            raise ValueError("norm_eps must be positive")

    @classmethod
    def from_tuple(cls, weights, tau=0.1):
        l0, l1, l2, l3 = weights
        return cls(tau=tau, ntxent=l0, patient=l1, volume=l2, slice_group=l3)

    def weight_of(self, group_type):
        return {"patient": self.patient, "volume": self.volume, "slice": self.slice_group}[
            group_type
        ]

    @property
    def enabled_groups(self):
        return frozenset(g for g in GROUP_LOSSES if self.weight_of(g) > 0)


# tuned weights for specific term combinations; single group losses use 1.0
# alone and 0.35 alongside NT-Xent, other combinations split those evenly
_PRESET_WEIGHTS = {
    (False, frozenset({"patient", "volume"})): {"patient": 0.50, "volume": 0.50},
    (False, frozenset({"volume", "slice"})): {"volume": 0.50, "slice": 0.50},
    (True, frozenset({"patient", "volume"})): {"patient": 0.05, "volume": 0.35},
    (False, frozenset({"patient", "volume", "slice"})): {
        "patient": 0.33, "volume": 0.33, "slice": 0.33,
    },
    (True, frozenset({"patient", "volume", "slice"})): {
        "patient": 0.05, "volume": 0.35, "slice": 0.025,
    },
}


def preset_loss_config(terms, tau=0.1, overrides=None):
    """Build a LossConfig from a set of term names using the stock weights.

    ``terms`` may contain "ntxent" plus any of the group names. Explicit
    per-group weights in ``overrides`` replace the preset values.
    """
    terms = set(terms)
    unknown = terms - ({"ntxent"} | set(GROUP_LOSSES))
    if unknown:
        raise ValueError(f"unknown loss terms {sorted(unknown)}")
    use_ntxent = "ntxent" in terms
    groups = frozenset(terms & set(GROUP_LOSSES))
    if groups:
        preset = _PRESET_WEIGHTS.get((use_ntxent, groups))
        if preset is None:
            each = (0.35 if use_ntxent else 1.0) / len(groups)
            preset = {g: (1.0 if len(groups) == 1 and not use_ntxent else each) for g in groups}
            if len(groups) == 1 and use_ntxent:
                preset = {g: 0.35 for g in groups}
        weights = dict(preset)
    else:
        weights = {}
    if overrides:
        for g, w in overrides.items():
            if w is not None:
                weights[g] = w
    return LossConfig(
        tau=tau,
        ntxent=1.0 if use_ntxent else 0.0,
        patient=weights.get("patient", 0.0),
        volume=weights.get("volume", 0.0),
        slice_group=weights.get("slice", 0.0),
    )


@dataclass(frozen=True, eq=False)
class LossBatch:
    """Embeddings plus the group structure of one two-view batch.

    ``slice_positives`` (when the adjacent-slice loss is used) gives, for
    each anchor row i < N, the indices of all rows that are another view of
    the same slice or a depth neighbor within the same volume.

    ``validate=False`` stores the fields as given. It is for callers that
    already hold a finite float64 ``z``, mirrored int64 id arrays and sorted
    unique int64 positive sets, such as the training loop.
    """

    z: np.ndarray  # (2N, e) float64
    patient_ids: np.ndarray  # (2N,)
    volume_ids: np.ndarray = None  # (2N,) or None
    slice_positives: tuple = None  # per-anchor index arrays, or None
    validate: InitVar[bool] = True

    def __post_init__(self, validate):
        if not validate:
            return
        z = np.asarray(self.z, dtype=np.float64)
        if z.ndim != 2 or z.shape[0] < 2 or z.shape[0] % 2:
            raise ValueError("embeddings must be a (2N, e) matrix with N >= 1")
        if not np.all(np.isfinite(z)):
            raise ValueError("embeddings contain non-finite values")
        object.__setattr__(self, "z", z)
        n2 = z.shape[0]
        pid = np.asarray(self.patient_ids, dtype=np.int64)
        if pid.shape != (n2,):
            raise ValueError("patient_ids must have one entry per row")
        _check_mirrored(pid, "patient_ids")
        object.__setattr__(self, "patient_ids", pid)
        if self.volume_ids is not None:
            vid = np.asarray(self.volume_ids, dtype=np.int64)
            if vid.shape != (n2,):
                raise ValueError("volume_ids must have one entry per row")
            _check_mirrored(vid, "volume_ids")
            object.__setattr__(self, "volume_ids", vid)
        if self.slice_positives is not None:
            n = n2 // 2
            if len(self.slice_positives) != n:
                raise ValueError("slice_positives must list one index set per anchor")
            sets = []
            for i, s in enumerate(self.slice_positives):
                arr = np.asarray(sorted(set(int(j) for j in s)), dtype=np.int64)
                if arr.size and (arr.min() < 0 or arr.max() >= n2):
                    raise ValueError(f"anchor {i}: positive index out of range")
                if i in arr:
                    raise ValueError(f"anchor {i} cannot be its own positive")
                sets.append(arr)
            object.__setattr__(self, "slice_positives", tuple(sets))

    @property
    def n_pairs(self):
        return self.z.shape[0] // 2


def _check_mirrored(arr, name):
    n = arr.shape[0] // 2
    if not np.array_equal(arr[:n], arr[n:]):
        raise ValueError(f"{name} of augmented rows must mirror their originals")


def slice_positives_from_rows(slice_ids, volume_ids, slice_indices):
    """Adjacency positive sets for each anchor of a two-view batch.

    Row j is a positive of anchor i when it is another view of the same
    slice, or lies in the same volume at depth distance exactly 1.
    """
    sid = np.asarray(slice_ids)
    vid = np.asarray(volume_ids)
    idx = np.asarray(slice_indices)
    n2 = sid.shape[0]
    n = n2 // 2
    same_slice = sid[:n, None] == sid[None, :]
    adjacent = (vid[:n, None] == vid[None, :]) & (
        np.abs(idx[:n, None] - idx[None, :]) == 1
    )
    mask = same_slice | adjacent
    mask[np.arange(n), np.arange(n)] = False
    return tuple(np.flatnonzero(mask[i]) for i in range(n))


def cosine_sim(a, b, eps=1e-12):
    """Cosine similarity with norms clamped below by ``eps``."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na = max(float(np.linalg.norm(a)), eps)
    nb = max(float(np.linalg.norm(b)), eps)
    return float(a @ b) / (na * nb)


def _unit_rows(z, eps):
    norms = np.sqrt(np.einsum("ij,ij->i", z, z))
    clamped = np.maximum(norms, eps)
    return z / clamped[:, None], norms, clamped


def _sim_matrix(batch, eps):
    zhat, _, _ = _unit_rows(batch.z, eps)
    return zhat @ zhat.T


def _masked_log_denoms(logits, den_mask):
    """Stable log sum exp of each row over its denominator mask.

    Returns (log_denoms, softmax) where softmax is exp(logit)/denom on the
    mask and 0 elsewhere. Rows with an empty mask yield garbage and must be
    ignored by the caller.
    """
    neg = np.where(den_mask, logits, -np.inf)
    m = np.max(neg, axis=1)
    safe_m = np.where(np.isfinite(m), m, 0.0)
    E = np.exp(neg - safe_m[:, None])
    E[~den_mask] = 0.0
    D = E.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_denoms = np.log(D) + safe_m
        softmax = E / D[:, None]
    return log_denoms, softmax


def _ntxent_masks(n2):
    n = n2 // 2
    pos = np.concatenate([np.arange(n) + n, np.arange(n)])
    den = ~np.eye(n2, dtype=bool)
    return pos, den


def ntxent_loss(batch, tau):
    """Standard two-view contrastive loss: mean over all 2N rows of
    -log softmax(sim with the paired view / tau) against every other row."""
    if tau <= 0:
        raise ValueError("temperature must be positive")
    S = _sim_matrix(batch, NORM_EPS)
    n2 = S.shape[0]
    pos, den = _ntxent_masks(n2)
    logits = S / tau
    log_denoms, _ = _masked_log_denoms(logits, den)
    rows = np.arange(n2)
    return float(np.mean(log_denoms - logits[rows, pos]))


def _group_masks(batch, group_type):
    """Positive and denominator masks (N x 2N) for one group loss."""
    n2 = batch.z.shape[0]
    n = n2 // 2
    pid = batch.patient_ids
    other_patient = pid[:n, None] != pid[None, :]
    not_self = np.ones((n, n2), dtype=bool)
    not_self[np.arange(n), np.arange(n)] = False
    if group_type == "slice":
        if batch.slice_positives is None:
            raise ValueError("batch has no adjacency positive sets")
        pos = np.zeros((n, n2), dtype=bool)
        for i, idxs in enumerate(batch.slice_positives):
            pos[i, idxs] = True
    else:
        if group_type == "patient":
            labels = pid
        elif group_type == "volume":
            if batch.volume_ids is None:
                raise ValueError("batch has no volume labels")
            labels = batch.volume_ids
        else:
            raise ValueError(f"unknown group type {group_type!r}")
        pos = (labels[:n, None] == labels[None, :]) & not_self
    den = (pos | other_patient) & not_self
    return pos, den


def _group_norm(batch, group_type, pos_mask):
    """The 1/(N*G) scale: G is the mean group size.

    For partition groups, G = unaugmented rows / distinct groups among them.
    For the (non-transitive) adjacency loss, G is the mean over anchors of
    (positive count + 1).
    """
    n = batch.z.shape[0] // 2
    if group_type == "slice":
        G = float(np.mean(pos_mask.sum(axis=1) + 1))
    else:
        labels = batch.patient_ids if group_type == "patient" else batch.volume_ids
        G = n / np.unique(labels[:n]).size
    return 1.0 / (n * G)


def group_loss(batch, group_type, tau):
    """Group contrastive loss for one group type.

    Anchors are the N unaugmented rows. All other rows in the anchor's
    group (across both views) are positives; the denominator keeps rows in
    the same group or belonging to a different patient, so same-patient
    rows outside the group exert no repulsion.
    """
    if tau <= 0:
        raise ValueError("temperature must be positive")
    pos, den = _group_masks(batch, group_type)
    pos_counts = pos.sum(axis=1)
    if pos_counts.sum() == 0:
        return 0.0
    S = _sim_matrix(batch, NORM_EPS)
    n = pos.shape[0]
    logits = S[:n] / tau
    log_denoms, _ = _masked_log_denoms(logits, den)
    active = pos_counts > 0
    total = float(
        np.sum(pos_counts[active] * log_denoms[active])
        - np.sum(logits[pos])
    )
    return _group_norm(batch, group_type, pos) * total


def combined_loss(batch, cfg):
    """Weighted sum of the enabled loss terms."""
    loss, _ = _combined(batch, cfg, want_grad=False)
    return loss


def loss_grad(batch, cfg):
    """Exact gradient of ``combined_loss`` with respect to every embedding."""
    _, grad = _combined(batch, cfg, want_grad=True)
    return grad


def loss_and_grad(batch, cfg):
    return _combined(batch, cfg, want_grad=True)


def _combined(batch, cfg, want_grad):
    zhat, norms, clamped = _unit_rows(batch.z, cfg.norm_eps)
    S = zhat @ zhat.T
    n2 = S.shape[0]
    n = n2 // 2
    tau = cfg.tau
    loss = 0.0
    GS = np.zeros_like(S) if want_grad else None

    if cfg.ntxent > 0:
        pos, den = _ntxent_masks(n2)
        logits = S / tau
        log_denoms, softmax = _masked_log_denoms(logits, den)
        rows = np.arange(n2)
        loss += cfg.ntxent * float(np.mean(log_denoms - logits[rows, pos]))
        if want_grad:
            w = cfg.ntxent / n2
            GS += (w / tau) * softmax
            GS[rows, pos] -= w / tau

    for group_type in GROUP_LOSSES:
        lam = cfg.weight_of(group_type)
        if lam == 0:
            continue
        pos, den = _group_masks(batch, group_type)
        pos_counts = pos.sum(axis=1)
        if pos_counts.sum() == 0:
            continue
        logits = S[:n] / tau
        log_denoms, softmax = _masked_log_denoms(logits, den)
        active = pos_counts > 0
        scale = _group_norm(batch, group_type, pos)
        total = float(
            np.sum(pos_counts[active] * log_denoms[active]) - np.sum(logits[pos])
        )
        loss += lam * scale * total
        if want_grad:
            w = lam * scale
            contrib = np.zeros((n, n2))
            contrib[active] = (
                (w / tau) * pos_counts[active, None] * softmax[active]
            )
            contrib[pos] -= w / tau
            GS[:n] += contrib

    if not want_grad:
        return loss, None

    # chain d(loss)/d(sim) through S = zhat zhat^T and the clamped row norms
    g_hat = (GS + GS.T) @ zhat
    radial = np.einsum("ij,ij->i", g_hat, zhat)
    unclamped = (norms > cfg.norm_eps).astype(np.float64)
    grad = (g_hat - unclamped[:, None] * radial[:, None] * zhat) / clamped[:, None]
    return loss, grad
