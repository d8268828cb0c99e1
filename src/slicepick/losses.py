"""Contrastive losses over a two-view batch, with exact analytic gradients.

A batch holds 2N embedding rows: rows 0..N-1 are slices, rows N..2N-1 their
augmented views, paired by offset N. Besides the standard augmentation-pair
loss (NT-Xent), group losses treat every batch row sharing the anchor's
group (patient, volume, or adjacent-slice neighborhood) as a positive, and
drop same-patient rows that are NOT in the group from the denominator so
that several group losses can be summed without fighting each other. The
adjacent-slice positives of a batch are one (N, 2N) boolean mask.

Nothing but the embeddings changes from step to step, so a
``LossStructure`` builds the rest once for B batches: each term's positive
and denominator masks, positive counts, active anchors and 1/(N*G) scale,
after checking the ids and masks of all B. Training builds one per epoch
from the batch plan; a lone ``LossBatch`` builds one of B = 1 from its own
ids. A step then makes one masked log-sum-exp over the stacked rows of
every term, ntxent's 2N and each group term's N anchors.

All similarities are cosine; gradients are assembled as d(loss)/d(similarity)
matrices and chained through the cosine normalization in closed form.
A loss-setting fault is a ``SettingError`` naming ``tau``, a weight field,
``weights`` (no positive term) or ``groups`` (an unknown term).
``loss_and_grad`` is the one evaluation: every other loss function returns
a part of it.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import SettingError

GROUP_LOSSES = ("patient", "volume", "slice")
# the LossConfig field holding each group term's weight
_WEIGHT_FIELD = {"patient": "patient", "volume": "volume", "slice": "slice_group"}

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

    def __post_init__(self):
        for field in fields(self):
            if not math.isfinite(getattr(self, field.name)):
                raise SettingError("loss", self, field.name, "be finite")
        if self.tau <= 0:
            raise SettingError("loss", self, "tau", "be positive")
        if self.ntxent not in (0, 1):
            raise SettingError("loss", self, "ntxent", "be 0 or 1 (a switch)")
        for name in _WEIGHT_FIELD.values():
            if getattr(self, name) < 0:
                raise SettingError("loss", self, name, "be nonnegative")
        if not any(w > 0 for w in self.weights):
            raise SettingError("loss", self, "weights", "hold at least one positive weight")

    @property
    def weights(self):
        """The four term weights: (ntxent, patient, volume, slice_group)."""
        return (self.ntxent, self.patient, self.volume, self.slice_group)

    def weight_of(self, group_type):
        return getattr(self, _WEIGHT_FIELD[group_type])

    @property
    def enabled_groups(self):
        return frozenset(g for g in GROUP_LOSSES if self.weight_of(g) > 0)

    @property
    def terms(self):
        """The active terms: "ntxent" first, then group terms in GROUP_LOSSES order."""
        return ("ntxent",) * (self.ntxent > 0) + tuple(
            g for g in GROUP_LOSSES if self.weight_of(g) > 0
        )


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

    ``terms`` may contain "ntxent" plus any of the group names; any other
    name is a SettingError on ``groups``. Explicit per-group weights in
    ``overrides`` replace the preset values; None means no override, and
    overriding a group that is not in ``terms`` is a SettingError on that
    group's weight field.
    """
    terms = set(terms)
    if not terms <= {"ntxent", *GROUP_LOSSES}:
        rule = f"hold only the terms ntxent, {', '.join(GROUP_LOSSES)}"
        raise SettingError("loss", {"groups": sorted(terms)}, "groups", rule)
    use_ntxent = "ntxent" in terms
    groups = frozenset(terms & set(GROUP_LOSSES))
    weights = {}
    if groups:
        each = (0.35 if use_ntxent else 1.0) / len(groups)
        weights = dict(_PRESET_WEIGHTS.get((use_ntxent, groups), {g: each for g in groups}))
    for g, w in (overrides or {}).items():
        if w is None:
            continue
        if g not in groups:
            field = _WEIGHT_FIELD.get(g, g)
            rule = f"be unset, as {g!r} is not among the loss terms {sorted(terms)}"
            raise SettingError("loss", {field: w}, field, rule)
        weights[g] = w
    return LossConfig(
        tau=tau,
        ntxent=1.0 if use_ntxent else 0.0,
        **{_WEIGHT_FIELD[g]: w for g, w in weights.items()},
    )


class LossStructure:
    """Everything in the loss of B two-view batches of N pairs each that the
    embeddings do not change, built once for all B.

    ``patient_ids`` and ``volume_ids`` are (B, 2N) id arrays and
    ``slice_positives`` a (B, N, 2N) adjacency mask; the checks a
    ``LossBatch`` promises (ids mirrored in the augmented half, mask shape
    and type, no anchor its own positive) run here, over all B batches at
    once. ``terms`` names the terms to build, "ntxent" and then group terms
    in GROUP_LOSSES order; None builds ntxent and every group term whose ids
    are given. For the k-th group term of ``groups`` this holds, per batch:

    - ``pos[:, k]``: the (N, 2N) positives of each anchor, and ``pos_counts``
    - ``active``: the anchors with a positive; ``live``: the batches with any
    - ``scale``: 1/(N*G), G the mean group size (rows per distinct id among
      the anchors, or the mean of positive count + 1 for adjacency)

    ``den[b]`` stacks the denominator masks of every term's rows, the 2N
    ntxent rows first and then N anchor rows per group term; ``rows`` is the
    logit row behind each stacked row. One masked log-sum-exp over them
    serves every term of a step. ``pair`` indexes, in a (2N, 2N) matrix,
    each row's entry for its other view.
    """

    def __init__(self, patient_ids, volume_ids=None, slice_positives=None, terms=None):
        pid = np.asarray(patient_ids, dtype=np.int64)
        if pid.ndim != 2 or pid.shape[1] < 2 or pid.shape[1] % 2:
            raise ValueError("patient_ids must be a (B, 2N) array with N >= 1")
        _check_mirrored(pid, "patient_ids")
        n_batches, n2 = pid.shape
        n = n2 // 2
        given = {"patient": pid}  # the ids or mask behind each group term
        if volume_ids is not None:
            vid = np.asarray(volume_ids, dtype=np.int64)
            if vid.shape != pid.shape:
                raise ValueError("volume_ids must have one entry per row")
            _check_mirrored(vid, "volume_ids")
            given["volume"] = vid
        if slice_positives is not None:
            spos = np.asarray(slice_positives)
            if spos.dtype != bool or spos.shape != (n_batches, n, n2):
                raise ValueError("slice_positives must be an (N, 2N) boolean mask")
            if spos[:, np.arange(n), np.arange(n)].any():
                raise ValueError("no anchor can be its own positive")
            given["slice"] = spos
        # a term without its ids is left out; loss_and_grad names it if used
        ntxent = terms is None or "ntxent" in terms
        self.groups = tuple(g for g in given if terms is None or g in terms)
        self.terms = ("ntxent",) * ntxent + self.groups
        self.ntxent_rows = n2 * ntxent  # stacked rows before the group terms'
        rows = np.arange(n2)
        self.pair = (rows, (rows + n) % n2)  # each row and its other view

        not_self = ~np.eye(n2, dtype=bool)
        anchor_not_self = not_self[:n]
        pos = np.zeros((n_batches, len(self.groups), n, n2), dtype=bool)
        self.scale = np.zeros((n_batches, len(self.groups)))
        for k, group_type in enumerate(self.groups):
            ids = given[group_type]
            if group_type == "slice":
                pos[:, k] = ids
                G = np.mean(ids.sum(axis=2) + 1, axis=1)
            else:
                pos[:, k] = (ids[:, :n, None] == ids[:, None, :]) & anchor_not_self
                # distinct ids among the anchors, counted on sorted rows
                first = np.sort(ids[:, :n], axis=1)
                G = n / (1 + np.count_nonzero(np.diff(first, axis=1), axis=1))
            self.scale[:, k] = 1.0 / (n * G)
        self.pos = pos
        self.pos_counts = pos.sum(axis=3)
        self.active = self.pos_counts > 0
        self.live = self.active.any(axis=2)
        # same-patient rows outside the group leave the denominator
        other_patient = pid[:, None, :n, None] != pid[:, None, None, :]
        den = ((pos | other_patient) & anchor_not_self).reshape(n_batches, -1, n2)
        head = [np.broadcast_to(not_self, (n_batches, n2, n2))] * ntxent
        self.den = np.concatenate(head + [den], axis=1)
        self.rows = np.concatenate([rows] * ntxent + [rows[:n]] * len(self.groups))


@dataclass(frozen=True, eq=False)
class LossBatch:
    """Embeddings of one two-view batch plus its group structure.

    A lone batch gives its ids: ``patient_ids`` and ``volume_ids`` of its 2N
    rows and ``slice_positives`` (when the adjacent-slice loss is used), an
    (N, 2N) boolean mask whose entry (i, j) is True when row j is another
    view of anchor i's slice or a depth neighbor within the same volume. Its
    ``structure`` is then a ``LossStructure`` of B = 1, which checks the ids,
    and ``z`` must be finite. A training step instead passes its epoch's
    ``structure`` and the batch's ``index`` in it, and has already tested
    ``z`` for finiteness (``encoder.train`` raises ``TrainingDivergedError``),
    so only the shape of ``z`` is checked per step.

    ``z`` must be a (2N, e) matrix whose row count matches the structure's.
    """

    z: np.ndarray  # (2N, e) float64
    patient_ids: np.ndarray = None  # (2N,)
    volume_ids: np.ndarray = None  # (2N,) or None
    slice_positives: np.ndarray = None  # (N, 2N) bool, or None
    structure: LossStructure = None  # built from the ids when None
    index: int = 0  # this batch's position in ``structure``

    def __post_init__(self):
        z = np.asarray(self.z, dtype=np.float64)
        if z.ndim != 2 or z.shape[0] < 2 or z.shape[0] % 2:
            raise ValueError("embeddings must be a (2N, e) matrix with N >= 1")
        object.__setattr__(self, "z", z)
        n2 = z.shape[0]
        if self.structure is None:
            if not np.isfinite(z).all():
                raise ValueError("embeddings contain non-finite values")
            if self.patient_ids is None:
                raise ValueError("a batch needs its patient_ids or a structure")
            for name in ("patient_ids", "volume_ids"):
                if getattr(self, name) is not None:
                    ids = np.asarray(getattr(self, name), dtype=np.int64)
                    if ids.shape != (n2,):
                        raise ValueError(f"{name} must have one entry per row")
                    object.__setattr__(self, name, ids)
            if self.slice_positives is not None:
                object.__setattr__(self, "slice_positives", np.asarray(self.slice_positives))
            parts = (self.patient_ids, self.volume_ids, self.slice_positives)
            structure = LossStructure(*(None if x is None else x[None] for x in parts))
            object.__setattr__(self, "structure", structure)
        elif self.structure.den.shape[2] != n2:
            raise ValueError("embeddings must have one row per row of the batch structure")


def _check_mirrored(arr, name):
    n = arr.shape[-1] // 2
    if not (arr[..., :n] == arr[..., n:]).all():
        raise ValueError(f"{name} of augmented rows must mirror their originals")


def slice_positives_from_rows(slice_ids, volume_ids, slice_indices):
    """Adjacency positive mask (N, 2N) of a two-view batch's (2N,) ids, or
    (B, N, 2N) of B batches' (B, 2N) ids.

    Row j is a positive of anchor i when it is another view of the same
    slice, or lies in the same volume at depth distance exactly 1.
    """
    sid = np.asarray(slice_ids)
    vid = np.asarray(volume_ids)
    idx = np.asarray(slice_indices)
    n = sid.shape[-1] // 2
    same_slice = sid[..., :n, None] == sid[..., None, :]
    adjacent = (vid[..., :n, None] == vid[..., None, :]) & (
        np.abs(idx[..., :n, None] - idx[..., None, :]) == 1
    )
    mask = same_slice | adjacent
    mask[..., np.arange(n), np.arange(n)] = False
    return mask


def _unit_rows(z, eps):
    norms = np.sqrt(np.einsum("ij,ij->i", z, z))
    clamped = np.maximum(norms, eps)
    return z / clamped[:, None], norms, clamped


def _masked_log_denoms(logits, den_mask):
    """Stable log sum exp of each row over its denominator mask.

    Returns (log_denoms, softmax) where softmax is exp(logit)/denom on the
    mask and 0 elsewhere: off the mask the shifted logit is -inf, so its
    exp is exactly 0. Rows with an empty mask yield garbage and must be
    ignored by the caller.
    """
    neg = np.where(den_mask, logits, -np.inf)
    m = neg.max(axis=1)
    safe_m = np.where(np.isfinite(m), m, 0.0)
    E = np.exp(neg - safe_m[:, None])
    D = E.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_denoms = np.log(D) + safe_m
        softmax = E / D[:, None]
    return log_denoms, softmax


def ntxent_loss(batch, tau):
    """Standard two-view contrastive loss: mean over all 2N rows of
    -log softmax(sim with the paired view / tau) against every other row."""
    return combined_loss(batch, LossConfig(tau=tau))


def group_loss(batch, group_type, tau):
    """Group contrastive loss for one group type.

    Anchors are the N unaugmented rows. All other rows in the anchor's
    group (across both views) are positives; the denominator keeps rows in
    the same group or belonging to a different patient, so same-patient
    rows outside the group exert no repulsion.
    """
    if group_type not in GROUP_LOSSES:
        raise ValueError(f"unknown group type {group_type!r}")
    weight = {_WEIGHT_FIELD[group_type]: 1.0}
    return combined_loss(batch, LossConfig(tau=tau, ntxent=0.0, **weight))


def combined_loss(batch, cfg):
    """Weighted sum of the enabled loss terms."""
    return loss_and_grad(batch, cfg)[0]


def loss_grad(batch, cfg):
    """Exact gradient of ``combined_loss`` with respect to every embedding."""
    return loss_and_grad(batch, cfg)[1]


def loss_and_grad(batch, cfg):
    """``combined_loss`` and ``loss_grad`` from one evaluation."""
    st, b = batch.structure, batch.index
    missing = [t for t in cfg.terms if t not in st.terms]
    if missing:
        raise ValueError(f"batch has no structure for the loss terms {missing}")
    zhat, norms, clamped = _unit_rows(batch.z, NORM_EPS)
    S = zhat @ zhat.T
    n2 = S.shape[0]
    n = n2 // 2
    tau = cfg.tau
    # shared by every term; the group terms use the top N (anchor) rows
    logits = S / tau
    # one log-sum-exp over every term's rows, ntxent's first
    log_denoms, softmax = _masked_log_denoms(logits.take(st.rows, axis=0), st.den[b])
    loss = 0.0

    if cfg.ntxent > 0:
        loss += cfg.ntxent * float(np.mean(log_denoms[:n2] - logits[st.pair]))
        w = cfg.ntxent / n2
        GS = (w / tau) * softmax[:n2]
        GS[st.pair] -= w / tau
    else:
        GS = np.zeros_like(S)

    anchor_logits = logits[:n]
    for k, group_type in enumerate(st.groups):
        lam = cfg.weight_of(group_type)
        if lam == 0 or not st.live[b, k]:
            continue
        pos, pos_counts, active = st.pos[b, k], st.pos_counts[b, k], st.active[b, k]
        block = slice(st.ntxent_rows + k * n, st.ntxent_rows + (k + 1) * n)
        w = lam * float(st.scale[b, k])
        total = float(
            (pos_counts[active] * log_denoms[block][active]).sum()
            - anchor_logits[pos].sum()
        )
        loss += w * total
        contrib = np.where(
            active[:, None], (w / tau) * pos_counts[:, None] * softmax[block], 0.0
        )
        np.subtract(contrib, w / tau, out=contrib, where=pos)
        GS[:n] += contrib

    # chain d(loss)/d(sim) through S = zhat zhat^T and the clamped row norms
    g_hat = (GS + GS.T) @ zhat
    radial = np.einsum("ij,ij->i", g_hat, zhat)
    unclamped = (norms > NORM_EPS).astype(np.float64)
    grad = (g_hat - unclamped[:, None] * radial[:, None] * zhat) / clamped[:, None]
    return loss, grad
