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
from the batch plan, a caller with one batch one of B = 1; a ``LossBatch``
is always a batch of a structure. On the first step under a ``LossConfig``
the structure also builds that config's loss tables: per batch, each group
term's w = lambda * scale and w/tau as Python floats, the (w/tau) *
positive count coefficients, and the gather indices of each term's loss
sum. A step then computes the logits, makes one masked log-sum-exp over
the stacked rows of every term (ntxent's 2N and each group term's N
anchors), one compacted sum per term's loss, and every group term's
gradient block in one stacked pass, added in term order by one axis-0
reduction.

All similarities are cosine; gradients are assembled as d(loss)/d(similarity)
matrices and chained through the cosine normalization in closed form.
A loss-setting fault is a ``SettingError`` naming ``tau``, a weight field,
``weights`` (no positive term) or ``groups`` (an unknown term).
``loss_and_grad`` is the one evaluation; ``combined_loss`` returns its
loss.
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
    ``slice_positives`` a (B, N, 2N) adjacency mask; every check on them
    (ids mirrored in the augmented half, mask shape and type, no anchor its
    own positive) runs here, over all B batches at once. ``terms`` names the
    terms to build, "ntxent" and then group terms in GROUP_LOSSES order;
    None builds ntxent and every group term whose ids are given. For the
    k-th group term of ``groups`` this holds, per batch:

    - ``pos[:, k]``: the (N, 2N) positives of each anchor, and ``pos_counts``
    - ``active``: the anchors with a positive
    - ``scale``: 1/(N*G), G the mean group size (rows per distinct id among
      the anchors, or the mean of positive count + 1 for adjacency)

    ``den[b]`` stacks the denominator masks of every term's rows, the 2N
    ntxent rows first and then N anchor rows per group term (an anchor
    without a positive keeps every other row, so none is empty); ``rows`` is
    the logit row behind each stacked row. One masked log-sum-exp over them
    serves every term of a step. ``pair`` indexes, in a (2N, 2N) matrix,
    each row's entry for its other view. ``tables(cfg)`` holds, built by the
    first step under ``cfg``, what every step under it reads besides the
    embeddings.
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
                raise ValueError(f"volume_ids must be a (B, 2N) = {pid.shape} array like "
                                 f"patient_ids, got shape {vid.shape}")
            _check_mirrored(vid, "volume_ids")
            given["volume"] = vid
        if slice_positives is not None:
            spos = np.asarray(slice_positives)
            if spos.dtype != bool or spos.shape != (n_batches, n, n2):
                raise ValueError(f"slice_positives must be a (B, N, 2N) = {(n_batches, n, n2)} "
                                 f"boolean mask, got {spos.dtype} of shape {spos.shape}")
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
        # same-patient rows outside the group leave the denominator; an
        # anchor without a positive adds nothing to the loss, and its row
        # keeps every other row, so that no stacked row is empty
        other_patient = pid[:, None, :n, None] != pid[:, None, None, :]
        keep = pos | other_patient | ~self.active[..., None]
        den = (keep & anchor_not_self).reshape(n_batches, -1, n2)
        head = [np.broadcast_to(not_self, (n_batches, n2, n2))] * ntxent
        self.den = np.concatenate(head + [den], axis=1)
        self.rows = np.concatenate([rows] * ntxent + [rows[:n]] * len(self.groups))
        self._tables = {}  # LossConfig -> its _LossTables, built by its first step

    def tables(self, cfg):
        """The ``_LossTables`` of ``cfg``, built on first use."""
        tables = self._tables.get(cfg)
        if tables is None:
            tables = self._tables[cfg] = _LossTables(self, cfg)
        return tables


class _LossTables:
    """What every step under one ``LossConfig`` reads from a
    ``LossStructure`` besides its embeddings, built once.

    - ``ntxent_wt``: NT-Xent's w/tau, w = weight/(2N); ``pair_mask``: each
      row's entry for its other view, one per row, so in row order
    - per batch b and group term k: ``coef[b, k]`` (N, 1), the term's
      (w/tau) * positive count per anchor, w = lambda * scale, and
      ``wt[b, k]`` (1, 1), w/tau; a term of weight 0 or without a positive
      in batch b has a zero block
    - over the epoch, batch after batch and term after term: ``den_rows``,
      the active anchors among the stacked rows, ``counts``, their positive
      counts, and ``pos_flat``, the positives in the flattened (2N, 2N)
      logits
    - ``steps[b]``: (terms, a0, a1, p0, p1), batch b's run in
      ``den_rows[a0:a1]`` and ``pos_flat[p0:p1]``, and per group term
      (w, end of its run in the first, end in the second)
    """

    def __init__(self, st, cfg):
        missing = [t for t in cfg.terms if t not in st.terms]
        if missing:
            raise ValueError(f"batch has no structure for the loss terms {missing}")
        n_batches, n_groups, n, n2 = st.pos.shape
        tau = cfg.tau
        self.ntxent_wt = cfg.ntxent / n2 / tau
        self.pair_mask = np.zeros((n2, n2), dtype=bool)
        self.pair_mask[st.pair] = True

        lam = np.array([cfg.weight_of(g) for g in st.groups], dtype=np.float64)
        w = lam * st.scale  # (B, k), as lam * float(scale) term by term
        wt = w / tau
        self.coef = (wt[:, :, None] * st.pos_counts)[..., None]
        self.wt = wt[..., None, None]
        self.den_rows = st.ntxent_rows + np.flatnonzero(st.active) % (n_groups * n)
        self.counts = st.pos_counts[st.active].astype(np.float64)
        self.pos_flat = np.flatnonzero(st.pos) % (n * n2)
        # each term's end in its batch's run of those three, and the runs
        anchors, positives = st.active.sum(axis=2), st.pos_counts.sum(axis=2)
        a_stops = np.cumsum(anchors.sum(axis=1))
        p_stops = np.cumsum(positives.sum(axis=1))
        terms = [
            list(zip(*t)) for t in zip(
                w.tolist(), np.cumsum(anchors, axis=1).tolist(),
                np.cumsum(positives, axis=1).tolist(),
            )
        ]
        self.steps = list(zip(
            terms, (a_stops - anchors.sum(axis=1)).tolist(), a_stops.tolist(),
            (p_stops - positives.sum(axis=1)).tolist(), p_stops.tolist(),
        ))


@dataclass(frozen=True, eq=False)
class LossBatch:
    """The embeddings of batch ``index`` of a ``LossStructure``.

    ``z`` must be a (2N, e) matrix with one row per row of the structure's
    batches, and ``index`` one of its B batches. The structure has checked
    the ids, and a training step has tested ``z`` for finiteness
    (``encoder.train`` raises ``TrainingDivergedError``), so only the shape
    of ``z`` and the index are checked per step. A caller with one batch
    builds a structure of B = 1: ``LossStructure(pid[None], vid[None],
    spos[None])``.
    """

    z: np.ndarray  # (2N, e) float64
    structure: LossStructure
    index: int = 0  # this batch's position in ``structure``

    def __post_init__(self):
        z = np.asarray(self.z, dtype=np.float64)
        object.__setattr__(self, "z", z)
        n_batches, _, n2 = self.structure.den.shape
        if z.ndim != 2 or z.shape[0] != n2:
            raise ValueError("embeddings must be (2N, e), one row per row of the batch structure")
        if not 0 <= self.index < n_batches:
            raise ValueError(f"batch index {self.index} is not in [0, {n_batches})")


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


def _masked_log_denoms(neg):
    """Stable log sum exp of each row of ``neg``, the logits with -inf off
    each row's denominator mask (never empty), and the softmax, written
    over ``neg``.

    Returns (log_denoms, softmax) where softmax is exp(logit)/denom on the
    mask and 0 elsewhere: off the mask the shifted logit is -inf, so its
    exp is exactly 0.
    """
    m = np.maximum.reduce(neg, axis=1)
    neg -= m[:, None]
    E = np.exp(neg, out=neg)
    D = np.add.reduce(E, axis=1)
    log_denoms = np.log(D)
    log_denoms += m
    return log_denoms, np.divide(E, D[:, None], out=E)


def combined_loss(batch, cfg):
    """Weighted sum of the enabled loss terms."""
    return loss_and_grad(batch, cfg)[0]


def loss_and_grad(batch, cfg):
    """``combined_loss`` and its exact gradient with respect to every
    embedding, from one evaluation.

    The weights, scales and gather indices come from the structure's tables
    for ``cfg``; the step computes the logits, one masked log-sum-exp over
    every term's stacked rows, each term's loss sum, and every group term's
    gradient block in one stacked pass, folded into d(loss)/d(similarity)
    in term order.
    """
    st, b = batch.structure, batch.index
    tab = st.tables(cfg)
    zhat, norms, clamped = _unit_rows(batch.z, NORM_EPS)
    logits = zhat @ zhat.T
    logits /= cfg.tau
    n2 = logits.shape[0]
    n = n2 // 2
    # one log-sum-exp over every term's rows, ntxent's first
    neg = np.where(st.den[b], logits.take(st.rows, axis=0), -np.inf)
    log_denoms, softmax = _masked_log_denoms(neg)
    loss = 0.0

    if cfg.ntxent > 0:
        per_row = log_denoms[:n2] - logits[tab.pair_mask]
        loss += cfg.ntxent * float(np.add.reduce(per_row) / n2)
        GS = softmax[:n2]
        GS *= tab.ntxent_wt
        np.subtract(GS, tab.ntxent_wt, out=GS, where=tab.pair_mask)
    else:
        GS = np.zeros((n2, n2))

    terms, a0, a1, p0, p1 = tab.steps[b]
    # each term's loss: its own sum over its active anchors and positives;
    # a term of weight 0 adds 0.0
    den = log_denoms.take(tab.den_rows[a0:a1])
    den *= tab.counts[a0:a1]
    pos_logits = logits.take(tab.pos_flat[p0:p1])
    a = p = 0
    for w, a_end, p_end in terms:
        total = np.add.reduce(den[a:a_end]) - np.add.reduce(pos_logits[p:p_end])
        loss += w * float(total)
        a, p = a_end, p_end
    # every term's gradient block at once, after the ntxent rows in block 0;
    # an inactive anchor's coefficient is 0, so its row of the block is 0.0
    blocks = np.empty((len(terms) + 1, n, n2))
    blocks[0] = GS[:n]
    block = blocks[1:]
    np.multiply(tab.coef[b], softmax[st.ntxent_rows:].reshape(-1, n, n2), out=block)
    np.subtract(block, tab.wt[b], out=block, where=st.pos[b])
    # axis 0 adds block by block, as one += per term would; a zero block
    # leaves every entry as it was, since none is -0.0
    np.add.reduce(blocks, axis=0, out=GS[:n])

    # chain d(loss)/d(sim) through S = zhat zhat^T and the clamped row norms
    g_hat = (GS + GS.T) @ zhat
    radial = np.einsum("ij,ij->i", g_hat, zhat)
    radial *= norms > NORM_EPS
    g_hat -= radial[:, None] * zhat
    g_hat /= clamped[:, None]
    return loss, g_hat
