import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from reference_step import augment_batch, backward_batch, forward_batch, loss_and_grad
from slicepick import DatasetIndex, SynthSpec, encoder, gcle, generate_synthetic, sampler
from slicepick.encoder import Architecture, epoch_seed, init_params
from slicepick.losses import LossBatch, LossStructure, slice_positives_from_rows


@pytest.fixture
def tiny_ds():
    """3 patients x 2 volumes x 4 slices of 3x3 pixels."""
    spec = SynthSpec(
        n_patients=3, volumes_per_patient=2, slices_per_volume=4, h=3, w=3,
        class_count=3, seed=42,
    )
    return generate_synthetic(spec)


def make_dataset(vol_layout, pixel_rows, h=1, w=None):
    """Build a DatasetIndex by hand.

    vol_layout: list of (patient_id, volume_id, n_slices); pixel_rows: one
    flat pixel vector per slice, in layout order.
    """
    if w is None:
        w = len(pixel_rows[0])
    slices = [(pid, vid, t) for pid, vid, n in vol_layout for t in range(n)]
    ids = np.array([(sid, *s) for sid, s in enumerate(slices)], dtype=np.int64)
    return DatasetIndex(ids, np.asarray(pixel_rows, dtype=np.float64), h, w)


def uneven_dataset():
    """Volumes of 2-5 slices, and patients with one volume, so tuples share
    slices and patient companions come from the anchor's own volume."""
    layout = [(0, 0, 2), (0, 1, 5), (1, 2, 3), (2, 3, 2), (2, 4, 4), (3, 5, 4),
              (4, 6, 3), (4, 7, 2)]
    n = sum(k for _, _, k in layout)
    rng = np.random.default_rng(3)
    return make_dataset(layout, rng.standard_normal((n, 6)), h=2, w=3)


def two_patient_dataset():
    """Two patients cap every stock batch at two tuples."""
    spec = SynthSpec(n_patients=2, volumes_per_patient=2, slices_per_volume=3, h=2, w=2,
                     class_count=2, seed=8)
    return generate_synthetic(spec)[0]


def lone_batch(z, patient_ids, volume_ids=None, slice_positives=None):
    """The ``LossBatch`` of one two-view batch: embeddings ``z`` in a
    ``LossStructure`` of B = 1 built from the batch's (2N,) ids and its
    (N, 2N) adjacency mask, those given."""
    parts = (patient_ids, volume_ids, slice_positives)
    structure = LossStructure(*(None if x is None else np.asarray(x)[None] for x in parts))
    return LossBatch(z, structure)


def random_structured_batch(rng, n_pairs, dim, n_patients=2, n_volumes=3):
    """Random embeddings with random patient/volume/depth structure: the
    batch and, beside it, its ids (patient ids, volume ids, adjacency mask)."""
    pid = rng.integers(0, n_patients, size=n_pairs)
    vid = pid * 10 + rng.integers(0, n_volumes, size=n_pairs)
    idx = rng.integers(0, 4, size=n_pairs)
    sid = np.arange(n_pairs)
    z = rng.standard_normal((2 * n_pairs, dim))
    pos = slice_positives_from_rows(np.tile(sid, 2), np.tile(vid, 2), np.tile(idx, 2))
    ids = (np.tile(pid, 2), np.tile(vid, 2), pos)
    return lone_batch(z, *ids), ids


# ---------------------------------------------------------------------------
# independent brute-force references (pure python double loops)

def ref_cosine(a, b, eps=1e-12):
    na = max(math.sqrt(sum(float(x) * float(x) for x in a)), eps)
    nb = max(math.sqrt(sum(float(x) * float(x) for x in b)), eps)
    dot = sum(float(x) * float(y) for x, y in zip(a, b))
    return dot / (na * nb)


def ref_ntxent(z, tau):
    n2 = len(z)
    n = n2 // 2
    total = 0.0
    for i in range(n2):
        j = i + n if i < n else i - n
        num = math.exp(ref_cosine(z[i], z[j]) / tau)
        den = sum(
            math.exp(ref_cosine(z[i], z[k]) / tau) for k in range(n2) if k != i
        )
        total += -math.log(num / den)
    return total / n2


def ref_group_loss(z, pid, tau, group_type, labels=None, positive_sets=None):
    """Brute-force group loss: for every anchor and every positive, one
    -log(exp(sim/tau) / sum over kept rows), where kept rows share the
    group or belong to a different patient."""
    n2 = len(z)
    n = n2 // 2

    def same_group(i, k):
        if group_type == "slice":
            return k in positive_sets[i]
        return labels[k] == labels[i]

    total = 0.0
    pos_counts = []
    for i in range(n):
        cnt = 0
        for j in range(n2):
            if j == i or not same_group(i, j):
                continue
            cnt += 1
            num = math.exp(ref_cosine(z[i], z[j]) / tau)
            den = sum(
                math.exp(ref_cosine(z[i], z[k]) / tau)
                for k in range(n2)
                if k != i and (same_group(i, k) or pid[k] != pid[i])
            )
            total += -math.log(num / den)
        pos_counts.append(cnt)
    if sum(pos_counts) == 0:
        return 0.0
    if group_type == "slice":
        G = sum(c + 1 for c in pos_counts) / n
    else:
        G = n / len(set(labels[:n]))
    return total / (n * G)


def ref_group_deviation(ds, grouping):
    """Brute-force deviation statistic: explicit O(n^2) pair loops over
    min-max normalized pixels, in float64; None when the grouping has no
    valid pair."""
    X = ds.pixel_matrix().astype(np.float64)
    lo, hi = X.min(), X.max()
    X = np.zeros_like(X) if hi == lo else (X - lo) / (hi - lo)

    def pair_dev(i, j):
        return float(np.mean(np.abs(X[i] - X[j])))

    if grouping == "dataset":
        vals = [pair_dev(i, j) for i, j in itertools.combinations(range(ds.n), 2)]
        return float(np.mean(vals)) if vals else None
    # the rows of each group, keyed by its id, read from the identity records
    meta = gcle.records_from_ids(ds.ids)
    key = "volume_id" if grouping == "adjacent" else f"{grouping}_id"
    groups = {}
    for i, r in enumerate(meta):
        groups.setdefault(r[key], []).append(i)
    if grouping == "adjacent":
        vals = []
        for rows in groups.values():
            rows = sorted(rows, key=lambda i: meta[i]["slice_index"])
            vals += [pair_dev(a, b) for a, b in zip(rows, rows[1:])]
        return float(np.mean(vals)) if vals else None
    group_vals = []
    for rows in groups.values():
        if len(rows) < 2:
            continue
        group_vals.append(
            float(np.mean([pair_dev(a, b) for a, b in itertools.combinations(rows, 2)]))
        )
    return float(np.mean(group_vals)) if group_vals else None


def ref_group_loss_from_batch(batch, ids, group_type, tau):
    """``ref_group_loss`` of a batch whose ids (patient ids, volume ids,
    adjacency mask) are ``ids``."""
    patient_ids, volume_ids, slice_positives = ids
    labels = None
    sets = None
    if group_type == "patient":
        labels = list(patient_ids)
    elif group_type == "volume":
        labels = list(volume_ids)
    else:
        sets = [set(int(x) for x in np.flatnonzero(s)) for s in slice_positives]
    return ref_group_loss(
        [list(row) for row in batch.z],
        list(patient_ids),
        tau,
        group_type,
        labels=labels,
        positive_sets=sets,
    )


# ---------------------------------------------------------------------------
# references that know a dataset only by its identity records (slice ids)

def plan_slice_ids(ds, plan):
    """An epoch plan's batches as lists of slice-id tuples."""
    sids = [r["slice_id"] for r in gcle.records_from_ids(ds.ids)]
    return [[tuple(sids[row] for row in t) for t in batch] for batch in plan.batches.tolist()]


def simulate_build_epoch(ds, groups, batch_size, seed):
    """Independent re-implementation of the epoch builder over the identity
    records, consuming the documented RNG protocol draw for draw with one
    scalar call per draw; returns batches of slice-id tuples."""
    rng = np.random.default_rng(seed)
    width = 1 + len(groups)

    def pick(seq):
        return seq[int(rng.integers(len(seq)))]

    volumes, patients = {}, {}  # slice ids by depth; volume ids
    for r in sorted(gcle.records_from_ids(ds.ids), key=lambda r: r["slice_index"]):
        volumes.setdefault(r["volume_id"], []).append(r["slice_id"])
        patients.setdefault(r["patient_id"], set()).add(r["volume_id"])

    per_patient = {}
    for pid in sorted(patients):
        vids = sorted(patients[pid])
        tuples = []
        for vid in vids:
            vol = volumes[vid]
            cross = [s for v in vids if v != vid for s in volumes[v]]
            for k, anchor in enumerate(vol):
                t = [anchor]
                if "slice" in groups:
                    pool = [vol[j] for j in (k - 1, k + 1) if 0 <= j < len(vol)]
                    t.append(pick(pool if pool else [anchor]))
                if "volume" in groups:
                    t.append(pick([s for s in vol if s != anchor]))
                if "patient" in groups:
                    t.append(pick(cross if cross else [s for s in vol if s != anchor]))
                tuples.append(tuple(t))
        per_patient[pid] = tuples

    batches = []
    slices_left = sum(len(tl) for tl in per_patient.values()) * width
    while slices_left >= batch_size:
        batch = []
        used = set()
        while len(batch) < batch_size // width:
            avail = [p for p in sorted(per_patient) if p not in used]
            if not avail:
                break
            pid = pick(avail)
            tl = per_patient[pid]
            batch.append(tl.pop(int(rng.integers(len(tl)))))
            slices_left -= width
            if tl:
                used.add(pid)
            else:
                del per_patient[pid]
        if len(batch) < batch_size // width:
            break
        batches.append(batch)
    return batches


def reference_train(ds, loss_cfg, train_cfg):
    """(flat parameters, epoch losses, steps taken) of the per-step loop
    that ``encoder.train`` replaced: each step looks its rows and ids up
    slice by slice, augments them into a new array and stacks both views,
    builds its masks through a ``LossStructure`` of its one batch
    (``lone_batch``) and takes an out-of-place textbook ADAM step. Its
    augmentation, forward, loss and backward are the plain copies in
    ``reference_step``, not the package's."""
    meta = gcle.records_from_ids(ds.ids)
    row_of = {r["slice_id"]: i for i, r in enumerate(meta)}
    groups = loss_cfg.enabled_groups
    if train_cfg.batch_size is None:
        n_patients = len({r["patient_id"] for r in meta})
        size = sampler.default_batch_size(groups, n_patients=n_patients)
        train_cfg = replace(train_cfg, batch_size=size)
    X = ds.pixel_matrix()
    arch = Architecture(ds.h * ds.w, tuple(train_cfg.hidden), train_cfg.rep_dim,
                        train_cfg.proj_dim)
    params = init_params(arch, np.random.SeedSequence([train_cfg.seed, 0]))
    m, v = np.zeros_like(params.flat), np.zeros_like(params.flat)
    aug_rng = np.random.default_rng(np.random.SeedSequence([train_cfg.seed, 1]))
    c = train_cfg
    t = 0
    epoch_losses = []
    for epoch in range(c.epochs):
        plan = sampler.build_epoch(ds, groups, c.batch_size, epoch_seed(c.seed, epoch))
        batch_losses = []
        for batch_tuples in plan_slice_ids(ds, plan):
            rows = [row_of[sid] for tup in batch_tuples for sid in tup]
            originals = X[rows]
            views = augment_batch(originals, c.augment, aug_rng, ds.h, ds.w)
            _, proj, cache = forward_batch(params, np.vstack([originals, views]))
            ids = np.array([[meta[i][k] for k in gcle.RECORD_KEYS] for i in rows * 2]).T
            slice_pos = None
            if loss_cfg.slice_group > 0:
                slice_pos = slice_positives_from_rows(ids[0], ids[2], ids[3])
            loss, d_proj = loss_and_grad(lone_batch(proj, ids[1], ids[2], slice_pos), loss_cfg)
            g_w, g_b = backward_batch(params, cache, d_proj)
            grad = np.concatenate([np.ravel(x) for p in zip(g_w, g_b) for x in p])
            t += 1
            p = params.flat
            p *= 1.0 - c.learning_rate * c.weight_decay
            m = encoder.BETA1 * m + (1.0 - encoder.BETA1) * grad
            v = encoder.BETA2 * v + (1.0 - encoder.BETA2) * (grad * grad)
            p -= c.learning_rate * (m / (1.0 - encoder.BETA1 ** t)) / (
                np.sqrt(v / (1.0 - encoder.BETA2 ** t)) + encoder.ADAM_EPS
            )
            batch_losses.append(loss)
        epoch_losses.append(float(np.mean(batch_losses)))
    return params.flat, epoch_losses, t
