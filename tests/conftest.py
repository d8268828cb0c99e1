import itertools
import math

import numpy as np
import pytest

from slicepick import DatasetIndex, SynthSpec, generate_synthetic
from slicepick.losses import LossBatch, slice_positives_from_rows


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
    rows = [
        dict(slice_id=sid, patient_id=pid, volume_id=vid, slice_index=t)
        for sid, (pid, vid, t) in enumerate(slices)
    ]
    return DatasetIndex(rows, np.asarray(pixel_rows, dtype=np.float64), h, w)


def random_structured_batch(rng, n_pairs, dim, n_patients=2, n_volumes=3):
    """Random embeddings with random patient/volume/depth structure."""
    pid = rng.integers(0, n_patients, size=n_pairs)
    vid = pid * 10 + rng.integers(0, n_volumes, size=n_pairs)
    idx = rng.integers(0, 4, size=n_pairs)
    sid = np.arange(n_pairs)
    z = rng.standard_normal((2 * n_pairs, dim))
    pos = slice_positives_from_rows(np.tile(sid, 2), np.tile(vid, 2), np.tile(idx, 2))
    batch = LossBatch(
        z=z,
        patient_ids=np.tile(pid, 2),
        volume_ids=np.tile(vid, 2),
        slice_positives=pos,
    )
    return batch


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
    min-max normalized pixels; None when the grouping has no valid pair."""
    X = ds.pixel_matrix()
    lo, hi = X.min(), X.max()
    X = np.zeros_like(X) if hi == lo else (X - lo) / (hi - lo)

    def pair_dev(i, j):
        return float(np.mean(np.abs(X[i] - X[j])))

    if grouping == "dataset":
        vals = [pair_dev(i, j) for i, j in itertools.combinations(range(ds.n), 2)]
        return float(np.mean(vals)) if vals else None
    if grouping == "adjacent":
        vals = []
        for sids in ds.volume_slices.values():
            rows = [ds.row_of(s) for s in sids]
            vals += [pair_dev(a, b) for a, b in zip(rows, rows[1:])]
        return float(np.mean(vals)) if vals else None
    group_vals = []
    keys = ds.patient_volumes if grouping == "patient" else ds.volume_slices
    for key in keys:
        sids = ds.patient_slices(key) if grouping == "patient" else keys[key]
        rows = [ds.row_of(s) for s in sids]
        if len(rows) < 2:
            continue
        group_vals.append(
            float(np.mean([pair_dev(a, b) for a, b in itertools.combinations(rows, 2)]))
        )
    return float(np.mean(group_vals)) if group_vals else None


def ref_group_loss_from_batch(batch, group_type, tau):
    labels = None
    sets = None
    if group_type == "patient":
        labels = list(batch.patient_ids)
    elif group_type == "volume":
        labels = list(batch.volume_ids)
    else:
        sets = [set(int(x) for x in np.flatnonzero(s)) for s in batch.slice_positives]
    return ref_group_loss(
        [list(row) for row in batch.z],
        list(batch.patient_ids),
        tau,
        group_type,
        labels=labels,
        positive_sets=sets,
    )
