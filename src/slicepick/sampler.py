"""Group-aware batch sampler.

One epoch makes every slice the anchor of exactly one tuple. A tuple holds
the anchor plus one companion per enabled group type: an adjacent slice
("slice"), another slice of the same volume ("volume"), and a slice of the
same patient ("patient"). Batches are then composed of whole tuples with at
most one tuple per patient; tuples that cannot fill a complete batch are
dropped. Rebuilding the plan each epoch with a fresh seed re-randomizes
companions and batch composition.

A plan is made of dataset rows. Every companion pool is a stretch of the
dataset's canonical order (``DatasetIndex.order``), where each patient and
each volume is one run, so one ``rng.integers`` call over all pool sizes
draws every companion of an epoch, and index arithmetic finds each one.
Slice ids appear only in ``EpochPlan.to_json``.
"""

import bisect
import json
from dataclasses import dataclass

import numpy as np

from .errors import SamplerError, SettingError

GROUP_SLICE = "slice"
GROUP_VOLUME = "volume"
GROUP_PATIENT = "patient"
GROUP_TYPES = (GROUP_SLICE, GROUP_VOLUME, GROUP_PATIENT)


@dataclass
class EpochPlan:
    """``batches`` is a (B, N, width) int64 array of dataset rows: B batches
    of N tuples, each the anchor and then one companion per group type of
    ``groups``."""

    batches: np.ndarray
    batch_size_slices: int
    groups: tuple  # the companion columns' group types, in GROUP_TYPES order

    def to_json(self, ds):
        """The plan in the slice ids of ``ds``, the dataset it was drawn from."""
        batches = [
            [{"anchor": t[0], "companions": [list(c) for c in zip(self.groups, t[1:])]} for t in b]
            for b in ds.ids[self.batches, 0].tolist()
        ]
        doc = {"batch_size_slices": self.batch_size_slices, "batches": batches}
        return json.dumps(doc, indent=2, sort_keys=True)


def tuple_width(enabled_groups):
    """Slices per tuple: the anchor plus one companion per enabled group."""
    groups = set(enabled_groups)
    unknown = groups - set(GROUP_TYPES)
    if unknown:
        raise ValueError(f"unknown group types {sorted(unknown)}")
    return 1 + len(groups)


def default_batch_size(enabled_groups, n_patients=None):
    """Smallest multiple of the tuple width that is >= 8.

    Reproduces the stock configuration: 8 slices for widths 1, 2, and 4;
    9 slices for width 3. When ``n_patients`` is given, the tuple count per
    batch is capped by it so that tiny datasets still produce batches.
    """
    width = tuple_width(enabled_groups)
    per_batch = -(-8 // width)
    if n_patients is not None:
        per_batch = max(1, min(per_batch, n_patients))
    return width * per_batch


def check_batch_size(batch_size):
    """The one check of a batch size below one slice, ``TrainConfig``'s too."""
    if batch_size < 1:
        raise SettingError("sampler", {"batch_size": batch_size}, "batch_size", "be >= 1 slice")


def _check_draw(ds, groups, batch_size):
    """The tuple width; raises for a batch size of no whole tuples, then for
    the first patient or volume, in ``build_epoch``'s order, with no pool."""
    width = tuple_width(groups)
    check_batch_size(batch_size)
    if batch_size % width:
        rule = f"be a multiple of {width}, the tuple width of the groups {'+'.join(sorted(groups))}"
        raise SettingError("sampler", {"batch_size": batch_size}, "batch_size", rule)
    _, patient_size = _runs(ds.patient_bounds)
    _, volume_size = _runs(ds.volume_bounds)
    lone_patient = (GROUP_PATIENT in groups) & (patient_size < 2)
    lone = np.flatnonzero(lone_patient | ((GROUP_VOLUME in groups) & (volume_size < 2)))
    if lone.size:
        _, pid, vid, _ = ds.ids[ds.order[lone[0]]]
        if lone_patient[lone[0]]:
            raise SamplerError(f"patient {pid} has a single slice; patient companions need >= 2")
        raise SamplerError(f"volume {vid} has a single slice; volume companions need >= 2")
    return width


def epoch_batch_size(ds, enabled_groups, batch_size=None):
    """The batch size of every epoch of a training on ``ds``: ``batch_size``, or
    the stock size for None. Raises what ``build_epoch`` raises, and SettingError
    for more tuples than patients: only then does a batch never fill, whatever the seed."""
    n_patients = len(ds.patient_bounds) - 1
    if batch_size is None:
        batch_size = default_batch_size(enabled_groups, n_patients=n_patients)
    width = _check_draw(ds, set(enabled_groups), batch_size)
    if batch_size // width > n_patients:
        rule = f"be at most {width * n_patients}: one {width}-slice tuple per patient"
        raise SettingError("sampler", {"batch_size": batch_size}, "batch_size", rule)
    return batch_size


def _runs(bounds):
    """Per position of ``DatasetIndex.order``: the start and the size of its run."""
    sizes = np.diff(bounds)
    return np.repeat(bounds[:-1], sizes), np.repeat(sizes, sizes)


def build_epoch(ds, enabled_groups, batch_size, seed):
    """Build one epoch of tuple batches; deterministic in ``seed``.

    Companion pools (drawn uniformly, in slice/volume/patient order per
    anchor, anchors visited in ``ds.order``: patient -> volume -> depth):

    - slice: the depth neighbors of the anchor; boundary slices use their
      single neighbor and single-slice volumes fall back to the anchor
      itself so the tuple width stays constant.
    - volume: any other slice of the anchor's volume (error if none).
    - patient: any same-patient slice from a different volume when the
      patient has one, otherwise any same-volume slice except the anchor
      (error if the patient has no other slice).

    Every companion comes from one ``rng.integers`` call over all pool
    sizes, which draws what one scalar call per companion would.
    Batch composition repeats while at least ``batch_size`` slices remain:
    pick a uniform patient among those unused in the current batch with
    tuples left, pop a uniform tuple from it, and mark the patient used.
    If no patient is available before the batch fills, the epoch ends and
    the leftover tuples are dropped.
    A bad batch size or an empty pool raises before any draw.
    """
    groups = set(enabled_groups)
    width = _check_draw(ds, groups, batch_size)
    rng = np.random.default_rng(seed)

    # positions in ds.order: k anchors tuple k, inside runs [v0, v0 + v_len)
    # of its volume and [p0, p0 + p_len) of its patient
    k = np.arange(ds.n)
    v0, v_len = _runs(ds.volume_bounds)
    p0, p_len = _runs(ds.patient_bounds)
    has_prev, has_next = k > v0, k + 1 < v0 + v_len
    cross = p_len - v_len  # the patient's slices outside the anchor's volume
    columns = tuple(g for g in GROUP_TYPES if g in groups)
    pool_size = {
        GROUP_SLICE: np.maximum(has_prev.astype(np.int64) + has_next, 1),
        GROUP_VOLUME: v_len - 1,
        GROUP_PATIENT: np.where(cross > 0, cross, v_len - 1),
    }
    # (anchors, groups) pool sizes: drawn anchor by anchor, each anchor's groups in turn
    draws = rng.integers(np.array([pool_size[g] for g in columns], dtype=np.int64).T)
    positions = [k]
    for g, j in zip(columns, draws.T):
        skip_anchor = v0 + j + (j >= k - v0)
        if g == GROUP_SLICE:  # the neighbor below when there is one, else the one above
            positions.append(np.where(has_prev, k - 1, np.where(has_next, k + 1, k)) + 2 * j)
        elif g == GROUP_VOLUME:
            positions.append(skip_anchor)
        else:  # skip the anchor's own volume, unless it is the patient's only one
            skip_volume = p0 + j + v_len * (p0 + j >= v0)
            positions.append(np.where(cross > 0, skip_volume, skip_anchor))
    tuples = ds.order[np.stack(positions, axis=1)]

    chosen = _compose(ds.patient_bounds.tolist(), width, batch_size, rng)
    return EpochPlan(tuples[chosen], batch_size, columns)


def _compose(bounds, width, batch_size, rng):
    """The batch composition of ``build_epoch`` over the patient runs
    ``bounds`` of ``DatasetIndex.order``: a (B, N) array of tuple positions.

    Each pick draws k below the number of available patients and takes the
    k-th of them in patient order, found by stepping over the batch's used
    patients among those with tuples left, not by listing the available.
    """
    tuples_per_batch = batch_size // width
    # each patient run's tuple positions; only ever shrunk
    left_of = [list(range(a, b)) for a, b in zip(bounds, bounds[1:])]
    patients = list(range(len(left_of)))  # the patients with tuples left, ascending
    batches = []
    slices_left = bounds[-1] * width
    while slices_left >= batch_size:
        batch = []
        used = []  # the batch's patients with tuples left, ascending
        while len(batch) < tuples_per_batch:
            available = len(patients) - len(used)
            if not available:
                break
            i = int(rng.integers(available))
            for u in used:  # skip each used patient at or before position i
                if bisect.bisect_left(patients, u) > i:
                    break
                i += 1
            p = patients[i]
            left = left_of[p]
            batch.append(left.pop(int(rng.integers(len(left)))))
            slices_left -= width
            if left:
                bisect.insort(used, p)
            else:
                del patients[i]
        if len(batch) < tuples_per_batch:
            break  # cannot satisfy patient uniqueness; drop leftovers
        batches.append(batch)
    return np.array(batches, dtype=np.int64).reshape(-1, tuples_per_batch)
