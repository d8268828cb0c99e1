"""Group-aware batch sampler.

One epoch makes every slice the anchor of exactly one tuple. A tuple holds
the anchor plus one companion per enabled group type: an adjacent slice
("slice"), another slice of the same volume ("volume"), and a slice of the
same patient ("patient"). Batches are then composed of whole tuples with at
most one tuple per patient; tuples that cannot fill a complete batch are
dropped. Rebuilding the plan each epoch with a fresh seed re-randomizes
companions and batch composition.
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import SamplerError, SettingError

GROUP_SLICE = "slice"
GROUP_VOLUME = "volume"
GROUP_PATIENT = "patient"
GROUP_TYPES = (GROUP_SLICE, GROUP_VOLUME, GROUP_PATIENT)


@dataclass(frozen=True)
class AnchorTuple:
    """An anchor slice with one companion slice per enabled group type."""

    anchor: int
    companions: tuple  # ((group_type, slice_id), ...) in GROUP_TYPES order

    def slice_ids(self):
        return (self.anchor,) + tuple(sid for _, sid in self.companions)


@dataclass
class EpochPlan:
    batches: list  # list of batches; each batch is a list of AnchorTuple
    batch_size_slices: int

    def to_json(self):
        return json.dumps(
            {
                "batch_size_slices": self.batch_size_slices,
                "batches": [
                    [
                        {"anchor": t.anchor, "companions": [list(c) for c in t.companions]}
                        for t in batch
                    ]
                    for batch in self.batches
                ],
            },
            indent=2,
            sort_keys=True,
        )


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


def _check_draw(ds, groups, batch_size):
    """The tuple width; raises for a batch size of no whole tuples, then for
    the first patient or volume, in ``build_epoch``'s order, with no pool."""
    width = tuple_width(groups)
    if batch_size < 1:
        raise SettingError("sampler", {"batch_size": batch_size}, "batch_size", "be >= 1 slice")
    if batch_size % width:
        rule = f"be a multiple of {width}, the tuple width of the groups {'+'.join(sorted(groups))}"
        raise SettingError("sampler", {"batch_size": batch_size}, "batch_size", rule)
    for pid, vids in sorted(ds.patient_volumes.items()):
        if GROUP_PATIENT in groups and sum(len(ds.volume_slices[v]) for v in vids) < 2:
            raise SamplerError(f"patient {pid} has a single slice; patient companions need >= 2")
        for vid in vids:
            if GROUP_VOLUME in groups and len(ds.volume_slices[vid]) < 2:
                raise SamplerError(f"volume {vid} has a single slice; volume companions need >= 2")
    return width


def epoch_batch_size(ds, enabled_groups, batch_size=None):
    """The batch size of every epoch of a training on ``ds``: ``batch_size``, or
    the stock size for None. Raises what ``build_epoch`` raises, and SettingError
    for more tuples than patients: only then does a batch never fill, whatever the seed."""
    n_patients = len(ds.patient_volumes)
    if batch_size is None:
        batch_size = default_batch_size(enabled_groups, n_patients=n_patients)
    width = _check_draw(ds, set(enabled_groups), batch_size)
    if batch_size // width > n_patients:
        rule = f"be at most {width * n_patients}: one {width}-slice tuple per patient"
        raise SettingError("sampler", {"batch_size": batch_size}, "batch_size", rule)
    return batch_size


def _pick(rng, seq):
    # rng.integers is drawn even for single-candidate pools so the stream
    # advances identically across datasets of the same shape
    return seq[int(rng.integers(len(seq)))]


def build_epoch(ds, enabled_groups, batch_size, seed):
    """Build one epoch of tuple batches; deterministic in ``seed``.

    Companion pools (drawn uniformly, in slice/volume/patient order per
    anchor, anchors visited in sorted patient -> volume -> depth order):

    - slice: the depth neighbors of the anchor; boundary slices use their
      single neighbor and single-slice volumes fall back to the anchor
      itself so the tuple width stays constant.
    - volume: any other slice of the anchor's volume (error if none).
    - patient: any same-patient slice from a different volume when the
      patient has one, otherwise any same-volume slice except the anchor
      (error if the patient has no other slice).

    Batch composition repeats while at least ``batch_size`` slices remain:
    pick a uniform patient among those unused in the current batch with
    tuples left, pop a uniform tuple from it, and mark the patient used.
    If no patient is available before the batch fills, the epoch ends and
    the leftover tuples are dropped.
    A bad batch size or an empty pool raises before any draw.
    """
    groups = set(enabled_groups)
    width = _check_draw(ds, groups, batch_size)
    tuples_per_batch = batch_size // width
    rng = np.random.default_rng(seed)

    per_patient = {}
    for pid in sorted(ds.patient_volumes):
        vids = ds.patient_volumes[pid]
        tuples = []
        for vid in vids:
            vol_sids = ds.volume_slices[vid]
            cross_volume = [s for v in vids if v != vid for s in ds.volume_slices[v]]
            for k, anchor in enumerate(vol_sids):
                others = vol_sids[:k] + vol_sids[k + 1:]
                companions = []
                if GROUP_SLICE in groups:
                    neighbors = [
                        vol_sids[j] for j in (k - 1, k + 1) if 0 <= j < len(vol_sids)
                    ]
                    pool = neighbors if neighbors else [anchor]
                    companions.append((GROUP_SLICE, _pick(rng, pool)))
                if GROUP_VOLUME in groups:
                    companions.append((GROUP_VOLUME, _pick(rng, others)))
                if GROUP_PATIENT in groups:
                    pool = cross_volume if cross_volume else others
                    companions.append((GROUP_PATIENT, _pick(rng, pool)))
                tuples.append(AnchorTuple(anchor, tuple(companions)))
        per_patient[pid] = tuples

    batches = []
    # built in sorted patient order and only ever shrunk, so it stays sorted
    remaining = {pid: tl for pid, tl in per_patient.items() if tl}
    slices_left = sum(len(tl) for tl in remaining.values()) * width
    while slices_left >= batch_size:
        batch = []
        used = set()
        while len(batch) < tuples_per_batch:
            avail = [p for p in remaining if p not in used]
            if not avail:
                break
            pid = _pick(rng, avail)
            tuples = remaining[pid]
            batch.append(tuples.pop(int(rng.integers(len(tuples)))))
            slices_left -= width
            if tuples:
                used.add(pid)
            else:
                del remaining[pid]
        if len(batch) < tuples_per_batch:
            break  # cannot satisfy patient uniqueness; drop leftovers
        batches.append(batch)
    return EpochPlan(batches=batches, batch_size_slices=batch_size)
