"""Slice/volume/patient data model, synthetic generator, and deviation statistic.

A dataset is one read-only float32 pixel matrix, a row per 2D slice, and
one read-only identity table beside it: row i holds the slice id of pixel
row i, its patient, its volume and its depth within the volume. The table
is slice identity's one form in memory, JSON records only in ``meta.json``;
the matrix is the values of ``data.bin``, read as they are, and written
only if ``load_dataset`` would take them back (``_io``'s rules). One canonical
order of the rows (patient, then volume, then depth) makes every patient
and every volume a contiguous run, which is all the sampler and the
deviation statistic look up. Nothing derived from the matrix is cached:
the deviation statistic hands the dataset's min and max to the kernels,
which normalize their own widened column or pair block, so ``stats``
holds no transient (n, p) array. The synthetic generator makes a
hierarchy with controllable patient-level, volume-level, depth-drift, and
noise variance so that group structure is visible in pixel space.
"""

import json
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from . import _io, _kernels, gcle
from .errors import FormatError, InvalidSpecError, SettingError, UndefinedStatisticError

GROUPINGS = ("dataset", "patient", "volume", "adjacent")


def _run_bounds(keys):
    """Starts of the runs of equal values in ``keys``, then ``len(keys)``."""
    change = np.flatnonzero(keys[1:] != keys[:-1]) + 1
    return np.concatenate(([0], change, [len(keys)]))


def _read_only(a):
    a.flags.writeable = False
    return a


class DatasetIndex:
    """``ids``, an (n, 4) integer identity table kept as a read-only int64
    copy, row i matrix row i's ``gcle.RECORD_KEYS`` (slice_id, patient_id,
    volume_id, slice_index), and the (n, h*w) ``pixels`` matrix, taken over
    read-only as C-contiguous float32 (any other input rounded once).

    ``order`` lists the rows by patient, then volume, then depth;
    ``patient_bounds`` and ``volume_bounds`` hold the starts of the patient
    and volume runs in it, then n. Construction checks the matrix shape and
    the hierarchy: slice ids are unique, each volume belongs to one patient,
    and each volume's slice indices run 0..d-1; any other ``ids`` than an
    (n, 4) integer array is an InvalidSpecError.
    """

    def __init__(self, ids, pixels, h, w):
        ids = np.asarray(ids)
        if ids.ndim != 2 or ids.shape[1] != len(gcle.RECORD_KEYS) or ids.dtype.kind not in "iu":
            raise InvalidSpecError(
                f"identity table has shape {ids.shape} and dtype {ids.dtype}, "
                f"expected an (n, {len(gcle.RECORD_KEYS)}) integer array"
            )
        self.ids = _read_only(ids.astype(np.int64))
        self.h = int(h)
        self.w = int(w)
        if not self.n:
            raise InvalidSpecError("dataset must contain at least one slice")
        X = np.ascontiguousarray(pixels, dtype=np.float32)
        if X.shape != (self.n, self.h * self.w):
            raise InvalidSpecError(
                f"pixel matrix has shape {X.shape}, expected "
                f"({self.n}, h*w={self.h * self.w})"
            )
        self._pixels = _read_only(X)
        sid, pid, vid, depth = self.ids.T
        # the first row to repeat a slice id, or to put its volume under a
        # second patient, is named (a repeat first on a tie); row 0 does neither
        _, sid_first, sid_of = np.unique(sid, return_index=True, return_inverse=True)
        vids, vid_first, vid_of = np.unique(vid, return_index=True, return_inverse=True)
        repeated, prev = sid_first[sid_of] != np.arange(self.n), pid[vid_first[vid_of]]
        i = int(np.argmax(repeated | (prev != pid)))
        if repeated[i]:
            raise InvalidSpecError(f"slices[{i}]: duplicate slice_id {sid[i]}")
        if prev[i] != pid[i]:
            raise InvalidSpecError(
                f"slices[{i}]: volume {vid[i]} maps to patients {prev[i]} and {pid[i]}"
            )
        self.order = _read_only(np.lexsort((depth, vid, pid)))
        self.patient_bounds = _read_only(_run_bounds(pid[self.order]))
        self.volume_bounds = bounds = _read_only(_run_bounds(vid[self.order]))
        # sorted, a volume's depths are its run positions 0..d-1; of the volumes
        # that break this, the first to appear is named
        gaps = depth[self.order] != np.arange(self.n) - np.repeat(bounds[:-1], np.diff(bounds))
        if gaps.any():
            v = min(vid_of[self.order[gaps]], key=lambda u: vid_first[u])
            raise InvalidSpecError(
                f"volume {vids[v]} slice_index values {np.sort(depth[vid_of == v]).tolist()} "
                "are not contiguous from 0"
            )

    @property
    def n(self):
        return len(self.ids)

    def pixel_matrix(self):
        """All pixels, the read-only (n, h*w) float32 matrix the dataset
        holds, one row per row of ``ids``."""
        return self._pixels


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of the hierarchical synthetic generator."""

    n_patients: int
    volumes_per_patient: int
    slices_per_volume: int
    h: int = 16
    w: int = 16
    class_count: int = 4
    patient_scale: float = 0.4
    volume_scale: float = 1.0
    adjacent_scale: float = 0.3
    noise_scale: float = 0.05
    seed: int = 0

    def __post_init__(self):
        for name in ("n_patients", "volumes_per_patient", "slices_per_volume", "h", "w"):
            if getattr(self, name) < 1:
                raise SettingError("synthetic-data", self, name, "be >= 1")
        if self.class_count < 2:
            raise SettingError("synthetic-data", self, "class_count", "be >= 2")
        for name in ("patient_scale", "volume_scale", "adjacent_scale", "noise_scale"):
            if not 0 <= getattr(self, name) < np.inf:
                raise SettingError("synthetic-data", self, name, "be finite and nonnegative")
        if self.seed < 0:
            raise SettingError("synthetic-data", self, "seed", "be a nonnegative integer")


@np.errstate(over="ignore", invalid="ignore")  # each rounded row block is checked
def generate_synthetic(spec):
    """Build a synthetic dataset; a pure, bit-reproducible function of ``spec``.

    Pixels are an additive hierarchy: a per-patient offset image, a
    per-volume offset image, a per-volume drift image scaled by a centered
    linear ramp along depth (so adjacent slices differ by one ramp step),
    and i.i.d. noise. Labels cycle with the volume id, so label-efficient
    selection has to cover volumes; neighboring volume ids (including the
    two volumes of one patient) always land in different classes.

    Returns (DatasetIndex, labels), one class per slice; pixels past float32 raise InvalidSpecError.
    """
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    n_p, n_vpp, d = spec.n_patients, spec.volumes_per_patient, spec.slices_per_volume
    n_vol = n_p * n_vpp
    pix = spec.h * spec.w

    patient_off = rng.standard_normal((n_p, pix)) * spec.patient_scale
    volume_off = rng.standard_normal((n_vol, pix)) * spec.volume_scale
    drift_dir = rng.standard_normal((n_vol, pix))
    step = spec.adjacent_scale * (np.zeros(d) if d == 1 else np.arange(d) / (d - 1) - 0.5)

    # row i is slice id i: its patient, volume and depth, in id order
    i = np.arange(n_vol * d)
    ids = np.stack([i, i // (n_vpp * d), i // d, i % d], axis=1)
    X = np.empty((n_vol * d, pix), dtype=np.float32)  # each row rounded once
    # noise drawn one row block at a time into one buffer: the values of one draw
    buffer = np.empty((min(_kernels._block_rows(pix), len(X)), pix))
    for start in range(0, len(X), len(buffer)):
        noise = rng.standard_normal(out=buffer[:len(X) - start])
        noise *= spec.noise_scale
        rows = X[start:start + len(noise)]
        for row, (p, vol, t), e in zip(rows, ids[start:start + len(rows), 1:].tolist(), noise):
            row[:] = patient_off[p] + volume_off[vol] + step[t] * drift_dir[vol] + e
        if not np.isfinite(rows).all():
            raise InvalidSpecError(
                f"synthetic pixels of slices {start}..{start + len(rows) - 1} are not finite "
                "in float32; lower patient_scale, volume_scale, adjacent_scale or noise_scale"
            )
    labels = ids[:, 2] % spec.class_count
    return DatasetIndex(ids, X, spec.h, spec.w), labels


def group_deviation(ds, grouping):
    """Mean pairwise absolute pixel deviation within groups of one grouping.

    Pixels are min-max normalized over the whole dataset in float64, by
    x -> (x - lo) / (hi - lo), or to 0.0 when hi == lo. The kernels apply
    that map to their own sorted column or pair block, so no normalized copy
    of the matrix is made or kept. For each group with at least two members
    the statistic averages, over all unordered slice pairs in the group, the
    mean absolute pixel difference; groups then weigh equally. Groupings:

    - "dataset": a single group holding every slice
    - "patient" / "volume": one group per patient / per volume, the runs
      of ``ds.order``, in patient / volume id order
    - "adjacent": one group per same-volume pair at depth distance 1
    """
    if grouping not in GROUPINGS:
        raise ValueError(f"unknown grouping {grouping!r}; expected one of {GROUPINGS}")
    X = ds.pixel_matrix()
    lo, hi = float(X.min()), float(X.max())
    scale = hi - lo if hi != lo else 1.0  # every finite x - lo is then 0.0
    if grouping == "dataset":
        if ds.n < 2:
            raise UndefinedStatisticError("dataset grouping needs >= 2 slices")
        return _kernels.all_pairs_mean_abs(X, lo, scale)
    order = ds.order
    if grouping == "adjacent":
        vid = ds.ids[order, 2]
        same = vid[1:] == vid[:-1]  # neighbors in a volume run are depth neighbors
        if not same.any():
            raise UndefinedStatisticError("no adjacent slice pairs in any volume")
        pairs = _kernels.pair_mean_abs(X, order[:-1][same], order[1:][same], lo, scale)
        return float(np.mean(pairs))
    bounds = ds.patient_bounds if grouping == "patient" else ds.volume_bounds
    means = [
        _kernels.all_pairs_mean_abs(X[order[a:b]], lo, scale)
        for a, b in zip(bounds[:-1], bounds[1:])
        if b - a >= 2
    ]
    if not means:
        raise UndefinedStatisticError(f"no {grouping} group has >= 2 slices")
    return float(np.mean(means))


# ---------------------------------------------------------------------------
# dataset directory: meta.json + data.bin (float32 LE row-major) + labels.json

def save_dataset(ds, labels, out_dir, spec=None):
    """Write the dataset directory, its three files together: a failed
    write (non-finite pixels too) leaves every file as it was, never a mixed set."""
    out = Path(out_dir)
    pixels = _io.f32_payload(out / "data.bin", ds.pixel_matrix(), "payload")
    meta = {
        "format_version": _io.FORMAT_VERSION,
        "h": ds.h,
        "w": ds.w,
        "slices": gcle.records_from_ids(ds.ids),
        "spec": asdict(spec) if spec is not None else None,
    }
    out.mkdir(parents=True, exist_ok=True)
    _io.write_all_atomic([
        (out / "meta.json", json.dumps(meta, indent=2, sort_keys=True) + "\n"),
        (out / "data.bin", pixels),
        (out / "labels.json", json.dumps([int(x) for x in labels]) + "\n"),
    ])


def load_dataset(in_dir):
    """Read a dataset directory back into (DatasetIndex, labels); every
    missing or malformed key is a FormatError naming the file and the key."""
    root = Path(in_dir)
    meta_path, data_path, labels_path = root / "meta.json", root / "data.bin", root / "labels.json"
    meta = _io.json_document(meta_path, meta_path.read_bytes(), dict, versioned=True)
    for key in ("h", "w", "slices"):
        if key not in meta:
            raise FormatError(f"{meta_path}: missing key {key!r}")
    h, w = (_io.json_int(meta_path, meta[key], f"'{key}'") for key in ("h", "w"))
    if h < 1 or w < 1:
        raise FormatError(f"{meta_path}: 'h' and 'w' must be >= 1, got {h} and {w}")
    if not isinstance(meta["slices"], list):
        raise FormatError(f"{meta_path}: 'slices' must be a list of slice records")
    ids = gcle.ids_from_records(meta_path, meta["slices"], "slices")
    del meta  # its parsed records go before data.bin is read
    X = _io.read_f32(data_path, data_path.read_bytes(), 0, (len(ids), h * w), "payload", meta_path)
    labels = _io.json_document(labels_path, labels_path.read_bytes(), list)
    if len(labels) != len(ids):
        raise FormatError(f"{labels_path}: holds {len(labels)} labels for {len(ids)} slices")
    labels = _io.json_ints(labels_path, labels, "index {}".format)
    try:  # a hierarchy fault names the record slices[i] or the volume
        return DatasetIndex(ids, X, h, w), labels
    except InvalidSpecError as exc:
        raise FormatError(f"{meta_path}: {exc}") from exc
