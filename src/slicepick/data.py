"""Slice/volume/patient data model, synthetic generator, and deviation statistic.

A dataset is a flat list of 2D slices. Every slice knows the volume it was
cut from, the patient that volume belongs to, and its depth position within
the volume. The synthetic generator produces a hierarchy with controllable
patient-level, volume-level, depth-drift, and noise variance so that group
structure is visible in pixel space.
"""

import json
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from . import _kernels, gcle
from ._io import write_atomic
from .errors import FormatError, InvalidSpecError, UndefinedStatisticError

GROUPINGS = ("dataset", "patient", "volume", "adjacent")


@dataclass(frozen=True, eq=False)
class SliceRecord:
    """One 2D slice: identity within the patient/volume hierarchy plus pixels."""

    slice_id: int
    patient_id: int
    volume_id: int
    slice_index: int
    pixels: np.ndarray  # flat, length h*w


class DatasetIndex:
    """Ordered slice list with patient->volumes and volume->slices maps.

    Construction validates the hierarchy: slice indices within a volume form
    a contiguous 0..d-1 range, each volume belongs to exactly one patient,
    and all pixel vectors share one length (h*w).
    """

    def __init__(self, slices, h, w):
        self.slices = list(slices)
        self.h = int(h)
        self.w = int(w)
        if not self.slices:
            raise InvalidSpecError("dataset must contain at least one slice")
        pix_len = self.h * self.w
        seen_ids = set()
        vol_patient = {}
        vol_indices = {}
        for rec in self.slices:
            if rec.slice_id in seen_ids:
                raise InvalidSpecError(f"duplicate slice_id {rec.slice_id}")
            seen_ids.add(rec.slice_id)
            if len(rec.pixels) != pix_len:
                raise InvalidSpecError(
                    f"slice {rec.slice_id}: pixel length {len(rec.pixels)} != h*w={pix_len}"
                )
            prev = vol_patient.setdefault(rec.volume_id, rec.patient_id)
            if prev != rec.patient_id:
                raise InvalidSpecError(
                    f"volume {rec.volume_id} maps to patients {prev} and {rec.patient_id}"
                )
            vol_indices.setdefault(rec.volume_id, []).append(
                (rec.slice_index, rec.slice_id)
            )
        for vid, pairs in vol_indices.items():
            idxs = sorted(i for i, _ in pairs)
            if idxs != list(range(len(idxs))):
                raise InvalidSpecError(
                    f"volume {vid} slice_index values {idxs} are not contiguous from 0"
                )
        self.volume_slices = {
            vid: [sid for _, sid in sorted(pairs)] for vid, pairs in vol_indices.items()
        }
        self.patient_volumes = {}
        for vid in sorted(vol_patient):
            self.patient_volumes.setdefault(vol_patient[vid], []).append(vid)
        self._row_of = {rec.slice_id: i for i, rec in enumerate(self.slices)}

    @property
    def n(self):
        return len(self.slices)

    def row_of(self, slice_id):
        return self._row_of[slice_id]

    def record(self, slice_id):
        return self.slices[self._row_of[slice_id]]

    def pixel_matrix(self):
        """All pixels as an (n, h*w) float64 matrix, rows in slice order."""
        return np.stack([np.asarray(r.pixels, dtype=np.float64) for r in self.slices])

    def patient_slices(self, patient_id):
        out = []
        for vid in self.patient_volumes[patient_id]:
            out.extend(self.volume_slices[vid])
        return out


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

    def validate(self):
        if min(self.n_patients, self.volumes_per_patient, self.slices_per_volume) < 1:
            raise InvalidSpecError("patient/volume/slice counts must all be >= 1")
        if self.h < 1 or self.w < 1:
            raise InvalidSpecError("h and w must be >= 1")
        if self.class_count < 2:
            raise InvalidSpecError("class_count must be >= 2")
        for name in ("patient_scale", "volume_scale", "adjacent_scale", "noise_scale"):
            if getattr(self, name) < 0:
                raise InvalidSpecError(f"{name} must be nonnegative")


def generate_synthetic(spec):
    """Build a synthetic dataset; a pure, bit-reproducible function of ``spec``.

    Pixels are an additive hierarchy: a per-patient offset image, a
    per-volume offset image, a per-volume drift image scaled by a centered
    linear ramp along depth (so adjacent slices differ by one ramp step),
    and i.i.d. noise. Labels cycle with the volume id, so label-efficient
    selection has to cover volumes; neighboring volume ids (including the
    two volumes of one patient) always land in different classes.

    Returns (DatasetIndex, labels) with one integer class per slice.
    """
    spec.validate()
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    n_p, n_vpp, d = spec.n_patients, spec.volumes_per_patient, spec.slices_per_volume
    n_vol = n_p * n_vpp
    pix = spec.h * spec.w

    patient_off = rng.standard_normal((n_p, pix)) * spec.patient_scale
    volume_off = rng.standard_normal((n_vol, pix)) * spec.volume_scale
    drift_dir = rng.standard_normal((n_vol, pix))
    noise = rng.standard_normal((n_vol * d, pix)) * spec.noise_scale

    ramp = np.zeros(d) if d == 1 else np.arange(d) / (d - 1) - 0.5

    slices = []
    labels = np.empty(n_vol * d, dtype=np.int64)
    sid = 0
    for p in range(n_p):
        for v in range(n_vpp):
            vol = p * n_vpp + v
            for t in range(d):
                pixels = (
                    patient_off[p]
                    + volume_off[vol]
                    + spec.adjacent_scale * ramp[t] * drift_dir[vol]
                    + noise[sid]
                )
                slices.append(
                    SliceRecord(
                        slice_id=sid,
                        patient_id=p,
                        volume_id=vol,
                        slice_index=t,
                        pixels=pixels,
                    )
                )
                labels[sid] = vol % spec.class_count
                sid += 1
    return DatasetIndex(slices, spec.h, spec.w), labels


def _minmax_normalize(X):
    lo = X.min()
    hi = X.max()
    if hi == lo:
        return np.zeros_like(X)
    return (X - lo) / (hi - lo)


def group_deviation(ds, grouping):
    """Mean pairwise absolute pixel deviation within groups of one grouping.

    Pixels are min-max normalized over the whole dataset first. For each
    group with at least two members the statistic averages, over all
    unordered slice pairs in the group, the mean absolute pixel difference;
    groups are then averaged with equal weight. Groupings:

    - "dataset": a single group holding every slice
    - "patient" / "volume": one group per patient / per volume
    - "adjacent": one group per same-volume pair at depth distance 1
    """
    if grouping not in GROUPINGS:
        raise ValueError(f"unknown grouping {grouping!r}; expected one of {GROUPINGS}")
    X = _minmax_normalize(ds.pixel_matrix())
    if grouping == "dataset":
        if ds.n < 2:
            raise UndefinedStatisticError("dataset grouping needs >= 2 slices")
        return _kernels.all_pairs_mean_abs(X)
    if grouping == "adjacent":
        ia, ib = [], []
        for sids in ds.volume_slices.values():
            rows = [ds.row_of(s) for s in sids]
            for a, b in zip(rows, rows[1:]):
                ia.append(a)
                ib.append(b)
        if not ia:
            raise UndefinedStatisticError("no adjacent slice pairs in any volume")
        return float(np.mean(_kernels.pair_mean_abs(X, np.array(ia), np.array(ib))))
    groups = ds.patient_volumes if grouping == "patient" else ds.volume_slices
    means = []
    for key in sorted(groups):
        if grouping == "patient":
            rows = [ds.row_of(s) for s in ds.patient_slices(key)]
        else:
            rows = [ds.row_of(s) for s in groups[key]]
        if len(rows) < 2:
            continue
        means.append(_kernels.all_pairs_mean_abs(X[rows]))
    if not means:
        raise UndefinedStatisticError(f"no {grouping} group has >= 2 slices")
    return float(np.mean(means))


# ---------------------------------------------------------------------------
# dataset directory: meta.json + data.bin (float32 LE row-major) + labels.json

def save_dataset(ds, labels, out_dir, spec=None):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    meta = {
        "format_version": 1,
        "h": ds.h,
        "w": ds.w,
        "slices": [
            {
                "slice_id": r.slice_id,
                "patient_id": r.patient_id,
                "volume_id": r.volume_id,
                "slice_index": r.slice_index,
            }
            for r in ds.slices
        ],
        "spec": asdict(spec) if spec is not None else None,
    }
    write_atomic(out / "meta.json", json.dumps(meta, indent=2, sort_keys=True) + "\n")
    write_atomic(
        out / "data.bin", np.ascontiguousarray(ds.pixel_matrix(), dtype="<f4").tobytes()
    )
    write_atomic(out / "labels.json", json.dumps([int(x) for x in labels]) + "\n")


_RECORD_KEYS = ("slice_id", "patient_id", "volume_id", "slice_index")


def _meta_int(meta_path, value, where):
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormatError(f"{meta_path}: {where} must be an integer, got {value!r}")
    return value


def _read_meta(meta_path):
    """(h, w, slice records) from meta.json; every missing or malformed key
    is a FormatError naming the file and the key."""
    try:
        meta = json.loads(meta_path.read_text())
    except ValueError as exc:
        raise FormatError(f"{meta_path}: not valid JSON: {exc}") from exc
    if not isinstance(meta, dict):
        raise FormatError(f"{meta_path}: top level must be a JSON object")
    if meta.get("format_version") != 1:
        raise FormatError(
            f"{meta_path}: unsupported dataset format_version {meta.get('format_version')!r}"
        )
    for key in ("h", "w", "slices"):
        if key not in meta:
            raise FormatError(f"{meta_path}: missing key {key!r}")
    h = _meta_int(meta_path, meta["h"], "'h'")
    w = _meta_int(meta_path, meta["w"], "'w'")
    if h < 1 or w < 1:
        raise FormatError(f"{meta_path}: 'h' and 'w' must be >= 1, got {h} and {w}")
    if not isinstance(meta["slices"], list):
        raise FormatError(f"{meta_path}: 'slices' must be a list of slice records")
    records = []
    for i, r in enumerate(meta["slices"]):
        if not isinstance(r, dict):
            raise FormatError(f"{meta_path}: slices[{i}] must be a JSON object")
        for key in _RECORD_KEYS:
            if key not in r:
                raise FormatError(f"{meta_path}: slices[{i}] is missing key {key!r}")
        records.append(
            {key: _meta_int(meta_path, r[key], f"slices[{i}].{key}") for key in _RECORD_KEYS}
        )
    return h, w, records


def load_dataset(in_dir):
    """Read a dataset directory back into (DatasetIndex, labels)."""
    root = Path(in_dir)
    h, w, rows = _read_meta(root / "meta.json")
    data_path = root / "data.bin"
    raw = data_path.read_bytes()
    expected = len(rows) * h * w * 4
    if len(raw) != expected:
        raise FormatError(f"{data_path}: holds {len(raw)} bytes, expected {expected}")
    X = np.frombuffer(raw, dtype="<f4").reshape(len(rows), h * w).astype(np.float64)
    if not np.all(np.isfinite(X)):
        raise FormatError(f"{data_path}: contains non-finite values")
    labels_path = root / "labels.json"
    try:
        labels = np.asarray(json.loads(labels_path.read_text()), dtype=np.int64)
    except (ValueError, TypeError) as exc:
        raise FormatError(f"{labels_path}: not a JSON list of integers: {exc}") from exc
    if labels.shape != (len(rows),):
        raise FormatError(
            f"{labels_path}: holds {labels.size} labels for {len(rows)} slices"
        )
    slices = [SliceRecord(**r, pixels=X[i]) for i, r in enumerate(rows)]
    return DatasetIndex(slices, h, w), labels


def import_embeddings(path):
    """Load an embedding file plus sidecar metadata as a feature dataset.

    Each embedding row becomes the "pixels" of a 1 x dim slice, so selection
    and probing can run on externally computed features. Returns
    (DatasetIndex, matrix) with matrix row i describing slices[i].
    """
    matrix, meta_rows = gcle.read_gcle(path)
    X = matrix.astype(np.float64)
    dim = X.shape[1]
    slices = [
        SliceRecord(
            slice_id=int(r["slice_id"]),
            patient_id=int(r["patient_id"]),
            volume_id=int(r["volume_id"]),
            slice_index=int(r["slice_index"]),
            pixels=X[i],
        )
        for i, r in enumerate(meta_rows)
    ]
    return DatasetIndex(slices, 1, dim), matrix
