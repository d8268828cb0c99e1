"""Output checks that recompute each artifact by a route of their own.

The checks read the dataset directory and the artifacts as files and use
numpy only, never slicepick: 1-NN and cover radius by direct differences
looped over reference rows (ties to the lowest row), greedy picks against
those direct distances, and the deviation statistics by the sorted-column
(Gini mean-difference) identity
sum_{i<j} |x_i - x_j| = sum_k (2k - m + 1) x_(k) over each sorted column.

Each ``check_*`` returns (failures, figures): a list of messages, empty when
the artifact is right, and the accuracy figures the benchmark reports.
"""

import csv
import io
import json
from itertools import combinations

import numpy as np

DELTA_RTOL = 1e-12  # direct vs kernel distance: summation order only
STAT_RTOL = 1e-9


class Dataset:
    def __init__(self, data_dir):
        meta = json.loads((data_dir / "meta.json").read_text())
        self.slices = meta["slices"]
        n, p = len(self.slices), meta["h"] * meta["w"]
        raw = np.frombuffer((data_dir / "data.bin").read_bytes(), dtype="<f4")
        self.X = raw.reshape(n, p).astype(np.float64)
        self.labels = np.asarray(json.loads((data_dir / "labels.json").read_text()))
        self.row_of = {s["slice_id"]: i for i, s in enumerate(self.slices)}

    @property
    def n(self):
        return self.X.shape[0]


def _sq_dists_to(X, ref_row, buf):
    """Squared Euclidean distance of every row of X to ``ref_row``, by direct
    differences; ``buf`` is scratch space shaped like X."""
    np.subtract(X, ref_row, out=buf)
    np.multiply(buf, buf, out=buf)
    return buf.sum(axis=1)


def nn_brute(Q, R):
    """Nearest row of R for each row of Q; ties go to the lowest R row."""
    best = np.full(Q.shape[0], np.inf)
    arg = np.zeros(Q.shape[0], dtype=np.int64)
    buf = np.empty_like(Q)
    for j in range(R.shape[0]):
        d2 = _sq_dists_to(Q, R[j], buf)
        better = d2 < best
        best[better] = d2[better]
        arg[better] = j
    return arg


def probe_brute(ds, labeled_rows):
    labeled = sorted(set(labeled_rows))
    mask = np.zeros(ds.n, dtype=bool)
    mask[labeled] = True
    unlabeled = np.flatnonzero(~mask)
    if unlabeled.size == 0:
        return 1.0
    nn = nn_brute(ds.X[unlabeled], ds.X[labeled])
    return float(np.mean(ds.labels[labeled][nn] == ds.labels[unlabeled]))


class CoverDistances:
    """Each row's squared distance to its nearest chosen row, kept by direct
    differences as rows are added. ``dist`` takes the square root, which is
    monotonic, so it equals the minimum of the per-center distances."""

    def __init__(self, ds, rows=()):
        self.X = ds.X
        self.sq = np.full(ds.n, np.inf)
        self._buf = np.empty_like(ds.X)
        for r in rows:
            self.add(r)

    def add(self, row):
        np.minimum(self.sq, _sq_dists_to(self.X, self.X[row], self._buf), out=self.sq)

    def dist(self):
        return np.sqrt(self.sq)


def _close(a, b, rtol):
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def check_greedy_picks(ds, before, picks, where):
    """Every pick is a farthest unlabeled row from the rows chosen before it,
    ties to the lowest row. A pick from an empty set is a seeded cold start
    and only has to be a valid row. Returns (failures, final distances)."""
    fails = []
    chosen = list(before)
    cover = CoverDistances(ds, chosen)
    for rank, pick in enumerate(picks):
        if chosen:
            dist = cover.dist()
            free = np.ones(ds.n, dtype=bool)
            free[chosen] = False
            far = dist[free].max()
            if not free[pick] or not _close(dist[pick], far, DELTA_RTOL):
                fails.append(f"{where}: pick {rank} (row {pick}) is {dist[pick]!r} "
                             f"from the centers, farthest row is {far!r}")
            tied = np.flatnonzero(free[:pick] & (dist[:pick] == dist[pick]))
            if tied.size:
                fails.append(f"{where}: pick {rank} (row {pick}) ties lower row {tied[0]}")
        chosen.append(pick)
        cover.add(pick)
    return fails, cover.dist()


def check_rounds(ds, out_dir):
    fails = []
    report = json.loads((out_dir / "report.json").read_text())
    rows = list(csv.DictReader(io.StringIO((out_dir / "summary.csv").read_text())))
    strategies, fractions = report["strategies"], report["fractions"]
    n_rounds, last = len(fractions), len(fractions) - 1
    if len(rows) != len(strategies) * n_rounds:
        fails.append(f"summary.csv has {len(rows)} rows, expected {len(strategies) * n_rounds}")
    if len(report["entries"]) != len(strategies) * report["n_repeats"] * n_rounds:
        fails.append("report.json entry count does not match strategies x repeats x rounds")
    cells = {(e["strategy"], e["repeat"], e["round"]): e for e in report["entries"]}
    for strategy in strategies:
        for repeat in range(report["n_repeats"]):
            where = f"{strategy}/repeat {repeat}"
            sel = [
                [ds.row_of[s] for s in cells[(strategy, repeat, r)]["selected_slice_ids"]]
                for r in range(n_rounds)
            ]
            for r in range(n_rounds):
                if len(sel[r]) != report["budgets"][r] or len(set(sel[r])) != len(sel[r]):
                    fails.append(f"{where} round {r}: not {report['budgets'][r]} distinct picks")
                if r and sel[r][: len(sel[r - 1])] != sel[r - 1]:
                    fails.append(f"{where} round {r}: selection is not nested")
            final = cells[(strategy, repeat, last)]
            acc = probe_brute(ds, sel[last])
            if acc != final["probe_accuracy"]:
                fails.append(f"{where}: final probe accuracy {final['probe_accuracy']!r}, "
                             f"brute-force 1-NN gives {acc!r}")
            if strategy == "coreset_raw":
                before = sel[last - 1] if last else []
                pick_fails, dist = check_greedy_picks(
                    ds, before, sel[last][len(before):], f"{where} round {last}"
                )
                fails += pick_fails
                if not _close(float(dist.max()), final["delta"], DELTA_RTOL):
                    fails.append(f"{where}: final delta {final['delta']!r}, "
                                 f"direct cover radius {float(dist.max())!r}")
    figures = {}
    for strategy in strategies:
        accs = [float(r["mean_accuracy"]) for r in rows if r["strategy"] == strategy]
        figures[f"acc_auc.{strategy}"] = float(np.mean(accs)) if accs else float("nan")
    return fails, figures


def _mean_pair_abs_sorted(Xg):
    m, p = Xg.shape
    weights = 2.0 * np.arange(m) - m + 1
    total = (weights @ np.sort(Xg, axis=0)).sum()
    return total / (p * m * (m - 1) / 2.0)


def deviation_oracle(ds):
    lo, hi = ds.X.min(), ds.X.max()
    X = (ds.X - lo) / (hi - lo) if hi > lo else np.zeros_like(ds.X)
    by_patient, by_volume = {}, {}
    for i, s in enumerate(ds.slices):
        by_patient.setdefault(s["patient_id"], []).append(i)
        by_volume.setdefault(s["volume_id"], []).append((s["slice_index"], i))
    groups = lambda g: [_mean_pair_abs_sorted(X[rows]) for rows in g if len(rows) >= 2]
    ia, ib = [], []
    for members in by_volume.values():
        rows = [i for _, i in sorted(members)]
        ia += rows[:-1]
        ib += rows[1:]
    return {
        "dataset": _mean_pair_abs_sorted(X),
        "patient": float(np.mean(groups(by_patient.values()))),
        "volume": float(np.mean(groups([[i for _, i in m] for m in by_volume.values()]))),
        "adjacent": float(np.abs(X[ia] - X[ib]).mean(axis=1).mean()),
    }


def check_stats(ds, out_dir):
    fails = []
    got = json.loads((out_dir / "stats.json").read_text())
    for grouping, want in deviation_oracle(ds).items():
        if got.get(grouping) is None or not _close(got[grouping], want, STAT_RTOL):
            fails.append(f"stats {grouping}: {got.get(grouping)!r}, sorted-column oracle {want!r}")
    return fails, {}


ABLATE_HEADER = "terms,ntxent,patient,volume,slice,silhouette,probe_accuracy,delta"
WEIGHT_COLUMNS = ("ntxent", "patient", "volume", "slice")


def check_ablate(ds, out_dir, terms, seed, fraction=0.05):
    fails = []
    text = (out_dir / "ablate.csv").read_text()
    if text.splitlines()[0] != ABLATE_HEADER:
        return [f"ablate.csv header is {text.splitlines()[0]!r}"], {}
    rows = list(csv.DictReader(io.StringIO(text)))
    subsets = [c for k in range(len(terms) + 1) for c in combinations(terms, k)]
    names = ["+".join(c) if c else "none" for c in subsets]
    if [r["terms"] for r in rows] != names:
        return [f"ablate.csv rows {[r['terms'] for r in rows]}, expected {names}"], {}
    for combo, row in zip(subsets, rows):
        for col in WEIGHT_COLUMNS:
            w = float(row[col])
            if (w > 0) != (col in combo) or w < 0:
                fails.append(f"ablate {row['terms']}: weight {col}={w!r}")
        sil, acc, delta = (float(row[k]) for k in ("silhouette", "probe_accuracy", "delta"))
        if not -1.0 <= sil <= 1.0:
            fails.append(f"ablate {row['terms']}: silhouette {sil!r} outside [-1, 1]")
        if not 0.0 <= acc <= 1.0:
            fails.append(f"ablate {row['terms']}: probe accuracy {acc!r} outside [0, 1]")
        if not (np.isfinite(delta) and delta > 0):
            fails.append(f"ablate {row['terms']}: delta {delta!r} is not positive")
    # the empty subset selects in raw pixel space, so recompute it outright
    budget = min(max(int(np.floor(fraction * ds.n + 0.5)), 1), ds.n)
    picks = [int(np.random.default_rng(seed).permutation(ds.n)[0])]
    cover = CoverDistances(ds, picks)
    while len(picks) < budget:
        cand = cover.dist()
        cand[picks] = -np.inf
        picks.append(int(np.argmax(cand)))
        cover.add(picks[-1])
    dist = cover.dist()
    none = rows[0]
    acc = probe_brute(ds, picks)
    if acc != float(none["probe_accuracy"]):
        fails.append(f"ablate none: probe accuracy {none['probe_accuracy']}, brute force {acc!r}")
    if not _close(float(dist.max()), float(none["delta"]), DELTA_RTOL):
        fails.append(f"ablate none: delta {none['delta']}, direct {float(dist.max())!r}")
    accs = [float(r["probe_accuracy"]) for r in rows]
    return fails, {"ablate_acc_mean": float(np.mean(accs))}
