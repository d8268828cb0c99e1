"""Command-line surface tying the modules into reproducible experiments.

Configuration is a flat key=value file plus per-flag overrides; every
default is printable via ``slicepick --print-config``. All randomness is
driven by explicit seeds (never the wall clock), so re-running a command
overwrites its outputs with identical bytes. Exit codes: 0 success,
2 usage error, 1 runtime error.
"""

import argparse
import dataclasses
import json
import sys
from itertools import combinations
from pathlib import Path

import numpy as np

from . import checks, gcle
from ._io import write_atomic
from .coreset import cover_radius, k_center_greedy, kmeans_labels, silhouette_score
from .data import (
    GROUPINGS,
    SynthSpec,
    generate_synthetic,
    group_deviation,
    load_dataset,
    save_dataset,
)
from .encoder import (
    AugmentSpec,
    TrainConfig,
    embed_all,
    epoch_seed,
    load_checkpoint,
    save_checkpoint,
    train,
    write_loss_history,
)
from .errors import SlicepickError, UndefinedStatisticError
from .losses import GROUP_LOSSES, preset_loss_config
from .pipeline import (
    DEFAULT_FRACTIONS,
    RoundPlan,
    StrategySpec,
    budgets,
    probe_accuracy,
    run_experiment,
)
from .sampler import build_epoch, default_batch_size

_csv_str = lambda s: [x for x in s.split(",") if x]
_csv_float = lambda s: [float(x) for x in _csv_str(s)]
_csv_int = lambda s: [int(x) for x in _csv_str(s)]
_opt_float = lambda s: None if s.lower() in ("", "none") else float(s)
_opt_int = lambda s: None if s.lower() in ("", "none", "auto") else int(s)

# every configurable key: (default, cast used for config-file strings)
CONFIG = {
    "seed": (0, int),
    "threads": (1, int),
    "groups": (["ntxent", "patient", "volume"], _csv_str),
    "tau": (0.1, float),
    "w_patient": (None, _opt_float),
    "w_volume": (None, _opt_float),
    "w_slice": (None, _opt_float),
    "epochs": (100, int),
    "lr": (3e-4, float),
    "weight_decay": (1e-6, float),
    "batch_size": (None, _opt_int),
    "hidden": ([64, 64], _csv_int),
    "rep_dim": (32, int),
    "proj_dim": (16, int),
    "flip_prob": (0.5, float),
    "noise_sigma": (0.05, float),
    "scale_lo": (0.9, float),
    "scale_hi": (1.1, float),
    "fractions": (list(DEFAULT_FRACTIONS), _csv_float),
    "repeats": (5, int),
    "strategies": (["random", "coreset_raw", "coreset_learned"], _csv_str),
    "patients": (20, int),
    "volumes_per_patient": (2, int),
    "slices_per_volume": (12, int),
    "height": (16, int),
    "width": (16, int),
    "classes": (8, int),
    "patient_scale": (0.4, float),
    "volume_scale": (1.0, float),
    "adjacent_scale": (0.3, float),
    "noise_scale": (0.05, float),
}


def _read_config_file(path):
    values = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise SlicepickError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in CONFIG:
            raise SlicepickError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = CONFIG[key][1](raw.strip())
    return values


class _Cfg:
    """Merged view of defaults, config file, and CLI flags."""

    def __init__(self, args):
        self.file_values = (
            _read_config_file(args.config) if getattr(args, "config", None) else {}
        )
        self.args = args

    def __getitem__(self, key):
        flag = getattr(self.args, key, None)
        if flag is not None:
            return flag
        if key in self.file_values:
            return self.file_values[key]
        return CONFIG[key][0]

    def dump(self):
        lines = []
        for key in CONFIG:
            v = self[key]
            if isinstance(v, list):
                v = ",".join(str(x) for x in v)
            lines.append(f"{key}={v}")
        return "\n".join(lines)


def _loss_config(cfg):
    terms = set(cfg["groups"])
    return preset_loss_config(
        terms,
        tau=cfg["tau"],
        overrides={
            "patient": cfg["w_patient"],
            "volume": cfg["w_volume"],
            "slice": cfg["w_slice"],
        },
    )


def _train_config(cfg, seed=None):
    return TrainConfig(
        learning_rate=cfg["lr"],
        weight_decay=cfg["weight_decay"],
        epochs=cfg["epochs"],
        batch_size=cfg["batch_size"],
        hidden=tuple(cfg["hidden"]),
        rep_dim=cfg["rep_dim"],
        proj_dim=cfg["proj_dim"],
        augment=AugmentSpec(
            flip_prob=cfg["flip_prob"],
            noise_sigma=cfg["noise_sigma"],
            scale_jitter=(cfg["scale_lo"], cfg["scale_hi"]),
        ),
        seed=cfg["seed"] if seed is None else seed,
    )


def _synth_spec(cfg):
    return SynthSpec(
        n_patients=cfg["patients"],
        volumes_per_patient=cfg["volumes_per_patient"],
        slices_per_volume=cfg["slices_per_volume"],
        h=cfg["height"],
        w=cfg["width"],
        class_count=cfg["classes"],
        patient_scale=cfg["patient_scale"],
        volume_scale=cfg["volume_scale"],
        adjacent_scale=cfg["adjacent_scale"],
        noise_scale=cfg["noise_scale"],
        seed=cfg["seed"],
    )


# ---------------------------------------------------------------------------
# subcommands

def cmd_gen_data(args):
    cfg = _Cfg(args)
    spec = _synth_spec(cfg)
    ds, labels = generate_synthetic(spec)
    save_dataset(ds, labels, args.out, spec)
    print(f"wrote {ds.n} slices ({spec.n_patients} patients) to {args.out}")
    return 0


def cmd_stats(args):
    ds, _ = load_dataset(args.data)
    values = {}
    for grouping in GROUPINGS:
        try:
            values[grouping] = group_deviation(ds, grouping)
        except UndefinedStatisticError:
            values[grouping] = None
    if args.json:
        print(json.dumps(values, indent=2, sort_keys=True))
    else:
        for grouping in GROUPINGS:
            v = values[grouping]
            print(f"{grouping}={'undefined' if v is None else repr(v)}")
    return 0


def cmd_train_encoder(args):
    cfg = _Cfg(args)
    ds, _ = load_dataset(args.data)
    loss_cfg = _loss_config(cfg)
    groups = loss_cfg.enabled_groups
    batch_size = cfg["batch_size"] or default_batch_size(groups, len(ds.patient_volumes))
    train_cfg = dataclasses.replace(_train_config(cfg), batch_size=batch_size)
    if args.dump_epoch:
        plan = build_epoch(ds, groups, batch_size, epoch_seed(train_cfg.seed, 0))
        write_atomic(args.dump_epoch, plan.to_json() + "\n")
    result = train(ds, groups, loss_cfg, train_cfg)
    save_checkpoint(args.out, result.params, train_cfg, train_cfg.seed)
    if args.history:
        write_loss_history(args.history, result.epoch_losses)
    print(
        f"trained {train_cfg.epochs} epochs; "
        f"mean loss {result.epoch_losses[0]!r} -> {result.epoch_losses[-1]!r}"
    )
    return 0


def cmd_embed(args):
    ds, _ = load_dataset(args.data)
    params, _ = load_checkpoint(args.checkpoint)
    emb = embed_all(params, ds)
    gcle.write_gcle(args.out, emb, gcle.meta_rows_from_dataset(ds))
    print(f"wrote {emb.shape[0]}x{emb.shape[1]} embeddings to {args.out}")
    return 0


def cmd_select(args):
    cfg = _Cfg(args)
    matrix, meta = gcle.read_gcle(args.embeddings)
    emb = matrix.astype(np.float64)
    row_of = {int(r["slice_id"]): i for i, r in enumerate(meta)}
    initial = []
    if args.initial not in ("empty", ""):
        for token in args.initial.split(","):
            try:
                slice_id = int(token)
            except ValueError:
                raise SlicepickError(
                    f"--initial: {token!r} is not an integer slice id"
                ) from None
            if slice_id not in row_of:
                raise SlicepickError(
                    f"--initial: slice id {slice_id} is not in {args.embeddings}"
                )
            initial.append(row_of[slice_id])
    state = k_center_greedy(emb, initial, args.budget, cold_start_seed=cfg["seed"])
    lines = []
    for rank, (idx, dist) in enumerate(state.trace):
        lines.append(
            json.dumps(
                {
                    "round": 0,
                    "rank": rank,
                    "slice_id": int(meta[idx]["slice_id"]),
                    "min_dist": None if np.isinf(dist) else dist,
                },
                sort_keys=True,
            )
        )
    text = "\n".join(lines) + "\n"
    if args.out:
        write_atomic(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _strategies(cfg):
    loss_cfg = _loss_config(cfg)
    train_cfg = _train_config(cfg)
    out = []
    for kind in cfg["strategies"]:
        if kind == "coreset_learned":
            out.append(StrategySpec(kind, loss=loss_cfg, train=train_cfg))
        elif kind in ("random", "coreset_raw"):
            out.append(StrategySpec(kind))
        else:
            raise SlicepickError(f"unknown strategy {kind!r}")
    return out


def cmd_run_rounds(args):
    cfg = _Cfg(args)
    threads = cfg["threads"]
    if threads < 1:
        raise SlicepickError(f"--threads must be >= 1, got {threads}")
    ds, labels = load_dataset(args.data)
    plan = RoundPlan(
        fractions=tuple(cfg["fractions"]), n_repeats=cfg["repeats"], seed=cfg["seed"]
    )
    report = run_experiment(ds, labels, _strategies(cfg), plan, threads=threads)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_atomic(out / "report.json", report.to_json())
    write_atomic(out / "summary.csv", report.summary_csv())
    total_train = sum(report.train_seconds.values())
    total_rounds = sum(e.wall_time_s for e in report.entries)
    print(
        f"{len(report.entries)} cells -> {out}/report.json "
        f"(train {total_train:.1f}s, selection+probe {total_rounds:.1f}s)",
        file=sys.stderr,
    )
    return 0


def cmd_ablate(args):
    cfg = _Cfg(args)
    ds, labels = load_dataset(args.data)
    X = ds.pixel_matrix()
    terms = cfg["groups"]
    unknown = set(terms) - ({"ntxent"} | set(GROUP_LOSSES))
    if unknown:
        raise SlicepickError(f"unknown loss terms {sorted(unknown)}")
    budget = budgets(RoundPlan(fractions=(args.fraction,), seed=cfg["seed"]), ds.n)[0]
    n_volumes = len(ds.volume_slices)
    subsets = [
        combo
        for size in range(len(terms) + 1)
        for combo in combinations(terms, size)
    ]
    rows = ["terms,ntxent,patient,volume,slice,silhouette,probe_accuracy,delta"]
    for combo in subsets:
        name = "+".join(combo) if combo else "none"
        if combo:
            loss_cfg = preset_loss_config(
                set(combo),
                tau=cfg["tau"],
                overrides={
                    "patient": cfg["w_patient"],
                    "volume": cfg["w_volume"],
                    "slice": cfg["w_slice"],
                } if args.use_weight_overrides else None,
            )
            train_cfg = _train_config(cfg, seed=cfg["seed"])
            result = train(ds, loss_cfg.enabled_groups, loss_cfg, train_cfg)
            space = embed_all(result.params, ds)
            weights = (loss_cfg.ntxent, loss_cfg.patient, loss_cfg.volume, loss_cfg.slice_group)
        else:
            space = X
            weights = (0.0, 0.0, 0.0, 0.0)
        state = k_center_greedy(space, [], budget, cold_start_seed=cfg["seed"])
        acc = probe_accuracy(X, state.labeled, labels)
        delta = cover_radius(space, state.labeled)
        if n_volumes >= 2:
            sil = silhouette_score(space, kmeans_labels(space, n_volumes, cfg["seed"]))
            sil_text = repr(sil)
        else:
            sil_text = ""
        rows.append(
            f"{name},{weights[0]!r},{weights[1]!r},{weights[2]!r},{weights[3]!r},"
            f"{sil_text},{acc!r},{delta!r}"
        )
    text = "\n".join(rows) + "\n"
    if args.out:
        write_atomic(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify(args):
    failed = False
    for name, ok, detail in checks.run_all():
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failed |= not ok
    return 1 if failed else 0


# ---------------------------------------------------------------------------

def _add_common(p, *keys):
    flags = {
        "seed": dict(type=int),
        "threads": dict(
            type=int,
            help="worker processes for independent repeats (at most one per repeat)",
        ),
        "groups": dict(type=_csv_str, help="loss terms: ntxent,patient,volume,slice"),
        "tau": dict(type=float),
        "w_patient": dict(type=float),
        "w_volume": dict(type=float),
        "w_slice": dict(type=float),
        "epochs": dict(type=int),
        "lr": dict(type=float),
        "weight_decay": dict(type=float),
        "batch_size": dict(type=int),
        "hidden": dict(type=_csv_int),
        "rep_dim": dict(type=int),
        "proj_dim": dict(type=int),
        "fractions": dict(type=_csv_float),
        "repeats": dict(type=int),
        "strategies": dict(type=_csv_str),
    }
    p.add_argument("--config", default=argparse.SUPPRESS, help="flat key=value config file")
    for key in keys:
        p.add_argument(f"--{key.replace('_', '-')}", dest=key, **flags[key])


def build_parser():
    parser = argparse.ArgumentParser(
        prog="slicepick",
        description="Group-contrastive metric learning and coreset selection "
        "for slice-based active learning.",
    )
    parser.add_argument(
        "--print-config", action="store_true", help="print effective defaults and exit"
    )
    parser.add_argument("--config", help="flat key=value config file")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("gen-data", help="write a synthetic dataset directory")
    p.add_argument("--out", required=True)
    for key in (
        "patients", "volumes_per_patient", "slices_per_volume", "height", "width",
        "classes", "patient_scale", "volume_scale", "adjacent_scale", "noise_scale",
    ):
        p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=CONFIG[key][1])
    _add_common(p, "seed")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("stats", help="within-group deviation statistics")
    p.add_argument("--data", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("train-encoder", help="train the contrastive encoder")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--history", help="write per-epoch mean loss CSV here")
    p.add_argument("--dump-epoch", help="write the first epoch's batch plan as JSON")
    _add_common(
        p, "seed", "groups", "tau", "w_patient", "w_volume", "w_slice", "epochs",
        "lr", "weight_decay", "batch_size", "hidden", "rep_dim", "proj_dim",
    )
    p.set_defaults(func=cmd_train_encoder)

    p = sub.add_parser("embed", help="embed a dataset with a trained encoder")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True, help="GCLE output path")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("select", help="k-center greedy selection over embeddings")
    p.add_argument("--embeddings", required=True, help="GCLE file")
    p.add_argument("--budget", required=True, type=int)
    p.add_argument("--initial", default="empty", help='"empty" or comma slice ids')
    p.add_argument("--out", help="JSONL trace path (default stdout)")
    _add_common(p, "seed")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("run-rounds", help="full active-learning experiment")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output directory")
    _add_common(
        p, "seed", "threads", "strategies", "fractions", "repeats", "groups", "tau",
        "w_patient", "w_volume", "w_slice", "epochs", "lr", "weight_decay",
        "batch_size", "hidden", "rep_dim", "proj_dim",
    )
    p.set_defaults(func=cmd_run_rounds)

    p = sub.add_parser("ablate", help="loss-combination sweep")
    p.add_argument("--data", required=True)
    p.add_argument("--fraction", type=float, default=0.05)
    p.add_argument("--out", help="CSV path (default stdout)")
    p.add_argument(
        "--use-weight-overrides", action="store_true",
        help="apply --w-* overrides to every subset instead of preset weights",
    )
    _add_common(
        p, "seed", "groups", "tau", "w_patient", "w_volume", "w_slice", "epochs",
        "lr", "weight_decay", "batch_size", "hidden", "rep_dim", "proj_dim",
    )
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("verify", help="run the oracle suites")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.print_config:
        print(_Cfg(args).dump())
        return 0
    if not getattr(args, "command", None):
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except SlicepickError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, KeyError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
