"""Command-line surface tying the modules into reproducible experiments.

Configuration is a flat key=value file plus per-flag overrides; every
default is printable via ``slicepick --print-config``. A key's flag and
its config line share ``CONFIG``'s one named cast; a flag beats the file.
``flip_prob``, ``noise_sigma``, ``scale_lo`` and ``scale_hi`` have no flag,
only a config line. ``_FIELD_KEYS`` alone pairs a settings field with its
keys where their names differ: the synthetic-data, augmentation, training
and round settings are built from it, and a rejected value named from it.
The CLI checks nothing but its parsing: each value's owner (a settings
object, the sampler for every training before the first, the experiment
and its strategy names, the greedy) checks it, and ``main``, the one place
that reports a ``SettingError``, names the rejected value's flag, or its
``<config path>: <key>``. A config file sets each key at most once.
``run-rounds`` and ``ablate`` only build settings, call ``pipeline``
(``run_experiment``, ``run_ablation``) and format what it returns; neither
trains, selects or probes itself. Every command takes ``--config`` before or
after its name, and reads and checks the file before it runs. All
randomness is driven by explicit seeds (never the wall clock), so re-running
a command overwrites its outputs with identical bytes. Exit codes:
0 success, 2 usage error, 1 runtime error.
"""

import argparse
import json
import sys
from dataclasses import fields
from itertools import combinations
from pathlib import Path

import numpy as np

from . import gcle
from ._io import check_output_dir, check_output_files, write_all_atomic, write_atomic
from .coreset import SelectionState, k_center_greedy
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
    checkpoint_bytes,
    embed_all,
    load_checkpoint,
    loss_history_csv,
    train,
)
from .errors import FormatError, SamplerError, SettingError, SlicepickError, UndefinedStatisticError
from .losses import GROUP_LOSSES, preset_loss_config
from .pipeline import DEFAULT_FRACTIONS, RoundPlan, run_ablation, run_experiment
from .sampler import epoch_batch_size


# named casts: argparse reports a value one cannot read as "invalid <name> value"
def name_list(text):
    """Comma-separated names, each at most once."""
    names = [x for x in text.split(",") if x]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise argparse.ArgumentTypeError(f"{name!r} is repeated in {text!r}")
    return names


def float_list(text):
    return [float(x) for x in text.split(",") if x]


def int_list(text):
    return [int(x) for x in text.split(",") if x]


def float_or_none(text):
    return None if text.lower() in ("", "none") else float(text)


def int_or_auto(text):
    return None if text.lower() in ("", "none", "auto") else int(text)


# every configurable key: (default, cast of its flag and config-file strings)
CONFIG = {
    "seed": (0, int),
    "threads": (1, int),
    "groups": (["ntxent", "patient", "volume"], name_list),
    "tau": (0.1, float),
    "w_patient": (None, float_or_none),
    "w_volume": (None, float_or_none),
    "w_slice": (None, float_or_none),
    "epochs": (100, int),
    "lr": (3e-4, float),
    "weight_decay": (1e-6, float),
    "batch_size": (None, int_or_auto),
    "hidden": ([64, 64], int_list),
    "rep_dim": (32, int),
    "proj_dim": (16, int),
    "flip_prob": (0.5, float),
    "noise_sigma": (0.05, float),
    "scale_lo": (0.9, float),
    "scale_hi": (1.1, float),
    "fractions": (list(DEFAULT_FRACTIONS), float_list),
    "repeats": (5, int),
    "strategies": (["random", "coreset_raw", "coreset_learned"], name_list),
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

# each settings field's config keys, where they are not the field's own name:
# ``_settings`` builds from it, and ``_Cfg.explain`` names a rejected field's keys
_FIELD_KEYS = {
    "learning_rate": ("lr",), "n_repeats": ("repeats",), "n_patients": ("patients",),
    "h": ("height",), "w": ("width",), "class_count": ("classes",),
    "scale_jitter": ("scale_lo", "scale_hi"),
    "patient": ("w_patient",), "volume": ("w_volume",), "slice_group": ("w_slice",),
    "ntxent": ("groups",), "weights": ("groups", "w_patient", "w_volume", "w_slice"),
}

# the settings of an encoder training, taken by train-encoder, run-rounds and ablate
TRAINING_KEYS = (
    "groups", "tau", "w_patient", "w_volume", "w_slice", "epochs", "lr",
    "weight_decay", "batch_size", "hidden", "rep_dim", "proj_dim",
)

_HELP = {
    "threads": "worker processes for the trainings, then the (strategy, repeat) cells",
    "groups": "loss terms: ntxent,patient,volume,slice",
}


def _flag(key):
    return f"--{key.replace('_', '-')}"


def _read_config_file(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SlicepickError(f"{path}: not UTF-8 text: {exc}") from None
    values, first_line = {}, {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise SlicepickError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in CONFIG:
            raise SlicepickError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in first_line:
            raise SlicepickError(f"{path}:{lineno}: key {key!r} repeats line {first_line[key]}")
        first_line[key] = lineno
        try:
            values[key] = CONFIG[key][1](raw)
        except argparse.ArgumentTypeError as exc:
            raise SlicepickError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from None
        except ValueError:
            raise SlicepickError(f"{path}:{lineno}: bad value for {key!r}: {raw!r}") from None
    return values


class _Cfg:
    """Merged view of defaults, config file, and CLI flags."""

    def __init__(self, args):
        self.path = getattr(args, "config", None)
        self.file_values = _read_config_file(self.path) if self.path else {}
        # flags default to SUPPRESS, so only the ones given are attributes
        self.flags = {k: v for k, v in vars(args).items() if k in CONFIG}

    def __getitem__(self, key):
        for values in (self.flags, self.file_values):
            if key in values:
                return values[key]
        return CONFIG[key][0]

    def explain(self, exc, own_flags):
        """A SettingError as ``<source>: <message>``, its source the flags or
        ``<config path>: <key>`` that set its field. ``own_flags`` maps a field
        to the command's own flag (``--fraction``, ``--budget``)."""
        source = own_flags.get(exc.setting) or ", ".join(
            _flag(k) if k in self.flags else f"{self.path}: {k}"
            for k in _FIELD_KEYS.get(exc.setting, (exc.setting,))
            if k in self.flags or k in self.file_values
        )
        return f"{source}: {exc}" if source else str(exc)

    def dump(self):
        lines = []
        for key in CONFIG:
            v = self[key]
            if isinstance(v, list):
                v = ",".join(str(x) for x in v)
            lines.append(f"{key}={v}")
        return "\n".join(lines)


def _loss_config(cfg, terms=None):
    """The LossConfig of ``terms`` (an ``ablate`` subset) or ``--groups``, with
    ``--tau`` and the ``--w-*`` weights of its terms; ``--groups`` rejects the rest."""
    overrides = {g: cfg[f"w_{g}"] for g in GROUP_LOSSES if terms is None or g in terms}
    return preset_loss_config(
        cfg["groups"] if terms is None else terms, tau=cfg["tau"], overrides=overrides
    )


def _settings(cls, cfg, **given):
    """``cls(**given)``, each other field read from its one config key (its
    ``_FIELD_KEYS`` entry, else its name); a field of several keys is given."""
    for f in fields(cls):
        keys = _FIELD_KEYS.get(f.name, (f.name,))
        if f.name not in given:
            if len(keys) != 1:
                raise TypeError(f"{cls.__name__}.{f.name} has the keys {keys}: give it")
            given[f.name] = cfg[keys[0]]
    return cls(**given)


def _train_config(cfg):
    augment = _settings(AugmentSpec, cfg, scale_jitter=(cfg["scale_lo"], cfg["scale_hi"]))
    return _settings(TrainConfig, cfg, hidden=tuple(cfg["hidden"]), augment=augment)


def _check_draws(data, ds, loss_cfg, train_cfg):
    """Let the sampler check a training with ``loss_cfg`` on ``ds``, read from ``data``."""
    try:
        epoch_batch_size(ds, loss_cfg.enabled_groups, train_cfg.batch_size)
    except SamplerError as exc:
        raise SamplerError(f"{data}: loss terms {'+'.join(loss_cfg.terms)}: {exc}") from None


# ---------------------------------------------------------------------------
# subcommands

def cmd_gen_data(args, cfg):
    check_output_dir("--out", args.out)
    spec = _settings(SynthSpec, cfg)
    ds, labels = generate_synthetic(spec)
    save_dataset(ds, labels, args.out, spec)
    print(f"wrote {ds.n} slices ({spec.n_patients} patients) to {args.out}")
    return 0


def cmd_stats(args, cfg):
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


def cmd_train_encoder(args, cfg):
    check_output_files([("--out", args.out), ("--history", args.history),
                        ("--dump-epoch", args.dump_epoch)])
    ds, _ = load_dataset(args.data)
    loss_cfg, train_cfg = _loss_config(cfg), _train_config(cfg)
    _check_draws(args.data, ds, loss_cfg, train_cfg)
    result = train(ds, loss_cfg, train_cfg)
    train_cfg = result.config
    # all outputs or none: a failed write leaves every target as it was
    outputs = []
    if args.dump_epoch:
        outputs.append((args.dump_epoch, result.first_plan.to_json(ds) + "\n"))
    outputs.append((args.out, checkpoint_bytes(result.params, train_cfg, args.out)))
    if args.history:
        outputs.append((args.history, loss_history_csv(result.epoch_losses)))
    write_all_atomic(outputs)
    print(
        f"trained {train_cfg.epochs} epochs; "
        f"mean loss {result.epoch_losses[0]!r} -> {result.epoch_losses[-1]!r}"
    )
    return 0


def cmd_embed(args, cfg):
    check_output_files([("--out", args.out)])
    ds, _ = load_dataset(args.data)
    params, _ = load_checkpoint(args.checkpoint)
    try:
        emb = embed_all(params, ds)
    except ValueError as exc:  # the checkpoint was trained on another pixel size
        raise FormatError(f"{args.checkpoint} does not fit {args.data}: {exc}") from None
    gcle.write_gcle(args.out, emb, ds.ids)
    print(f"wrote {emb.shape[0]}x{emb.shape[1]} embeddings to {args.out}")
    return 0


def cmd_select(args, cfg):
    check_output_files([("--out", args.out)])
    matrix, ids = gcle.read_gcle(args.embeddings)
    slice_ids = ids[:, 0].tolist()
    rows_by_id = {sid: i for i, sid in enumerate(slice_ids)}
    initial = []
    if args.initial not in ("empty", ""):
        # an empty item is skipped, as in every other list flag
        for token in filter(None, args.initial.split(",")):
            try:
                slice_id = int(token)
            except ValueError:
                raise SlicepickError(
                    f"--initial: {token!r} is not an integer slice id"
                ) from None
            if slice_id not in rows_by_id:
                raise SlicepickError(
                    f"--initial: slice id {slice_id} is not in {args.embeddings}"
                )
            if rows_by_id[slice_id] in initial:
                raise SlicepickError(
                    f"--initial: slice id {slice_id} is repeated in {args.initial!r}"
                )
            initial.append(rows_by_id[slice_id])
    state = k_center_greedy(
        SelectionState(matrix, initial), args.budget, cold_start_seed=cfg["seed"]
    )
    records = [
        {"round": 0, "rank": rank, "slice_id": slice_ids[idx],
         "min_dist": None if np.isinf(dist) else dist}
        for rank, (idx, dist) in enumerate(state.trace)
    ]
    # JSON Lines: no picks is an empty file
    text = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    if args.out:
        write_atomic(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_run_rounds(args, cfg):
    out = Path(args.out)  # made with its parents after the experiment, so checked first
    check_output_dir("--out", out)
    ds, labels = load_dataset(args.data)
    plan = _settings(RoundPlan, cfg)
    loss_cfg, train_cfg = _loss_config(cfg), _train_config(cfg)
    if "coreset_learned" in cfg["strategies"]:
        _check_draws(args.data, ds, loss_cfg, train_cfg)
    report = run_experiment(
        ds, labels, cfg["strategies"], plan, loss_cfg, train_cfg, threads=cfg["threads"]
    )
    out.mkdir(parents=True, exist_ok=True)
    write_all_atomic([(out / "report.json", report.to_json()),
                      (out / "summary.csv", report.summary_csv())])
    total_train = sum(report.train_seconds.values())
    total_rounds = sum(e.wall_time_s for e in report.entries)
    print(
        f"{len(report.entries)} cells -> {out}/report.json "
        f"(train {total_train:.1f}s, selection+probe {total_rounds:.1f}s)",
        file=sys.stderr,
    )
    return 0


def cmd_ablate(args, cfg):
    check_output_files([("--out", args.out)])
    ds, labels = load_dataset(args.data)
    terms = cfg["groups"]
    _loss_config(cfg)  # rejects a weight for a term outside --groups
    # every subset's LossConfig is built, and so checked, before any training
    runs = [("none", None)] + [
        ("+".join(combo), _loss_config(cfg, combo))
        for size in range(1, len(terms) + 1)
        for combo in combinations(terms, size)
    ]
    train_cfg = _train_config(cfg)
    # so are their draws, the full set first: its companion pools are every subset's
    for _, loss_cfg in reversed(runs[1:]):
        _check_draws(args.data, ds, loss_cfg, train_cfg)
    results = run_ablation(
        ds, labels, [loss_cfg for _, loss_cfg in runs], train_cfg, args.fraction, cfg["seed"]
    )
    rows = ["terms,ntxent,patient,volume,slice,silhouette,probe_accuracy,delta"]
    for (name, loss_cfg), (silhouette, acc, delta) in zip(runs, results):
        weights = (0.0, 0.0, 0.0, 0.0) if loss_cfg is None else loss_cfg.weights
        sil_text = "" if silhouette is None else repr(silhouette)
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


def cmd_verify(args, cfg):
    from . import checks  # only verify runs the checks: no other command compiles them
    failed = False
    for name, ok, detail in checks.run_all():
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failed |= not ok
    return 1 if failed else 0


# ---------------------------------------------------------------------------

def _add_common(p, *keys):
    p.add_argument("--config", default=argparse.SUPPRESS, help="flat key=value config file")
    for key in keys:
        p.add_argument(
            _flag(key), dest=key, type=CONFIG[key][1], default=argparse.SUPPRESS,
            help=_HELP.get(key),
        )


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
    _add_common(
        p, "seed", "patients", "volumes_per_patient", "slices_per_volume", "height",
        "width", "classes", "patient_scale", "volume_scale", "adjacent_scale",
        "noise_scale",
    )
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("stats", help="within-group deviation statistics")
    p.add_argument("--data", required=True)
    p.add_argument("--json", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("train-encoder", help="train the contrastive encoder")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--history", help="write per-epoch mean loss CSV here")
    p.add_argument("--dump-epoch", help="write the first epoch's batch plan as JSON")
    _add_common(p, "seed", *TRAINING_KEYS)
    p.set_defaults(func=cmd_train_encoder)

    p = sub.add_parser("embed", help="embed a dataset with a trained encoder")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True, help="GCLE output path")
    _add_common(p)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("select", help="k-center greedy selection over embeddings")
    p.add_argument("--embeddings", required=True, help="GCLE file")
    p.add_argument("--budget", required=True, type=int)
    p.add_argument("--initial", default="empty",
                   help='"empty" or comma slice ids, each at most once')
    p.add_argument("--out", help="JSONL trace path (default stdout)")
    _add_common(p, "seed")
    p.set_defaults(func=cmd_select, own_flags={"budget": "--budget"})

    p = sub.add_parser("run-rounds", help="full active-learning experiment")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output directory")
    _add_common(p, "seed", "threads", "strategies", "fractions", "repeats", *TRAINING_KEYS)
    p.set_defaults(func=cmd_run_rounds)

    p = sub.add_parser("ablate", help="loss-combination sweep")
    p.add_argument("--data", required=True)
    p.add_argument("--fraction", type=float, default=0.05)
    p.add_argument("--out", help="CSV path (default stdout)")
    _add_common(p, "seed", *TRAINING_KEYS)
    p.set_defaults(func=cmd_ablate, own_flags={"fractions": "--fraction"})

    p = sub.add_parser("verify", help="run the oracle suites")
    _add_common(p)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.print_config and not getattr(args, "command", None):
        parser.print_help()
        return 2
    try:
        cfg = _Cfg(args)  # reads and checks --config before any command runs
        if args.print_config:
            print(cfg.dump())
            return 0
        return args.func(args, cfg)
    except SettingError as exc:
        message = cfg.explain(exc, getattr(args, "own_flags", {}))
    except (SlicepickError, ValueError, OSError) as exc:
        message = exc
    print(f"error: {message}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
