"""Training settings the checkpoint reader or the sampler would refuse are
rejected up front, naming the field (and, on the command line, the flag).

A batch size below 1 once sent ``build_epoch`` into an endless loop, so
those cases run in a subprocess under a timeout.
"""

import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import slicepick
from slicepick import TrainConfig
from slicepick.cli import main
from slicepick.sampler import default_batch_size

SRC = str(Path(slicepick.__file__).resolve().parents[1])


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _limit_memory():
    # a runaway epoch loop then ends in MemoryError, not in the OOM killer
    resource.setrlimit(resource.RLIMIT_AS, (2 ** 31, 2 ** 31))


def run_bounded(*argv, code="from slicepick.cli import main; raise SystemExit(main())", env=None):
    """``code`` with ``argv`` in a subprocess under a timeout and a memory
    limit, its BLAS pinned to one thread unless ``env`` overrides that."""
    pinned = dict(PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env = {**os.environ, **pinned, **(env or {})}
    return subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True,
        timeout=60, preexec_fn=_limit_memory,
    )


@pytest.fixture
def data_dir(tmp_path, capsys):
    out = tmp_path / "data"
    code, _, _ = run(
        capsys, "gen-data", "--out", str(out), "--patients", "4",
        "--volumes-per-patient", "2", "--slices-per-volume", "3",
        "--height", "3", "--width", "3", "--classes", "3", "--seed", "3",
    )
    assert code == 0
    return out


@pytest.fixture
def lone_slice_dir(tmp_path, capsys):
    """3 patients x 2 volumes x 1 slice: no volume has a volume companion."""
    out = tmp_path / "lone"
    code, _, _ = run(
        capsys, "gen-data", "--out", str(out), "--patients", "3",
        "--volumes-per-patient", "2", "--slices-per-volume", "1",
        "--height", "3", "--width", "3", "--classes", "3", "--seed", "3",
    )
    assert code == 0
    return out


@pytest.mark.parametrize("size", [-3, 0])
def test_build_epoch_rejects_batch_size_below_one(size):
    code = (
        "import sys; from slicepick import SynthSpec, generate_synthetic; "
        "from slicepick.sampler import build_epoch; "
        "ds, _ = generate_synthetic(SynthSpec(n_patients=3, volumes_per_patient=1, "
        "slices_per_volume=3, h=2, w=2)); "
        "build_epoch(ds, {'volume', 'patient'}, int(sys.argv[1]), 0)"
    )
    proc = run_bounded(str(size), code=code)
    assert proc.returncode == 1
    assert f"SettingError: sampler setting batch_size must be >= 1 slice, got {size}" in proc.stderr


@pytest.mark.parametrize("command", ["train-encoder", "run-rounds", "ablate"])
@pytest.mark.parametrize("size", ["-3", "0"])
def test_cli_batch_size_below_one_exits_one(data_dir, tmp_path, command, size):
    out = tmp_path / "out"
    proc = run_bounded(
        command, "--data", str(data_dir), "--out", str(out), "--batch-size", size,
        "--epochs", "1",
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.splitlines() == [
        f"error: --batch-size: sampler setting batch_size must be >= 1 slice, got {size}"
    ]
    assert not out.exists()


@pytest.mark.parametrize(
    "flag,value,field,rule",
    [
        ("--hidden", "0", "hidden", "hold layer widths >= 1, got (0,)"),
        ("--hidden", "8,0", "hidden", "hold layer widths >= 1, got (8, 0)"),
        ("--rep-dim", "0", "rep_dim", "be a layer width >= 1, got 0"),
        ("--proj-dim", "0", "proj_dim", "be a layer width >= 1, got 0"),
        ("--lr", "nan", "learning_rate", "be finite, got nan"),
        ("--lr", "inf", "learning_rate", "be finite, got inf"),
        ("--weight-decay", "nan", "weight_decay", "be finite, got nan"),
        ("--weight-decay", "inf", "weight_decay", "be finite, got inf"),
    ],
)
def test_train_encoder_rejects_setting_before_training(
    data_dir, tmp_path, capsys, flag, value, field, rule
):
    ckpt = tmp_path / "enc.ckpt"
    code, out, err = run(
        capsys, "train-encoder", "--data", str(data_dir), "--out", str(ckpt),
        "--epochs", "1", flag, value,
    )
    assert code == 1 and out == ""
    assert err.splitlines() == [f"error: {flag}: training setting {field} must {rule}"]
    assert not ckpt.exists()


def test_run_rounds_rejects_zero_width_space(data_dir, tmp_path, capsys):
    out = tmp_path / "r"
    code, _, err = run(
        capsys, "run-rounds", "--data", str(data_dir), "--out", str(out),
        "--rep-dim", "0", "--epochs", "1", "--repeats", "1",
    )
    assert code == 1
    assert err.splitlines() == [
        "error: --rep-dim: training setting rep_dim must be a layer width >= 1, got 0"
    ]
    assert not out.exists()


@pytest.mark.parametrize(
    "field,value",
    [("learning_rate", float("-inf")), ("batch_size", -1), ("proj_dim", 0),
     ("weight_decay", float("nan")), ("hidden", (4, -2))],
)
def test_train_config_names_field_and_value(field, value):
    # the sampler owns the batch-size rule and its message
    owner = "sampler" if field == "batch_size" else "training"
    message = f"{owner} setting {field} must .*, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        TrainConfig(**{field: value})


def test_config_file_batch_size_auto_means_default(data_dir, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("batch_size=auto\nepochs=1\nhidden=4\nrep_dim=3\nproj_dim=2\n")
    plan = tmp_path / "epoch0.json"
    code, _, _ = run(
        capsys, "--config", str(cfg), "train-encoder", "--data", str(data_dir),
        "--out", str(tmp_path / "enc.ckpt"), "--dump-epoch", str(plan),
    )
    assert code == 0
    stock = default_batch_size({"patient", "volume"}, n_patients=4)
    assert f'"batch_size_slices": {stock},' in plan.read_text()


def test_batch_size_auto_flag_beats_config_file(data_dir, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("batch_size=12\nepochs=1\nhidden=4\nrep_dim=3\nproj_dim=2\n")
    plan = tmp_path / "epoch0.json"
    code, _, _ = run(
        capsys, "train-encoder", "--config", str(cfg), "--data", str(data_dir),
        "--out", str(tmp_path / "enc.ckpt"), "--groups", "volume,patient",
        "--batch-size", "auto", "--dump-epoch", str(plan),
    )
    assert code == 0
    assert '"batch_size_slices": 9,' in plan.read_text()


@pytest.mark.parametrize(
    "command,argv,config,line",
    [
        ("train-encoder", [], "scale_lo=-inf",
         "{cfg}: scale_lo: augment setting scale_jitter must be finite (lo, hi) "
         "with lo <= hi, got (-inf, 1.1)"),
        ("train-encoder", [], "noise_sigma=nan",
         "{cfg}: noise_sigma: augment setting noise_sigma must be finite and "
         "nonnegative, got nan"),
        ("gen-data", ["--noise-scale", "nan"], None,
         "--noise-scale: synthetic-data setting noise_scale must be finite and "
         "nonnegative, got nan"),
        ("gen-data", ["--seed", "-1"], None,
         "--seed: synthetic-data setting seed must be a nonnegative integer, got -1"),
        ("run-rounds", ["--repeats", "0"], None,
         "--repeats: round setting n_repeats must be >= 1, got 0"),
        ("run-rounds", ["--fractions", "1.5"], None,
         "--fractions: round setting fractions must lie in (0, 1], got (1.5,)"),
        ("ablate", ["--fraction", "0"], None,
         "--fraction: round setting fractions must lie in (0, 1], got (0.0,)"),
        ("run-rounds", [], "threads=0",
         "{cfg}: threads: experiment setting threads must be >= 1, got 0"),
        ("train-encoder", [], "lr=nan",
         "{cfg}: lr: training setting learning_rate must be finite, got nan"),
        ("run-rounds", ["--strategies", ","], None,
         "--strategies: experiment setting strategies must hold at least one strategy, "
         "got []"),
        ("run-rounds", [], "strategies=",
         "{cfg}: strategies: experiment setting strategies must hold at least one "
         "strategy, got []"),
    ],
    ids=[
        "scale_lo-inf", "noise_sigma-nan", "noise-scale-nan", "gen-data-seed",
        "repeats", "fractions", "ablate-fraction", "threads-config", "lr-config",
        "strategies-empty", "strategies-config-empty",
    ],
)
def test_rejected_setting_names_its_flag_or_config_line(
    data_dir, tmp_path, capsys, command, argv, config, line
):
    out = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    args = [command, "--out", str(out), *argv]
    if command != "gen-data":
        args += ["--data", str(data_dir), "--epochs", "1"]
    if config is not None:
        cfg.write_text(config + "\n")
        args += ["--config", str(cfg)]
    code, stdout, err = run(capsys, *args)
    assert code == 1 and stdout == ""
    assert err.splitlines() == [f"error: {line.format(cfg=cfg)}"]
    assert not out.exists()


# fields no config key sets: whole settings objects and select's own --budget
_UNSET_FIELDS = {"augment", "budget"}
# fields a SettingError names outside any settings object
_OWNER_FIELDS = {"groups", "weights", "batch_size", "threads", "budget", "seed", "strategies"}


def test_every_setting_field_resolves_to_config_keys():
    from dataclasses import fields

    from slicepick import AugmentSpec, LossConfig, RoundPlan, SynthSpec
    from slicepick.cli import _FIELD_KEYS, CONFIG

    owners = (TrainConfig, AugmentSpec, RoundPlan, SynthSpec, LossConfig)
    names = {f.name for owner in owners for f in fields(owner)} | _OWNER_FIELDS
    unresolved = [
        name for name in sorted(names - _UNSET_FIELDS)
        if not set(_FIELD_KEYS.get(name, (name,))) <= CONFIG.keys()
    ]
    assert unresolved == []
    assert not _UNSET_FIELDS & CONFIG.keys()
    # a field that is gone cannot linger here
    assert _UNSET_FIELDS <= names


# every config key at a value other than its default
_EVERY_KEY = """
seed=7
threads=2
groups=ntxent,patient,volume,slice
tau=0.2
w_patient=0.5
w_volume=0.25
w_slice=0.75
epochs=2
lr=0.01
weight_decay=0.001
batch_size=8
hidden=5,4
rep_dim=3
proj_dim=2
flip_prob=0.25
noise_sigma=0.125
scale_lo=0.75
scale_hi=1.5
fractions=0.25,0.5
repeats=2
strategies=random,coreset_raw
patients=3
volumes_per_patient=3
slices_per_volume=2
height=3
width=2
classes=3
patient_scale=0.5
volume_scale=0.75
adjacent_scale=0.25
noise_scale=0.125
"""


def test_every_config_key_reaches_its_field(tmp_path, capsys):
    import json

    from slicepick import RoundPlan, load_dataset, load_checkpoint, run_experiment
    from slicepick.cli import CONFIG, _read_config_file

    cfg = tmp_path / "every.cfg"
    cfg.write_text(_EVERY_KEY)
    values = _read_config_file(cfg)
    assert values.keys() == CONFIG.keys()
    assert all(values[k] != default for k, (default, _) in CONFIG.items())
    data, ckpt, out = tmp_path / "d", tmp_path / "enc.ckpt", tmp_path / "r"
    assert run(capsys, "gen-data", "--config", str(cfg), "--out", str(data))[0] == 0
    assert run(capsys, "train-encoder", "--config", str(cfg), "--data", str(data),
               "--out", str(ckpt))[0] == 0
    assert run(capsys, "run-rounds", "--config", str(cfg), "--data", str(data),
               "--out", str(out))[0] == 0

    assert json.loads((data / "meta.json").read_text())["spec"] == {
        "n_patients": 3, "volumes_per_patient": 3, "slices_per_volume": 2, "h": 3, "w": 2,
        "class_count": 3, "patient_scale": 0.5, "volume_scale": 0.75,
        "adjacent_scale": 0.25, "noise_scale": 0.125, "seed": 7,
    }
    _, header = load_checkpoint(ckpt)
    assert header["train_cfg"] == {
        "learning_rate": 0.01, "weight_decay": 0.001, "epochs": 2, "batch_size": 8,
        "hidden": [5, 4], "rep_dim": 3, "proj_dim": 2, "seed": 7,
        "augment": {"flip_prob": 0.25, "noise_sigma": 0.125, "scale_jitter": [0.75, 1.5]},
        "beta1": 0.9, "beta2": 0.999, "adam_eps": 1e-8,
    }
    # report.json echoes the fractions and repeats; the seed shows in its picks
    report = (out / "report.json").read_text()
    doc = json.loads(report)
    assert (doc["fractions"], doc["n_repeats"]) == ([0.25, 0.5], 2)
    ds, labels = load_dataset(data)
    kinds = ["random", "coreset_raw"]
    for seed in (7, 0):
        plan = RoundPlan(fractions=(0.25, 0.5), n_repeats=2, seed=seed)
        assert (run_experiment(ds, labels, kinds, plan).to_json() == report) == (seed == 7)


def test_a_field_of_several_keys_must_be_given():
    from slicepick import AugmentSpec
    from slicepick.cli import _Cfg, _settings, build_parser

    cfg = _Cfg(build_parser().parse_args(["verify"]))
    assert _settings(AugmentSpec, cfg, scale_jitter=(0.5, 2.0)).flip_prob == 0.5
    with pytest.raises(TypeError, match="scale_jitter has the keys"):
        _settings(AugmentSpec, cfg)


def _assert_rejected_before_training(
    data_dir, tmp_path, capsys, monkeypatch, command, argv, config, line
):
    """``command`` with ``argv`` (and ``config`` as its config file) exits 1
    with the one line ``error: <line>``, trains nothing and writes nothing.
    ``{cfg}`` and ``{data}`` in ``line`` stand for the config file and data."""
    from slicepick import cli, pipeline

    trained = []
    for module in (cli, pipeline):
        monkeypatch.setattr(module, "train", lambda *a, **k: trained.append(a))
    out = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    args = [command, "--data", str(data_dir), "--out", str(out), "--epochs", "1", *argv]
    if config is not None:
        cfg.write_text(config + "\n")
        args += ["--config", str(cfg)]
    code, stdout, err = run(capsys, *args)
    assert code == 1 and stdout == ""
    assert err.splitlines() == [f"error: {line.format(cfg=cfg, data=data_dir)}"]
    assert trained == [] and not out.exists()


@pytest.mark.parametrize("command", ["train-encoder", "run-rounds", "ablate"])
@pytest.mark.parametrize(
    "argv,config,line",
    [
        ([], "tau=nan", "{cfg}: tau: loss setting tau must be finite, got nan"),
        (["--tau", "0"], None, "--tau: loss setting tau must be positive, got 0.0"),
        (["--w-volume", "-1"], None,
         "--w-volume: loss setting volume must be nonnegative, got -1.0"),
        (["--w-volume", "nan"], None,
         "--w-volume: loss setting volume must be finite, got nan"),
        (["--groups", ""], None,
         "--groups: loss setting weights must hold at least one positive weight, "
         "got (0.0, 0.0, 0.0, 0.0)"),
        (["--groups", "ntxent,foo"], None,
         "--groups: loss setting groups must hold only the terms ntxent, patient, "
         "volume, slice, got ['foo', 'ntxent']"),
    ],
    ids=["tau-nan-config", "tau-zero", "w-volume-negative", "w-volume-nan",
         "groups-empty", "groups-unknown"],
)
def test_rejected_loss_setting_names_its_flag_or_config_line(
    data_dir, tmp_path, capsys, monkeypatch, command, argv, config, line
):
    _assert_rejected_before_training(
        data_dir, tmp_path, capsys, monkeypatch, command, argv, config, line
    )


_LONE_VOLUME = "volume 0 has a single slice; volume companions need >= 2"


@pytest.mark.parametrize(
    "command,argv,config,line,data",
    [
        ("ablate", ["--groups", "patient,volume", "--batch-size", "8"], None,
         "--batch-size: sampler setting batch_size must be a multiple of 3, the tuple "
         "width of the groups patient+volume, got 8", "data_dir"),
        ("ablate", ["--groups", "ntxent,slice"], "batch_size=3",
         "{cfg}: batch_size: sampler setting batch_size must be a multiple of 2, the "
         "tuple width of the groups slice, got 3", "data_dir"),
        ("train-encoder", ["--groups", "ntxent,patient,volume", "--batch-size", "7"], None,
         "--batch-size: sampler setting batch_size must be a multiple of 3, the tuple "
         "width of the groups patient+volume, got 7", "data_dir"),
        ("run-rounds", ["--batch-size", "4"], None,
         "--batch-size: sampler setting batch_size must be a multiple of 3, the tuple "
         "width of the groups patient+volume, got 4", "data_dir"),
        # 4 patients fill no batch of six tuples
        ("ablate", ["--groups", "patient,volume", "--batch-size", "18"], None,
         "--batch-size: sampler setting batch_size must be at most 12: one 3-slice "
         "tuple per patient, got 18", "data_dir"),
        ("train-encoder", ["--batch-size", "15"], None,
         "--batch-size: sampler setting batch_size must be at most 12: one 3-slice "
         "tuple per patient, got 15", "data_dir"),
        ("run-rounds", [], "batch_size=15",
         "{cfg}: batch_size: sampler setting batch_size must be at most 12: one 3-slice "
         "tuple per patient, got 15", "data_dir"),
        # the subset patient has its companions; volume and patient+volume do not
        ("ablate", ["--groups", "patient,volume"], None,
         f"{{data}}: loss terms patient+volume: {_LONE_VOLUME}", "lone_slice_dir"),
        ("run-rounds", ["--groups", "ntxent,volume"], None,
         f"{{data}}: loss terms ntxent+volume: {_LONE_VOLUME}", "lone_slice_dir"),
    ],
    ids=["ablate-flag", "ablate-config", "train-encoder", "run-rounds",
         "ablate-oversized", "train-encoder-oversized", "run-rounds-oversized",
         "ablate-lone-volume", "run-rounds-lone-volume"],
)
def test_batch_size_checked_against_every_tuple_width_before_training(
    request, tmp_path, capsys, monkeypatch, command, argv, config, line, data
):
    _assert_rejected_before_training(
        request.getfixturevalue(data), tmp_path, capsys, monkeypatch, command, argv,
        config, line,
    )


def test_diverged_training_leaves_no_checkpoint_or_plan(data_dir, tmp_path, capsys):
    ckpt, plan = tmp_path / "enc.ckpt", tmp_path / "epoch0.json"
    with np.errstate(all="ignore"):
        code, stdout, err = run(
            capsys, "train-encoder", "--data", str(data_dir), "--out", str(ckpt),
            "--dump-epoch", str(plan), "--lr", "1e155", "--epochs", "2",
        )
    assert code == 1 and stdout == ""
    assert err.startswith("error: non-finite ") and "at epoch 0, aborting" in err
    assert not ckpt.exists() and not plan.exists()


def test_diverged_training_prints_only_its_error_line(data_dir, tmp_path):
    # a subprocess, so numpy's RuntimeWarnings would reach the stderr read here
    ckpt = tmp_path / "enc.ckpt"
    proc = run_bounded(
        "train-encoder", "--data", str(data_dir), "--out", str(ckpt),
        "--lr", "1e155", "--epochs", "2",
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.splitlines() == ["error: non-finite projections at epoch 0, aborting"]
    assert not ckpt.exists()


@pytest.mark.parametrize("scale", ["1e39", "1e308"])
def test_gen_data_past_float32_prints_only_its_error_line(tmp_path, scale):
    # a subprocess, so numpy's overflow warnings would reach the stderr read
    # here; no dataset that stats could not load is written
    out = tmp_path / "data"
    proc = run_bounded(
        "gen-data", "--out", str(out), "--patients", "2", "--volumes-per-patient", "1",
        "--slices-per-volume", "2", "--height", "2", "--width", "2", "--patient-scale", scale,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "error: synthetic pixels of slices 0..3 are not finite in float32; lower "
        "patient_scale, volume_scale, adjacent_scale or noise_scale"
    ]
    assert not out.exists()
