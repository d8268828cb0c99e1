"""Every file reader under one mutation at a time.

The readers are ``load_checkpoint``, ``read_gcle`` (the GCLE file and its
sidecar), ``load_dataset`` (``meta.json``, ``labels.json`` and
``data.bin``) and the CLI's config-file reader. Each file of a small valid
artifact is mutated one way at a time: truncated at every offset, flipped
at seeded single bits, and, in its JSON, each value set in turn to null, a
string, a float, a bool, -1 and 2**70, each key dropped and each list cut
short by one item. The property: each case either loads, or raises a
``SlicepickError`` (or an ``OSError``) whose message names a file the
reader reads. A mutation of one file may show as a disagreement with
another (a changed ``h`` as the wrong ``data.bin`` size), so any of the
reader's files counts.

A seeded loop, not ``hypothesis``: every run tries the same cases, a few
thousand in a few seconds. A seeded sample of them also runs through
``cli.main``, where each case must exit 0 with its output written, or exit
1 with one ``error:`` line naming the mutated file and no output made.
Last, one case per file of each rule ``_io`` owns (payload size, non-finite
payload, JSON text, format version) runs through ``cli.main``, and its one
error line must be that rule's one wording.
"""

import json
import re
import struct

import numpy as np
import pytest

from slicepick import (
    Architecture,
    SlicepickError,
    SynthSpec,
    TrainConfig,
    generate_synthetic,
    init_params,
    load_checkpoint,
    load_dataset,
    read_gcle,
    save_dataset,
    write_gcle,
)
from slicepick.cli import _read_config_file, main
from slicepick.encoder import checkpoint_bytes

ODD_VALUES = (None, "3", 0.5, True, -1, 2 ** 70)
FLIPS = 400  # seeded single-bit flips per file


def truncations(raw):
    return [raw[:cut] for cut in range(len(raw))]


def bit_flips(raw, seed):
    out = []
    for bit in np.random.default_rng(seed).integers(0, 8 * len(raw), FLIPS).tolist():
        flipped = bytearray(raw)
        flipped[bit // 8] ^= 1 << (bit % 8)
        out.append(bytes(flipped))
    return out


def json_edits(doc):
    """Copies of the JSON document ``doc``, each with one value replaced by
    each of ``ODD_VALUES``, one key dropped or one list one item short."""
    out = []

    def visit(node, rebuild):
        if isinstance(node, dict):
            items = list(node.items())
            for key, value in items:
                def at(new, key=key):
                    return rebuild({**node, key: new})
                out.extend(at(v) for v in ODD_VALUES)
                out.append(rebuild({k: v for k, v in items if k != key}))
                visit(value, at)
        elif isinstance(node, list):
            if node:
                out.append(rebuild(node[:-1]))
            for i, value in enumerate(node):
                def at(new, i=i):
                    return rebuild(node[:i] + [new] + node[i + 1:])
                out.extend(at(v) for v in ODD_VALUES)
                visit(value, at)

    visit(doc, lambda new: new)
    return out


def json_text_edits(raw):
    return [json.dumps(d).encode() for d in json_edits(json.loads(raw))]


def assert_each_loads_or_names_a_file(path, cases, load, files):
    """Write each of ``cases`` to ``path`` and call ``load``; the original
    bytes are restored after."""
    original = path.read_bytes()
    escaped, unnamed = [], []
    try:
        for raw in cases:
            path.write_bytes(raw)
            try:
                load()
            except (SlicepickError, OSError) as exc:
                if not any(str(f) in str(exc) for f in files):
                    unnamed.append((raw, str(exc)))
            except Exception as exc:  # noqa: BLE001 - the property under test
                escaped.append((raw, repr(exc)))
    finally:
        path.write_bytes(original)
    assert escaped == [] and unnamed == [], (len(cases), escaped[:3], unnamed[:3])


@pytest.fixture
def dataset_dir(tmp_path):
    spec = SynthSpec(n_patients=2, volumes_per_patient=2, slices_per_volume=2, h=2, w=2,
                     class_count=2, seed=5)
    ds, labels = generate_synthetic(spec)
    save_dataset(ds, labels, tmp_path / "d", spec)
    return tmp_path / "d"


@pytest.mark.parametrize("name", ["meta.json", "labels.json", "data.bin"])
def test_dataset_files(dataset_dir, name):
    path = dataset_dir / name
    raw = path.read_bytes()
    cases = truncations(raw) + bit_flips(raw, seed=len(name))
    if name.endswith(".json"):
        cases += json_text_edits(raw)
    files = [dataset_dir / f for f in ("meta.json", "labels.json", "data.bin")]
    assert_each_loads_or_names_a_file(path, cases, lambda: load_dataset(dataset_dir), files)


def test_checkpoint(tmp_path):
    path = tmp_path / "enc.ckpt"
    params = init_params(Architecture(input_dim=4, hidden=(3,), rep_dim=2, proj_dim=2), 7)
    raw = checkpoint_bytes(params, TrainConfig(epochs=1, hidden=(3,), rep_dim=2, proj_dim=2))
    path.write_bytes(raw)
    (head_len,) = struct.unpack("<I", raw[4:8])
    blob = raw[8 + head_len:]
    headers = json_text_edits(raw[8:8 + head_len])
    cases = truncations(raw) + bit_flips(raw, seed=1) + [
        raw[:4] + struct.pack("<I", len(head)) + head + blob for head in headers
    ]
    assert_each_loads_or_names_a_file(path, cases, lambda: load_checkpoint(path), [path])


@pytest.mark.parametrize("sidecar", [False, True])
def test_gcle_file_and_sidecar(tmp_path, sidecar):
    path = tmp_path / "emb.gcle"
    ids = np.array([[10 + i, i // 4, i // 2, i % 2] for i in range(8)])
    write_gcle(path, np.random.default_rng(3).standard_normal((8, 3)), ids)
    target = tmp_path / "emb.gcle.meta.json" if sidecar else path
    raw = target.read_bytes()
    cases = truncations(raw) + bit_flips(raw, seed=2 + sidecar)
    if sidecar:
        cases += json_text_edits(raw)
    # the sidecar's path starts with the GCLE file's
    assert_each_loads_or_names_a_file(target, cases, lambda: read_gcle(path), [path])


def test_config_file(tmp_path, capsys):
    assert main(["--print-config"]) == 0
    path = tmp_path / "run.cfg"
    raw = capsys.readouterr().out.encode()
    path.write_bytes(raw)
    cases = truncations(raw) + bit_flips(raw, seed=4)
    assert_each_loads_or_names_a_file(path, cases, lambda: _read_config_file(path), [path])


# -- the same mutations through the CLI -----------------------------------------

CLI_CASES = 40  # seeded cases per (command, file)
TRAIN_CONFIG = "groups=ntxent,volume\nepochs=2\nhidden=3\nrep_dim=2\nproj_dim=2\n"


def cli_cases(raw, seed):
    """A seeded sample of the cases above for the file bytes ``raw``."""
    cases = truncations(raw) + bit_flips(raw, seed)
    if raw.lstrip()[:1] in (b"{", b"["):
        cases += json_text_edits(raw)
    rng = np.random.default_rng(seed)
    return [cases[i] for i in sorted(rng.choice(len(cases), CLI_CASES, replace=False))]


@pytest.fixture
def cli_inputs(dataset_dir, tmp_path, capsys):
    """Each CLI reader's inputs, valid, by name: the dataset and its three
    files, a checkpoint that fits it, its GCLE embeddings and sidecar, and
    a training config file."""
    ckpt, emb, config = tmp_path / "enc.ckpt", tmp_path / "emb.gcle", tmp_path / "train.cfg"
    config.write_text(TRAIN_CONFIG)
    for argv in (["--config", str(config), "train-encoder", "--data", str(dataset_dir),
                  "--out", str(ckpt)],
                 ["embed", "--data", str(dataset_dir), "--checkpoint", str(ckpt),
                  "--out", str(emb)]):
        assert main(argv) == 0
    capsys.readouterr()
    files = {name: dataset_dir / name for name in ("meta.json", "labels.json", "data.bin")}
    return {**files, "data": dataset_dir, "ckpt": ckpt, "emb": emb,
            "emb.meta.json": tmp_path / "emb.gcle.meta.json", "config": config}


# command: (the inputs whose files are mutated, its argv given the inputs and
# the output path, whether it writes that path rather than printing)
CLI_COMMANDS = {
    "stats": (["meta.json", "labels.json", "data.bin"],
              lambda d, out: ["stats", "--data", str(d["data"]), "--json"], False),
    "embed": (["meta.json", "data.bin", "ckpt"],
              lambda d, out: ["embed", "--data", str(d["data"]), "--checkpoint",
                              str(d["ckpt"]), "--out", str(out)], True),
    "select": (["emb", "emb.meta.json"],
               lambda d, out: ["select", "--embeddings", str(d["emb"]), "--budget", "3",
                               "--out", str(out)], True),
    "train-encoder": (["config"],
                      lambda d, out: ["--config", str(d["config"]), "train-encoder",
                                      "--data", str(d["data"]), "--out", str(out)], True),
}


@pytest.mark.parametrize("command", list(CLI_COMMANDS))
def test_cli_exits_cleanly_on_every_mutation(cli_inputs, tmp_path, capsys, command):
    # each case exits 0 with its output written, or exits 1 with one
    # ``error:`` line naming the mutated file and no output made
    names, argv, writes = CLI_COMMANDS[command]
    out = tmp_path / "out"
    failures = []
    for seed, name in enumerate(names):
        path = cli_inputs[name]
        original = path.read_bytes()
        try:
            for raw in cli_cases(original, seed):
                path.write_bytes(raw)
                code = main(argv(cli_inputs, out))
                printed, err = capsys.readouterr()
                made = out.exists() if writes else bool(printed)
                lines = err.splitlines()
                ok = (code == 0 and made) or (
                    code == 1 and not made and len(lines) == 1
                    and lines[0].startswith("error: ") and str(path) in lines[0]
                )
                if not ok:
                    failures.append((name, raw[:60], code, err))
                if out.exists():
                    out.unlink()
        finally:
            path.write_bytes(original)
    assert failures == [], (len(failures), failures[:3])


# -- each shared file rule, through the CLI, in its one wording ------------------

def _edit_ckpt_header(raw, edit):
    (head_len,) = struct.unpack("<I", raw[4:8])
    head = edit(raw[8:8 + head_len])
    return raw[:4] + struct.pack("<I", len(head)) + head + raw[8 + head_len:]


def _set_version(raw, version):
    doc = json.loads(raw)
    doc["format_version"] = version
    return json.dumps(doc).encode()


def _utf16(raw):
    """The same JSON text in UTF-16, which ``json.loads`` would take from bytes."""
    return raw.decode().encode("utf-16")


NAN = np.array([np.nan], dtype="<f4").tobytes()

HEADER = ": checkpoint header"  # the part of a checkpoint the JSON rules name
VERSION = "'format_version'"

# (rule, mutated input, its mutation, the command reading it, the wording's fields)
RULE_CASES = [
    ("size", "data.bin", lambda raw: raw[:-4], "stats", {"part": "payload"}),
    ("size", "ckpt", lambda raw: raw + b"\0" * 4, "embed", {"part": "parameter blob"}),
    ("size", "emb", lambda raw: raw[:-4], "select", {"part": "payload"}),
    ("non-finite", "data.bin", lambda raw: NAN + raw[4:], "stats", {"part": "payload"}),
    ("non-finite", "ckpt", lambda raw: raw[:-4] + NAN, "embed", {"part": "parameter blob"}),
    ("non-finite", "emb", lambda raw: raw[:-4] + NAN, "select", {"part": "payload"}),
    ("json", "meta.json", _utf16, "stats", {"part": ""}),
    ("json", "labels.json", lambda raw: raw[:-2], "stats", {"part": ""}),
    ("json", "emb.meta.json", _utf16, "select", {"part": ""}),
    ("json", "ckpt", lambda raw: _edit_ckpt_header(raw, _utf16), "embed", {"part": HEADER}),
    ("version", "meta.json", lambda raw: _set_version(raw, 2), "stats",
     {"part": "", "field": VERSION}),
    ("version", "ckpt", lambda raw: _edit_ckpt_header(raw, lambda h: _set_version(h, 2)),
     "embed", {"part": HEADER, "field": VERSION}),
    ("version", "emb", lambda raw: raw[:4] + struct.pack("<I", 2) + raw[8:], "select",
     {"part": "", "field": "version"}),
]

# each rule's one wording, a regular expression of the file and its fields
RULE_WORDING = {
    "size": r"{file}: {part} holds \d+ bytes, .+ implies \d+",
    "non-finite": r"{file}: {part} contains non-finite values",
    "json": r"{file}{part}: invalid JSON: .+",
    "version": r"{file}{part}: unsupported {field} 2, expected 1",
}


@pytest.mark.parametrize("rule,name,mutate,command,fields", RULE_CASES,
                         ids=[f"{c[0]}-{c[1]}" for c in RULE_CASES])
def test_cli_reports_each_rule_in_its_one_wording(cli_inputs, tmp_path, capsys, rule, name,
                                                   mutate, command, fields):
    path = cli_inputs[name]
    path.write_bytes(mutate(path.read_bytes()))
    out = tmp_path / "out"
    code = main(CLI_COMMANDS[command][1](cli_inputs, out))
    printed, err = capsys.readouterr()
    escaped = {key: re.escape(value) for key, value in fields.items()}
    wording = RULE_WORDING[rule].format(file=re.escape(str(path)), **escaped)
    assert code == 1 and not out.exists() and printed == ""
    assert re.fullmatch(f"error: {wording}\n", err), err
