import argparse
import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import slicepick
from slicepick.cli import CONFIG, build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fail_second_staged_write(monkeypatch):
    """Make the second file that ``_io.write_all_atomic`` stages fail with
    ENOSPC; returns the list of descriptors opened so far."""
    opened = []
    fdopen = os.fdopen

    def failing_second_write(fd, *args, **kwargs):
        opened.append(fd)
        if len(opened) == 2:
            os.close(fd)
            raise OSError(errno.ENOSPC, "No space left on device")
        return fdopen(fd, *args, **kwargs)

    monkeypatch.setattr(os, "fdopen", failing_second_write)
    return opened


@pytest.fixture
def data_dir(tmp_path, capsys):
    out = tmp_path / "data"
    code, _, _ = run(
        capsys, "gen-data", "--out", str(out), "--patients", "6",
        "--volumes-per-patient", "2", "--slices-per-volume", "4",
        "--height", "4", "--width", "4", "--classes", "4", "--seed", "11",
    )
    assert code == 0
    return out


class TestGenData:
    def test_byte_identical_regeneration(self, tmp_path, capsys):
        args = [
            "gen-data", "--patients", "3", "--volumes-per-patient", "1",
            "--slices-per-volume", "3", "--height", "3", "--width", "3",
            "--seed", "7",
        ]
        assert run(capsys, *args, "--out", str(tmp_path / "a"))[0] == 0
        assert run(capsys, *args, "--out", str(tmp_path / "b"))[0] == 0
        for name in ("data.bin", "meta.json", "labels.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_invalid_spec_is_runtime_error(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "gen-data", "--out", str(tmp_path / "x"), "--patients", "0"
        )
        assert code == 1
        assert "error" in err


class TestStats:
    def test_reports_all_groupings(self, data_dir, capsys):
        code, out, _ = run(capsys, "stats", "--data", str(data_dir), "--json")
        assert code == 0
        values = json.loads(out)
        assert set(values) == {"dataset", "patient", "volume", "adjacent"}
        assert values["dataset"] > values["adjacent"]


class TestEncoderPipeline:
    def test_train_embed_select_chain(self, data_dir, tmp_path, capsys):
        ckpt = tmp_path / "enc.ckpt"
        hist = tmp_path / "hist.csv"
        plan = tmp_path / "epoch0.json"
        code, _, _ = run(
            capsys, "train-encoder", "--data", str(data_dir), "--out", str(ckpt),
            "--groups", "ntxent,volume", "--epochs", "2", "--hidden", "8",
            "--rep-dim", "4", "--proj-dim", "3", "--seed", "5",
            "--history", str(hist), "--dump-epoch", str(plan),
        )
        assert code == 0
        lines = hist.read_text().splitlines()
        assert lines[0] == "epoch,mean_loss"
        assert len(lines) == 3
        doc = json.loads(plan.read_text())
        assert doc["batch_size_slices"] == 8  # width 2 stock size
        gcle_path = tmp_path / "emb.gcle"
        code, _, _ = run(
            capsys, "embed", "--data", str(data_dir), "--checkpoint", str(ckpt),
            "--out", str(gcle_path),
        )
        assert code == 0
        code, out, _ = run(
            capsys, "select", "--embeddings", str(gcle_path), "--budget", "5",
            "--initial", "empty", "--seed", "3",
        )
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert len(rows) == 5
        assert [r["rank"] for r in rows] == list(range(5))
        assert rows[0]["min_dist"] is None  # cold start
        dists = [r["min_dist"] for r in rows[1:]]
        assert all(b <= a for a, b in zip(dists, dists[1:]))

    def test_select_with_initial_ids(self, data_dir, tmp_path, capsys):
        ckpt = tmp_path / "enc.ckpt"
        run(
            capsys, "train-encoder", "--data", str(data_dir), "--out", str(ckpt),
            "--groups", "ntxent", "--epochs", "1", "--hidden", "8",
            "--rep-dim", "4", "--proj-dim", "3",
        )
        gcle_path = tmp_path / "emb.gcle"
        run(capsys, "embed", "--data", str(data_dir), "--checkpoint", str(ckpt),
            "--out", str(gcle_path))
        code, out, _ = run(
            capsys, "select", "--embeddings", str(gcle_path), "--budget", "3",
            "--initial", "0,1",
        )
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert len(rows) == 3
        assert all(r["min_dist"] is not None for r in rows)


class TestSelectInitial:
    @pytest.fixture
    def gcle_path(self, tmp_path):
        from slicepick import gcle

        ids = np.array([(10 + i, 0, 0, i) for i in range(4)])
        path = tmp_path / "emb.gcle"
        gcle.write_gcle(path, np.arange(8.0).reshape(4, 2), ids)
        return path

    def test_unknown_slice_id(self, gcle_path, capsys):
        code, out, err = run(
            capsys, "select", "--embeddings", str(gcle_path), "--budget", "1",
            "--initial", "10,999",
        )
        assert code == 1
        assert out == ""
        assert "--initial" in err and "999" in err and str(gcle_path) in err

    def test_empty_items_are_skipped(self, gcle_path, capsys):
        # as in every other list flag: "10,,11," is "10,11"
        picks = {}
        for initial in ("10,,11,", "10,11"):
            code, out, err = run(
                capsys, "select", "--embeddings", str(gcle_path), "--budget", "1",
                "--initial", initial,
            )
            assert code == 0 and err == ""
            picks[initial] = out
        assert picks["10,,11,"] == picks["10,11"]
        assert json.loads(picks["10,11"])["slice_id"] == 13

    @pytest.mark.parametrize("initial", ["10,10", "11,10,,11"])
    def test_repeated_slice_id(self, gcle_path, capsys, initial):
        # as name_list rejects a repeated name: never the picks of "10" alone
        code, out, err = run(
            capsys, "select", "--embeddings", str(gcle_path), "--budget", "1",
            "--initial", initial,
        )
        assert code == 1
        assert out == ""
        slice_id = initial.split(",")[0]
        assert err == f"error: --initial: slice id {slice_id} is repeated in {initial!r}\n"

    def test_non_integer_slice_id(self, gcle_path, capsys):
        code, out, err = run(
            capsys, "select", "--embeddings", str(gcle_path), "--budget", "1",
            "--initial", "abc",
        )
        assert code == 1
        assert out == ""
        assert "--initial" in err and "'abc'" in err
        assert "invalid literal" not in err


class TestMalformedSidecar:
    """Each sidecar defect through ``select``: exit 1 and one error line
    naming the sidecar, the row and the key, never a traceback."""

    @pytest.fixture
    def gcle_path(self, tmp_path):
        from slicepick import gcle

        ids = np.array([(i, 0, 0, i) for i in range(3)])
        path = tmp_path / "emb.gcle"
        gcle.write_gcle(path, np.arange(6.0).reshape(3, 2), ids)
        return path

    def select_with_sidecar(self, capsys, gcle_path, doc):
        sidecar = f"{gcle_path}.meta.json"
        with open(sidecar, "w") as fh:
            json.dump(doc, fh)
        code, out, err = run(
            capsys, "select", "--embeddings", str(gcle_path), "--budget", "1"
        )
        assert code == 1 and out == ""
        assert err.startswith(f"error: {sidecar}: ") and err.count("\n") == 1
        return err

    def rows(self, gcle_path):
        with open(f"{gcle_path}.meta.json") as fh:
            return json.load(fh)["rows"]

    def test_document_not_an_object(self, gcle_path, capsys):
        err = self.select_with_sidecar(capsys, gcle_path, [1, 2])
        assert "top level must be a JSON object" in err

    def test_row_not_an_object(self, gcle_path, capsys):
        err = self.select_with_sidecar(capsys, gcle_path, {"rows": [1, 2, 3]})
        assert "rows[0] must be a JSON object" in err

    @pytest.mark.parametrize("key", ["slice_id", "patient_id", "volume_id", "slice_index"])
    def test_non_integer_key(self, gcle_path, capsys, key):
        rows = self.rows(gcle_path)
        rows[1][key] = "x"
        err = self.select_with_sidecar(capsys, gcle_path, {"rows": rows})
        assert f"rows[1].{key} must be an integer, got 'x'" in err
        assert "invalid literal" not in err

    def test_duplicate_slice_id(self, gcle_path, capsys):
        rows = self.rows(gcle_path)
        rows[2]["slice_id"] = rows[0]["slice_id"]
        err = self.select_with_sidecar(capsys, gcle_path, {"rows": rows})
        assert "rows[2].slice_id 0 repeats an earlier row" in err

    def test_sidecar_not_utf8(self, gcle_path, capsys):
        sidecar = Path(f"{gcle_path}.meta.json")
        sidecar.write_bytes(b"\xff\xfe" + sidecar.read_bytes())
        code, out, err = run(capsys, "select", "--embeddings", str(gcle_path), "--budget", "1")
        assert code == 1 and out == ""
        assert err.startswith(f"error: {sidecar}: invalid JSON: ") and err.count("\n") == 1


class TestRunRounds:
    def test_thread_count_does_not_change_bytes(self, data_dir, tmp_path, capsys):
        common = [
            "run-rounds", "--data", str(data_dir), "--repeats", "2",
            "--fractions", "0.1,0.3", "--epochs", "2", "--hidden", "8",
            "--rep-dim", "4", "--proj-dim", "3", "--seed", "2",
        ]
        assert run(capsys, *common, "--out", str(tmp_path / "r1"), "--threads", "1")[0] == 0
        assert run(capsys, *common, "--out", str(tmp_path / "r4"), "--threads", "4")[0] == 0
        assert (tmp_path / "r1" / "report.json").read_bytes() == (
            tmp_path / "r4" / "report.json"
        ).read_bytes()
        assert (tmp_path / "r1" / "summary.csv").read_bytes() == (
            tmp_path / "r4" / "summary.csv"
        ).read_bytes()


    def test_worker_error_exits_one_without_report(self, data_dir, tmp_path, capsys):
        out = tmp_path / "r"
        code, _, err = run(
            capsys, "run-rounds", "--data", str(data_dir), "--out", str(out),
            "--threads", "2", "--repeats", "2", "--lr", "1e155",
            "--strategies", "coreset_learned", "--epochs", "1", "--hidden", "8",
            "--rep-dim", "4", "--proj-dim", "3",
        )
        assert code == 1
        assert err == "error: non-finite projections at epoch 0, aborting\n"
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_rejected(self, data_dir, tmp_path, capsys, threads):
        code, _, err = run(
            capsys, "run-rounds", "--data", str(data_dir), "--out", str(tmp_path / "r"),
            "--threads", threads,
        )
        assert code == 1
        assert err == f"error: --threads: experiment setting threads must be >= 1, got {threads}\n"
        assert not (tmp_path / "r").exists()

    def test_unknown_strategy_names_its_flag(self, data_dir, tmp_path, capsys):
        out = tmp_path / "r"
        code, stdout, err = run(
            capsys, "run-rounds", "--data", str(data_dir), "--out", str(out),
            "--strategies", "bogus", "--epochs", "1",
        )
        assert code == 1 and stdout == ""
        assert err.splitlines() == [
            "error: --strategies: experiment setting strategies must hold only the kinds "
            "random, coreset_raw, coreset_learned, got ['bogus']"
        ]
        assert not out.exists()

    def test_out_that_is_a_file_rejected_before_training(
        self, data_dir, tmp_path, capsys, monkeypatch
    ):
        from slicepick import pipeline

        trained = []
        monkeypatch.setattr(pipeline, "train", lambda *a, **k: trained.append(a))
        out = tmp_path / "taken"
        out.write_text("keep\n")
        code, stdout, err = run(
            capsys, "run-rounds", "--data", str(data_dir), "--out", str(out),
            "--epochs", "1",
        )
        assert code == 1 and stdout == ""
        assert err == f"error: --out {out}: {out} is not a directory\n"
        assert trained == [] and out.read_text() == "keep\n"


class TestOutputFiles:
    """Each output file path is checked before any work: a refused path
    exits 1 naming its flag and path, and nothing runs or is written."""

    def assert_refused(self, capsys, tmp_path, argv, flag, path):
        before = sorted(tmp_path.rglob("*"))
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == f"error: {flag} {path}: not a file path in an existing directory\n"
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("flag", ["--out", "--history", "--dump-epoch"])
    def test_train_encoder(self, data_dir, tmp_path, capsys, monkeypatch, flag):
        from slicepick import cli as cli_mod

        trained = []
        monkeypatch.setattr(cli_mod, "train", lambda *a, **k: trained.append(a))
        paths = {f: tmp_path / f"{f[2:]}.out" for f in ("--out", "--history", "--dump-epoch")}
        paths[flag] = tmp_path / "missing" / "file"
        argv = ["train-encoder", "--data", str(data_dir), "--epochs", "1"]
        argv += [str(x) for f, path in paths.items() for x in (f, path)]
        self.assert_refused(capsys, tmp_path, argv, flag, paths[flag])
        assert trained == []

    @pytest.mark.parametrize("first,second", [("--out", "--history"), ("--out", "--dump-epoch"),
                                              ("--history", "--dump-epoch")])
    @pytest.mark.parametrize("spelling", ["out.ckpt", "./out.ckpt"])
    def test_train_encoder_outputs_naming_one_file(self, data_dir, tmp_path, capsys, monkeypatch,
                                                   first, second, spelling):
        # both would be staged and renamed onto one file, keeping the last
        from slicepick import cli as cli_mod

        trained = []
        monkeypatch.setattr(cli_mod, "train", lambda *a, **k: trained.append(a))
        monkeypatch.chdir(tmp_path)
        argv = ["train-encoder", "--data", str(data_dir), "--epochs", "1",
                first, "out.ckpt", second, spelling]
        if first != "--out":
            argv += ["--out", "other.ckpt"]
        before = sorted(tmp_path.rglob("*"))
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == f"error: {first} out.ckpt and {second} {spelling}: the same file\n"
        assert trained == [] and sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("before", [None, "old\n"], ids=["new-files", "old-files"])
    def test_train_encoder_writes_all_outputs_or_none(self, data_dir, tmp_path, capsys,
                                                      monkeypatch, before):
        # the second of the three staged writes fails: no target changes,
        # and no staged file is left behind
        outs = tmp_path / "outs"
        outs.mkdir()
        paths = {f: outs / f"{f[2:]}.out" for f in ("--dump-epoch", "--out", "--history")}
        if before is not None:
            for path in paths.values():
                path.write_text(before)
        opened = fail_second_staged_write(monkeypatch)
        argv = ["train-encoder", "--data", str(data_dir), "--epochs", "1", "--hidden", "4",
                "--rep-dim", "3", "--proj-dim", "2"]
        code, out, err = run(capsys, *argv, *[str(x) for f, p in paths.items() for x in (f, p)])
        assert code == 1 and out == ""
        assert err == f"error: [Errno 28] No space left on device: {str(paths['--out'])!r}\n"
        assert len(opened) == 2
        if before is None:
            assert list(outs.iterdir()) == []
        else:
            assert sorted(p.name for p in outs.iterdir()) == sorted(p.name for p in paths.values())
            assert all(p.read_text() == before for p in paths.values())
        monkeypatch.undo()
        # with the writes working, the same command writes all three
        assert run(capsys, *argv, *[str(x) for f, p in paths.items() for x in (f, p)])[0] == 0
        assert all(p.read_bytes() != b"old\n" for p in paths.values())
        assert sorted(p.name for p in outs.iterdir()) == sorted(p.name for p in paths.values())

    @pytest.mark.parametrize("command", ["gen-data", "embed", "run-rounds"])
    def test_multi_file_outputs_written_together(self, data_dir, tmp_path, capsys,
                                                 monkeypatch, command):
        # each command rewrites a set of files whose second write fails: every
        # file keeps its old bytes, and no staged file is left behind
        if command == "gen-data":
            # another seed at the same sizes: a mixed set would still load
            outs = data_dir
            argv = ["gen-data", "--out", str(outs), "--patients", "6",
                    "--volumes-per-patient", "2", "--slices-per-volume", "4",
                    "--height", "4", "--width", "4", "--classes", "4", "--seed", "12"]
            second = outs / "data.bin"
        elif command == "embed":
            ckpt = tmp_path / "enc.ckpt"
            assert run(capsys, "train-encoder", "--data", str(data_dir), "--out", str(ckpt),
                       "--groups", "ntxent", "--epochs", "1", "--hidden", "4",
                       "--rep-dim", "3", "--proj-dim", "2")[0] == 0
            outs = tmp_path / "emb"
            outs.mkdir()
            argv = ["embed", "--data", str(data_dir), "--checkpoint", str(ckpt),
                    "--out", str(outs / "e.gcle")]
            second = outs / "e.gcle.meta.json"
            for path in (outs / "e.gcle", second):
                path.write_text("old\n")
        else:
            outs = tmp_path / "rounds"
            outs.mkdir()
            argv = ["run-rounds", "--data", str(data_dir), "--out", str(outs),
                    "--strategies", "random,coreset_raw", "--fractions", "0.1,0.3",
                    "--repeats", "1"]
            second = outs / "summary.csv"
            for name in ("report.json", "summary.csv"):
                (outs / name).write_text("old\n")
        before = {p.name: p.read_bytes() for p in outs.iterdir()}
        fail_second_staged_write(monkeypatch)
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err == f"error: [Errno 28] No space left on device: {str(second)!r}\n"
        assert {p.name: p.read_bytes() for p in outs.iterdir()} == before
        monkeypatch.undo()
        assert run(capsys, *argv)[0] == 0
        after = {p.name: p.read_bytes() for p in outs.iterdir()}
        assert after.keys() == before.keys() and after[second.name] != before[second.name]

    def test_gen_data_out_checked_before_generating(self, tmp_path, capsys, monkeypatch):
        from slicepick import cli as cli_mod

        generated = []
        monkeypatch.setattr(cli_mod, "generate_synthetic", lambda *a: generated.append(a))
        taken = tmp_path / "taken"
        taken.write_text("keep\n")
        code, out, err = run(capsys, "gen-data", "--out", str(taken / "data"))
        assert code == 1 and out == ""
        assert err == f"error: --out {taken / 'data'}: {taken} is not a directory\n"
        assert generated == [] and taken.read_text() == "keep\n"

    def test_embed(self, data_dir, tmp_path, capsys, monkeypatch):
        from slicepick import cli as cli_mod

        embedded = []
        monkeypatch.setattr(cli_mod, "embed_all", lambda *a: embedded.append(a))
        out = tmp_path / "missing" / "emb.gcle"
        argv = ["embed", "--data", str(data_dir), "--checkpoint", str(tmp_path / "no.ckpt"),
                "--out", str(out)]
        self.assert_refused(capsys, tmp_path, argv, "--out", out)
        assert embedded == []

    def test_select(self, tmp_path, capsys, monkeypatch):
        from slicepick import cli as cli_mod, gcle

        emb = tmp_path / "emb.gcle"
        ids = np.array([(i, 0, 0, i) for i in range(3)])
        gcle.write_gcle(emb, np.arange(6.0).reshape(3, 2), ids)
        selected = []
        monkeypatch.setattr(cli_mod, "k_center_greedy", lambda *a, **k: selected.append(a))
        # an existing directory is no file path either
        argv = ["select", "--embeddings", str(emb), "--budget", "1", "--out", str(tmp_path)]
        self.assert_refused(capsys, tmp_path, argv, "--out", tmp_path)
        assert selected == []


class TestMalformedInputs:
    def test_truncated_checkpoint(self, data_dir, tmp_path, capsys):
        ckpt = tmp_path / "enc.ckpt"
        assert run(
            capsys, "train-encoder", "--data", str(data_dir), "--out", str(ckpt),
            "--groups", "ntxent", "--epochs", "1", "--hidden", "8",
            "--rep-dim", "4", "--proj-dim", "3",
        )[0] == 0
        cut = tmp_path / "t.ckpt"
        cut.write_bytes(ckpt.read_bytes()[:6])
        code, _, err = run(
            capsys, "embed", "--data", str(data_dir), "--checkpoint", str(cut),
            "--out", str(tmp_path / "e.gcle"),
        )
        assert code == 1
        assert err.startswith(f"error: {cut}: ") and "header length" in err
        assert not (tmp_path / "e.gcle").exists()

    def test_checkpoint_for_other_pixel_size(self, data_dir, tmp_path, capsys):
        small = tmp_path / "small"
        assert run(
            capsys, "gen-data", "--out", str(small), "--patients", "3",
            "--volumes-per-patient", "1", "--slices-per-volume", "3",
            "--height", "3", "--width", "3",
        )[0] == 0
        ckpt = tmp_path / "enc.ckpt"
        assert run(
            capsys, "train-encoder", "--data", str(small), "--out", str(ckpt),
            "--groups", "ntxent", "--epochs", "1", "--hidden", "4",
            "--rep-dim", "3", "--proj-dim", "2",
        )[0] == 0
        out = tmp_path / "e.gcle"
        code, stdout, err = run(
            capsys, "embed", "--data", str(data_dir), "--checkpoint", str(ckpt),
            "--out", str(out),
        )
        assert code == 1 and stdout == ""
        assert err.splitlines() == [
            f"error: {ckpt} does not fit {data_dir}: encoder input_dim 9 does not "
            "match 4x4 = 16 pixels per slice"
        ]
        assert not out.exists() and not Path(f"{out}.meta.json").exists()

    def test_meta_without_slices(self, data_dir, capsys):
        meta_path = data_dir / "meta.json"
        meta = json.loads(meta_path.read_text())
        del meta["slices"]
        meta_path.write_text(json.dumps(meta))
        code, out, err = run(capsys, "stats", "--data", str(data_dir))
        assert code == 1 and out == ""
        assert err == f"error: {meta_path}: missing key 'slices'\n"

    @pytest.mark.parametrize("version", [True, 1.0])
    def test_meta_format_version_other_than_the_integer_one(self, data_dir, capsys, version):
        meta_path = data_dir / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["format_version"] = version
        meta_path.write_text(json.dumps(meta))
        code, out, err = run(capsys, "stats", "--data", str(data_dir))
        assert code == 1 and out == ""
        assert err == (
            f"error: {meta_path}: 'format_version' must be an integer, got {version!r}\n"
        )

    def stats_with_slices(self, data_dir, capsys, edit):
        meta_path = data_dir / "meta.json"
        meta = json.loads(meta_path.read_text())
        edit(meta["slices"])
        meta_path.write_text(json.dumps(meta))
        code, out, err = run(capsys, "stats", "--data", str(data_dir))
        assert code == 1 and out == ""
        assert err.startswith(f"error: {meta_path}: ") and err.count("\n") == 1
        return err

    def test_duplicate_slice_id_names_file_and_record(self, data_dir, capsys):
        def edit(slices):
            slices[1]["slice_id"] = slices[0]["slice_id"]

        err = self.stats_with_slices(data_dir, capsys, edit)
        assert "slices[1].slice_id 0 repeats an earlier row" in err

    def test_volume_on_two_patients_names_file_and_record(self, data_dir, capsys):
        def edit(slices):
            slices[1]["patient_id"] = slices[0]["patient_id"] + 1

        err = self.stats_with_slices(data_dir, capsys, edit)
        assert "slices[1]: volume 0 maps to patients 0 and 1" in err

    def test_non_contiguous_depths_name_file_and_volume(self, data_dir, capsys):
        def edit(slices):
            slices[3]["slice_index"] = 7

        err = self.stats_with_slices(data_dir, capsys, edit)
        assert "volume 0 slice_index values [0, 1, 2, 7] are not contiguous" in err


class TestSelectBudget:
    @pytest.fixture
    def gcle_path(self, tmp_path):
        from slicepick import gcle

        ids = np.array([(i, 0, 0, i) for i in range(3)])
        path = tmp_path / "emb.gcle"
        gcle.write_gcle(path, np.arange(6.0).reshape(3, 2), ids)
        return path

    @pytest.mark.parametrize("budget", ["-1", "4"])
    def test_budget_outside_range(self, gcle_path, tmp_path, capsys, budget):
        out_path = tmp_path / "trace.jsonl"
        code, out, err = run(
            capsys, "select", "--embeddings", str(gcle_path), "--budget", budget,
            "--out", str(out_path),
        )
        assert code == 1 and out == ""
        assert err == (
            f"error: --budget: selection setting budget must lie in [0, 3] (the unlabeled "
            f"rows), got {budget}\n"
        )
        assert not out_path.exists()

    def test_zero_budget_writes_an_empty_trace(self, gcle_path, tmp_path, capsys):
        out_path = tmp_path / "trace.jsonl"
        code, out, err = run(
            capsys, "select", "--embeddings", str(gcle_path), "--budget", "0",
            "--out", str(out_path),
        )
        assert code == 0 and out == "" and err == ""
        assert out_path.read_bytes() == b""  # JSON Lines with no records

    def test_negative_seed_names_seed_not_budget(self, gcle_path, tmp_path, capsys):
        out_path = tmp_path / "trace.jsonl"
        code, out, err = run(
            capsys, "select", "--embeddings", str(gcle_path), "--budget", "2",
            "--seed", "-1", "--out", str(out_path),
        )
        assert code == 1 and out == ""
        assert err == (
            "error: --seed: selection setting seed must be a nonnegative "
            "integer, got -1\n"
        )
        assert not out_path.exists()


class TestAblate:
    def test_enumerates_subsets(self, data_dir, tmp_path, capsys):
        out_csv = tmp_path / "abl.csv"
        code, _, _ = run(
            capsys, "ablate", "--data", str(data_dir), "--groups", "ntxent,volume",
            "--fraction", "0.2", "--epochs", "1", "--hidden", "8",
            "--rep-dim", "4", "--proj-dim", "3", "--out", str(out_csv),
        )
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0].startswith("terms,")
        names = [line.split(",")[0] for line in lines[1:]]
        assert names == ["none", "ntxent", "volume", "ntxent+volume"]

    def test_weight_applies_only_to_subsets_with_its_term(self, data_dir, tmp_path, capsys):
        out_csv = tmp_path / "abl.csv"
        code, _, _ = run(
            capsys, "ablate", "--data", str(data_dir), "--groups", "ntxent,patient",
            "--w-patient", "0.7", "--fraction", "0.2", "--epochs", "1", "--hidden", "8",
            "--rep-dim", "4", "--proj-dim", "3", "--out", str(out_csv),
        )
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0].split(",")[:3] == ["terms", "ntxent", "patient"]
        patient_weight = {
            line.split(",")[0]: line.split(",")[2] for line in lines[1:]
        }
        assert patient_weight == {
            "none": "0.0", "ntxent": "0.0", "patient": "0.7", "ntxent+patient": "0.7",
        }

    def test_weight_for_term_outside_groups_rejected(self, data_dir, tmp_path, capsys):
        out_csv = tmp_path / "abl.csv"
        code, _, err = run(
            capsys, "ablate", "--data", str(data_dir), "--groups", "ntxent,volume",
            "--w-patient", "0.7", "--epochs", "1", "--out", str(out_csv),
        )
        assert code == 1
        assert "'patient'" in err
        assert not out_csv.exists()

    def test_unknown_term_rejected_before_training(
        self, data_dir, tmp_path, capsys, monkeypatch
    ):
        from slicepick import pipeline

        trained = []
        monkeypatch.setattr(pipeline, "train", lambda *a, **k: trained.append(a))
        out_csv = tmp_path / "abl.csv"
        code, _, err = run(
            capsys, "ablate", "--data", str(data_dir), "--groups", "ntxent,foo",
            "--epochs", "1", "--out", str(out_csv),
        )
        assert code == 1
        assert err.splitlines() == [
            "error: --groups: loss setting groups must hold only the terms "
            "ntxent, patient, volume, slice, got ['foo', 'ntxent']"
        ]
        assert trained == [] and not out_csv.exists()

    def test_out_in_missing_directory_rejected_before_training(
        self, data_dir, tmp_path, capsys, monkeypatch
    ):
        from slicepick import pipeline

        trained = []
        monkeypatch.setattr(pipeline, "train", lambda *a, **k: trained.append(a))
        out_csv = tmp_path / "missing" / "abl.csv"
        code, stdout, err = run(
            capsys, "ablate", "--data", str(data_dir), "--epochs", "1",
            "--out", str(out_csv),
        )
        assert code == 1 and stdout == ""
        assert err == f"error: --out {out_csv}: not a file path in an existing directory\n"
        assert trained == [] and not out_csv.parent.exists()

    def test_identical_slices_leave_silhouette_empty(self, tmp_path, capsys):
        # every slice equal, so k-means finds one cluster and no silhouette
        data = tmp_path / "flat"
        code, _, _ = run(
            capsys, "gen-data", "--out", str(data), "--patients", "3",
            "--volumes-per-patient", "2", "--slices-per-volume", "3", "--height", "3",
            "--width", "3", "--patient-scale", "0", "--volume-scale", "0",
            "--adjacent-scale", "0", "--noise-scale", "0", "--seed", "1",
        )
        assert code == 0
        out_csv = tmp_path / "abl.csv"
        code, _, err = run(
            capsys, "ablate", "--data", str(data), "--groups", "ntxent", "--epochs", "1",
            "--out", str(out_csv),
        )
        assert code == 0 and err == ""
        lines = out_csv.read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["none", "ntxent"]
        assert [line.split(",")[5] for line in lines[1:]] == ["", ""]


class TestWeightOverrides:
    def test_train_encoder_rejects_weight_of_absent_term(self, data_dir, tmp_path, capsys):
        ckpt = tmp_path / "enc.ckpt"
        code, out, err = run(
            capsys, "train-encoder", "--data", str(data_dir), "--out", str(ckpt),
            "--groups", "ntxent,volume", "--w-patient", "0.7", "--epochs", "1",
        )
        assert code == 1 and out == ""
        assert err.splitlines() == [
            "error: --w-patient: loss setting patient must be unset, as 'patient' is "
            "not among the loss terms ['ntxent', 'volume'], got 0.7"
        ]
        assert not ckpt.exists()

    @pytest.mark.parametrize(
        "flag,value,field",
        [("--w-patient", "nan", "patient"), ("--w-patient", "inf", "patient"),
         ("--tau", "nan", "tau")],
    )
    def test_non_finite_loss_setting_rejected_before_training(
        self, data_dir, tmp_path, capsys, flag, value, field
    ):
        ckpt = tmp_path / "enc.ckpt"
        code, out, err = run(
            capsys, "train-encoder", "--data", str(data_dir), "--out", str(ckpt),
            "--groups", "ntxent,patient", flag, value, "--epochs", "1",
        )
        assert code == 1 and out == ""
        assert err.splitlines() == [
            f"error: {flag}: loss setting {field} must be finite, got {value}"
        ]
        assert not ckpt.exists()


class TestConfig:
    def test_print_config_lists_defaults(self, capsys):
        code, out, _ = run(capsys, "--print-config")
        assert code == 0
        assert "tau=0.1" in out
        assert "epochs=100" in out

    def test_config_file_and_flag_precedence(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("patients=2\nseed=5\nheight=3\nwidth=3\n"
                       "volumes_per_patient=1\nslices_per_volume=3\n")
        out_a = tmp_path / "a"
        code, _, _ = run(capsys, "gen-data", "--config", str(cfg), "--out", str(out_a))
        assert code == 0
        meta = json.loads((out_a / "meta.json").read_text())
        assert meta["spec"]["n_patients"] == 2
        assert meta["spec"]["seed"] == 5
        out_b = tmp_path / "b"
        code, _, _ = run(
            capsys, "gen-data", "--config", str(cfg), "--out", str(out_b),
            "--patients", "3",
        )
        assert code == 0
        meta = json.loads((out_b / "meta.json").read_text())
        assert meta["spec"]["n_patients"] == 3

    def test_common_flags_use_the_config_cast_and_suppress_default(self):
        commands = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ).choices
        seen = set()
        for name, sub in commands.items():
            for action in sub._actions:
                if action.dest in CONFIG:
                    seen.add(action.dest)
                    assert action.option_strings == [
                        "--" + action.dest.replace("_", "-")
                    ], name
                    assert action.type is CONFIG[action.dest][1], (name, action.dest)
                    assert action.default is argparse.SUPPRESS, (name, action.dest)
        # every key but the config-only augment settings has a flag somewhere
        assert seen == set(CONFIG) - {"flip_prob", "noise_sigma", "scale_lo", "scale_hi"}

    @pytest.mark.parametrize(
        "command,flag,value,name",
        [("ablate", "--groups", "volume,volume", "volume"),
         ("run-rounds", "--strategies", "random,random", "random")],
    )
    def test_repeated_name_is_usage_error(
        self, data_dir, tmp_path, capsys, command, flag, value, name
    ):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([command, "--data", str(data_dir), "--out", str(out), flag, value])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(
            f"error: argument {flag}: {name!r} is repeated in {value!r}"
        )
        assert not out.exists()

    def test_repeated_name_in_config_file(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("groups=volume,volume\n")
        out = tmp_path / "abl.csv"
        code, _, err = run(
            capsys, "ablate", "--config", str(cfg), "--data", str(data_dir),
            "--out", str(out),
        )
        assert code == 1
        assert err == (
            f"error: {cfg}:1: bad value for 'groups': 'volume' is repeated in "
            "'volume,volume'\n"
        )
        assert not out.exists()

    def test_repeated_key_in_config_file(self, tmp_path, capsys):
        # a later line once silently overrode an earlier one
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=1\nepochs=5\n# a comment\nseed=2\n")
        code, out, err = run(capsys, "--config", str(cfg), "--print-config")
        assert code == 1 and out == ""
        assert err == f"error: {cfg}:4: key 'seed' repeats line 1\n"

    def test_bad_flag_value_names_its_cast(self, capsys):
        assert all(cast.__name__ != "<lambda>" for _, cast in CONFIG.values())
        with pytest.raises(SystemExit) as exc:
            main(["train-encoder", "--data", "d", "--out", "o", "--batch-size", "abc"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(
            "error: argument --batch-size: invalid int_or_auto value: 'abc'"
        )

    def test_config_file_not_utf8_names_file(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "bin.cfg"
        cfg.write_bytes(b"\xff\xfeepochs=1\n")
        ckpt = tmp_path / "enc.ckpt"
        code, out, err = run(
            capsys, "train-encoder", "--config", str(cfg), "--data", str(data_dir),
            "--out", str(ckpt),
        )
        assert code == 1 and out == ""
        assert err.startswith(f"error: {cfg}: not UTF-8 text: ") and err.count("\n") == 1
        assert not ckpt.exists()

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus=1\n")
        code, _, err = run(capsys, "gen-data", "--config", str(cfg), "--out", str(tmp_path / "x"))
        assert code == 1
        assert "bogus" in err

    def test_bad_config_value_names_file_line_and_key(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("# comment\nepochs=abc\n")
        code, _, err = run(
            capsys, "train-encoder", "--config", str(cfg), "--data", str(data_dir),
            "--out", str(tmp_path / "enc.ckpt"),
        )
        assert code == 1
        assert err == f"error: {cfg}:2: bad value for 'epochs': 'abc'\n"
        assert not (tmp_path / "enc.ckpt").exists()

    @pytest.mark.parametrize(
        "argv",
        [["stats", "--data", "{data}"],
         ["embed", "--data", "{data}", "--checkpoint", "enc.ckpt", "--out", "x.gcle"],
         ["verify"]],
        ids=["stats", "embed", "verify"],
    )
    def test_every_command_reads_its_config_file_first(self, data_dir, tmp_path, capsys, argv):
        # commands that take no config key still refuse a malformed file
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("oops\n")
        argv = [a.format(data=data_dir) for a in argv]
        code, out, err = run(capsys, "--config", str(cfg), *argv)
        assert code == 1 and out == ""
        assert err == f"error: {cfg}:1: expected key=value, got 'oops'\n"

    @pytest.mark.parametrize(
        "command",
        next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ).choices.items(),
        ids=lambda item: item[0],
    )
    def test_config_after_any_command_is_read_first(self, tmp_path, capsys, command):
        name, sub = command
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("oops\n")
        required = [
            arg for a in sub._actions if a.required for arg in (a.option_strings[0], "1")
        ]
        code, out, err = run(capsys, name, *required, "--config", str(cfg))
        assert code == 1 and out == ""
        assert err == f"error: {cfg}:1: expected key=value, got 'oops'\n"

    @pytest.mark.parametrize(
        "text,message",
        [
            ("threads=\n", "bad.cfg:1: bad value for 'threads': ''"),
            ("seed=1\nbogus=1\n", "bad.cfg:2: unknown config key 'bogus'"),
            (None, "bad.cfg"),
        ],
        ids=["bad-value", "unknown-key", "missing-file"],
    )
    def test_print_config_with_bad_config_exits_one(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "bad.cfg"
        if text is not None:
            cfg.write_text(text)
        code, out, err = run(capsys, "--config", str(cfg), "--print-config")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err


class TestErrors:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["stats", "--data", "x", "--bogus"])
        assert exc.value.code == 2

    def test_missing_data_dir_is_runtime_error(self, capsys):
        code, _, err = run(capsys, "stats", "--data", "/nonexistent/dir")
        assert code == 1

    def test_no_command_prints_help(self, capsys):
        code, out, _ = run(capsys)
        assert code == 2
        assert "usage" in out


class TestVerify:
    def test_verify_passes(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        assert out.count("PASS") == 5

    def test_verify_fails_nonzero(self, capsys, monkeypatch):
        from slicepick import checks

        monkeypatch.setattr(checks, "run_all", lambda: [("doomed", False, "injected")])
        code, out, _ = run(capsys, "verify")
        assert code == 1
        assert "FAIL doomed" in out

    def test_only_verify_imports_the_checks(self):
        # a fresh interpreter: every other command skips compiling them
        code = "import sys, slicepick.cli; print('slicepick.checks' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=str(Path(slicepick.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.stdout == "False\n", proc.stderr
