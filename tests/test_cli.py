import json

import numpy as np
import pytest

from slicepick.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

        meta = [
            {"slice_id": 10 + i, "patient_id": 0, "volume_id": 0, "slice_index": i}
            for i in range(4)
        ]
        path = tmp_path / "emb.gcle"
        gcle.write_gcle(path, np.arange(8.0).reshape(4, 2), meta)
        return path

    def test_unknown_slice_id(self, gcle_path, capsys):
        code, out, err = run(
            capsys, "select", "--embeddings", str(gcle_path), "--budget", "1",
            "--initial", "10,999",
        )
        assert code == 1
        assert out == ""
        assert "--initial" in err and "999" in err and str(gcle_path) in err

    def test_non_integer_slice_id(self, gcle_path, capsys):
        code, out, err = run(
            capsys, "select", "--embeddings", str(gcle_path), "--budget", "1",
            "--initial", "abc",
        )
        assert code == 1
        assert out == ""
        assert "--initial" in err and "'abc'" in err
        assert "invalid literal" not in err


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
            "--threads", "2", "--repeats", "2", "--batch-size", "7",
            "--strategies", "coreset_learned", "--epochs", "1", "--hidden", "8",
            "--rep-dim", "4", "--proj-dim", "3",
        )
        assert code == 1
        assert err == "error: batch size 7 is not a multiple of tuple width 3\n"
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_rejected(self, data_dir, tmp_path, capsys, threads):
        code, _, err = run(
            capsys, "run-rounds", "--data", str(data_dir), "--out", str(tmp_path / "r"),
            "--threads", threads,
        )
        assert code == 1
        assert err == f"error: --threads must be >= 1, got {threads}\n"
        assert not (tmp_path / "r").exists()


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

    def test_meta_without_slices(self, data_dir, capsys):
        meta_path = data_dir / "meta.json"
        meta = json.loads(meta_path.read_text())
        del meta["slices"]
        meta_path.write_text(json.dumps(meta))
        code, out, err = run(capsys, "stats", "--data", str(data_dir))
        assert code == 1 and out == ""
        assert err == f"error: {meta_path}: missing key 'slices'\n"


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

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus=1\n")
        code, _, err = run(capsys, "gen-data", "--config", str(cfg), "--out", str(tmp_path / "x"))
        assert code == 1
        assert "bogus" in err


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
        assert out.count("PASS") == 3

    def test_verify_fails_nonzero(self, capsys, monkeypatch):
        from slicepick import cli as cli_mod

        monkeypatch.setattr(
            cli_mod.checks, "run_all", lambda: [("doomed", False, "injected")]
        )
        code, out, _ = run(capsys, "verify")
        assert code == 1
        assert "FAIL doomed" in out
