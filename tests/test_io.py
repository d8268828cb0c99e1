import os
import re
import threading

import pytest

from slicepick._io import check_output_files, write_all_atomic, write_atomic
from slicepick.errors import SlicepickError


def test_writes_bytes_and_text(tmp_path):
    write_atomic(tmp_path / "a.bin", b"\x00\x01")
    write_atomic(tmp_path / "b.txt", "hé\n")
    assert (tmp_path / "a.bin").read_bytes() == b"\x00\x01"
    assert (tmp_path / "b.txt").read_bytes() == "hé\n".encode()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.bin", "b.txt"]


def test_mode_matches_a_plain_write(tmp_path):
    (tmp_path / "plain").write_bytes(b"x")
    write_atomic(tmp_path / "atomic", b"x")
    assert (tmp_path / "atomic").stat().st_mode == (tmp_path / "plain").stat().st_mode


def test_failed_write_keeps_old_file_and_leaves_no_temp(tmp_path, monkeypatch):
    target = tmp_path / "report.json"
    target.write_text("old\n")

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        write_atomic(target, "new\n")
    assert target.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_error_names_the_target_not_the_temp_file(tmp_path):
    target = tmp_path / "missing" / "x.csv"
    with pytest.raises(FileNotFoundError) as info:
        write_atomic(target, "x\n")
    assert str(info.value).endswith(f": {str(target)!r}")
    assert info.value.filename == str(target)


def test_writes_through_a_symlink(tmp_path):
    (tmp_path / "real").write_text("old\n")
    (tmp_path / "link").symlink_to(tmp_path / "real")
    write_atomic(tmp_path / "link", "new\n")
    assert (tmp_path / "link").is_symlink()
    assert (tmp_path / "real").read_text() == "new\n"


def test_writes_into_a_pipe_without_replacing_it(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(
        target=lambda: received.append(fifo.read_bytes()), daemon=True
    )
    reader.start()
    write_atomic(fifo, b"through the pipe")
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert received == [b"through the pipe"]
    assert [p.name for p in tmp_path.iterdir()] == ["fifo"]


def test_two_outputs_may_name_one_pipe_but_not_one_file(tmp_path):
    # a pipe takes both writes; a file would keep only the last
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    check_output_files([("--history", fifo), ("--dump-epoch", fifo)])
    real, link = tmp_path / "real", tmp_path / "link"
    link.symlink_to(real)
    message = f"--out {real} and --history {link}: the same file"
    with pytest.raises(SlicepickError, match=re.escape(message)):
        check_output_files([("--out", real), ("--history", link)])


def test_outputs_written_together_or_not_at_all(tmp_path):
    # the second output cannot be staged: the first keeps its old bytes
    first, second = tmp_path / "a.ckpt", tmp_path / "missing" / "b.csv"
    first.write_text("old\n")
    with pytest.raises(FileNotFoundError) as info:
        write_all_atomic([(first, "new\n"), (second, "new\n")])
    assert info.value.filename == str(second)
    assert first.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["a.ckpt"]
    write_all_atomic([(first, "new\n"), (tmp_path / "b.csv", b"b")])
    assert first.read_text() == "new\n" and (tmp_path / "b.csv").read_bytes() == b"b"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.ckpt", "b.csv"]
