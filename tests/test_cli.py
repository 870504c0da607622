import contextlib
import functools
import gc
import hashlib
import io
import os
import re
import runpy
import shutil
import stat
import subprocess
import struct
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import healthmap
from healthmap import (DetectionReport, HealthMap, Persistence, Scenario,
                       Severity, append_changes, cli, codec, compile_xml,
                       deserialize, footprint, prune, report_detection,
                       serialize)
from healthmap.cli import main
from healthmap.codec import HEADER_SIZE, MODULE_SIZE
from healthmap.errors import HealthMapError
from healthmap.model import (QUOTED_CHARS, QUOTED_PATH_CHARS, quote_path,
                             quote_token)

import golden
from conftest import DATA_DIR
from helpers import nest_xml, reference_deserialize, restamp
from test_codec import mutated_image, mutation_bases

DEMO_DATA = Path(__file__).parent.parent / "demo" / "data"

TABLE1_RM = """\
Module name  Worst severity  Worst persistence  Status
CPU          LOW             TRANSIENT          PROPAGATED FAULT
CPU.C0       LOW             TRANSIENT          PROPAGATED FAULT
CPU.C0.FPU   HIGH            TRANSIENT          OWN FAULT
CPU.C1       ZERO            ZERO               AVAILABLE
CPU.C1.FPU   ZERO            ZERO               AVAILABLE
CPU.C2       ZERO            ZERO               AVAILABLE
CPU.C2.FPU   ZERO            ZERO               AVAILABLE
CPU.C3       ZERO            ZERO               MAINTENANCE
CPU.C3.FPU   ZERO            ZERO               MAINTENANCE
"""


@pytest.fixture
def compiled(tmp_path):
    shm = tmp_path / "table1.shm"
    sym = tmp_path / "table1.sym"
    rc = main(["compile", str(DATA_DIR / "table1.xml"),
               "-o", str(shm), "--sym", str(sym)])
    assert rc == 0
    return shm, sym


def test_compile_validate_round_trip(compiled, capsys):
    shm, _sym = compiled
    assert main(["validate", str(shm)]) == 0
    out = capsys.readouterr().out
    assert "valid (9 modules, 0 faults, 0 detections)" in out


def test_inject_then_rm_prints_reference_table(compiled, capsys):
    shm, sym = compiled
    assert main(["inject", str(shm), "--detector", "12", "--sev", "HIGH",
                 "--class", "1", "--t", "1000"]) == 0
    capsys.readouterr()
    assert main(["rm", str(shm), "--sym", str(sym),
                 "--maintenance", "CPU.C3"]) == 0
    assert capsys.readouterr().out == TABLE1_RM


def test_inject_is_append_only(compiled):
    shm, _sym = compiled
    before = shm.read_bytes()
    main(["inject", str(shm), "--detector", "12", "--sev", "HIGH",
          "--class", "1", "--t", "1000"])
    after = shm.read_bytes()
    assert len(after) == len(before) + 37
    assert after[32:len(before) - 4].startswith(before[32:36])


def test_affinity_masks(compiled, tmp_path, capsys):
    shm, sym = compiled
    main(["inject", str(shm), "--detector", "12", "--sev", "HIGH",
          "--class", "1", "--t", "0"])
    tasks = tmp_path / "tasks.txt"
    tasks.write_text("task fpu_task needs=FPU\n"
                     "task any maxSev=HIGH maxPers=PERMANENT\n")
    capsys.readouterr()
    assert main(["affinity", str(shm), "--tasks", str(tasks),
                 "--sym", str(sym), "--maintenance", "CPU.C3"]) == 0
    assert capsys.readouterr().out == "fpu_task 0x6\nany 0x7\n"


def test_affinity_core_of_no_module_in_the_image_exits_1(compiled, tmp_path,
                                                       capsys):
    shm, _sym = compiled
    sym, tasks = tmp_path / "ghost.sym", tmp_path / "tasks.txt"
    sym.write_text("999 GHOST core=0\n")
    tasks.write_text("task any_core\n")
    assert main(["affinity", str(shm), "--tasks", str(tasks),
                 "--sym", str(sym)]) == 1
    assert capsys.readouterr().err == "error: module 999 has no entry\n"


def test_affinity_resolves_a_repeated_name_as_maintenance_does(
        compiled, tmp_path, capsys):
    shm, _sym = compiled
    # ids 22 and 12 both carry CPU.C0.FPU; 22 is listed first
    sym = tmp_path / "dup.sym"
    sym.write_text("1 CPU\n22 CPU.C0.FPU\n10 CPU.C0 core=0\n12 CPU.C0.FPU\n"
                   "20 CPU.C1 core=1\n30 CPU.C2 core=2\n32 CPU.C2.FPU\n"
                   "40 CPU.C3 core=3\n42 CPU.C3.FPU\n")
    main(["inject", str(shm), "--detector", "12", "--sev", "HIGH",
          "--class", "1", "--t", "0"])
    capsys.readouterr()
    assert main(["rm", str(shm), "--sym", str(sym),
                 "--maintenance", "CPU.C0.FPU"]) == 0
    rows = [r.split() for r in capsys.readouterr().out.splitlines()
            if r.startswith("CPU.C0.FPU")]
    # module 12 holds the fault, so the marked one is 22
    assert sorted(rows) == [
        ["CPU.C0.FPU", "HIGH", "TRANSIENT", "OWN", "FAULT"],
        ["CPU.C0.FPU", "ZERO", "ZERO", "MAINTENANCE"]]
    tasks = tmp_path / "tasks.txt"
    tasks.write_text("task fpu needs=FPU maxSev=HIGH maxPers=PERMANENT\n")
    assert main(["affinity", str(shm), "--tasks", str(tasks),
                 "--sym", str(sym), "--maintenance", "CPU.C0.FPU"]) == 0
    # core 0's FPU is module 22, in maintenance; core 1 has no FPU name
    assert capsys.readouterr().out == "fpu 0xc\n"


def test_dump_lists_modules_and_faults(compiled, capsys):
    shm, sym = compiled
    main(["inject", str(shm), "--detector", "12", "--sev", "LOW",
          "--class", "3", "--t", "42", "--payload", "0xbeef"])
    capsys.readouterr()
    assert main(["dump", str(shm), "--sym", str(sym)]) == 0
    out = capsys.readouterr().out
    assert "module 12 name=CPU.C0.FPU parent=10 crit=LOW" in out
    assert "fault class=3 sev=LOW pers=TRANSIENT" in out
    assert "detection detector=12 t=42 count=1 payload=0xbeef" in out


def test_prune_merges_duplicates(compiled, capsys):
    shm, _sym = compiled
    for t in (0, 100, 200):
        main(["inject", str(shm), "--detector", "12", "--sev", "LOW",
              "--class", "1", "--t", str(t)])
    size_before = len(shm.read_bytes())
    capsys.readouterr()
    assert main(["prune", str(shm)]) == 0
    out = capsys.readouterr().out
    assert "merged 0 records" in out  # merge window already collapsed them
    assert main(["validate", str(shm)]) == 0
    assert len(shm.read_bytes()) == size_before


def test_estimate_output(capsys):
    assert main(["estimate", "--cores", "8"]) == 0
    out = capsys.readouterr().out
    assert "Total 82418" in out
    assert "RM 138 x 7 = 966 bytes" in out


@pytest.mark.parametrize("cores, shown", [
    ("1365", "1365"), ("9" * 4299, "<14281-bit integer>")])
def test_estimate_refuses_a_count_the_header_cannot_hold(cores, shown):
    # at 1 365 cores R = 48 C + 30 passes the header's u16 field; a count
    # of 4 299 digits used to end in a traceback when the table was drawn
    code, out, err = cli_outcome(["estimate", "--cores", cores])
    assert (code, out) == (1, "")
    assert err == (f"error: core count {shown}: an image header cannot "
                   f"count the records of that many cores\n")


def test_estimate_takes_the_largest_count_the_header_holds():
    code, out, _err = cli_outcome(["estimate", "--cores", "1364"])
    assert code == 0
    assert "Diag resource      65502    13  851526" in out


def test_simulate_writes_logs(tmp_path, table1_xml):
    (tmp_path / "child.xml").write_text(table1_xml)
    (tmp_path / "parent.xml").write_text(
        '<healthmap version="1">'
        '<module id="1" name="BOARD" criticality="ZERO">'
        '<module id="2" name="NODE1" criticality="LOW">'
        '<instrument id="5" kind="7"/></module></module></healthmap>')
    (tmp_path / "parent.map").write_text("downlink 1 5\nchild 1 12 -> 2\n")
    (tmp_path / "run.scn").write_text(
        "duration 10000\n"
        "node 0 hm=parent.xml map=parent.map period=10000 parent=none\n"
        "node 1 hm=child.xml map=none period=5000 parent=0\n"
        "at 1000 node 1 detect 12 sev=HIGH class=1\n")
    out_dir = tmp_path / "out"
    assert main(["simulate", str(tmp_path / "run.scn"),
                 "--out", str(out_dir)]) == 0
    messages = (out_dir / "messages.log").read_text()
    assert messages.count("\n") == 2
    assert "node 1 -> 0" in messages
    assert (out_dir / "rm.log").read_text().count("\n") == 3


def test_corrupt_image_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.shm"
    bad.write_bytes(b"\x00" * 64)
    assert main(["validate", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("detector", ["12", "999999"])
def test_inject_reports_image_error_before_unknown_detector(
        compiled, capsys, detector):
    shm, _sym = compiled
    image = bytearray(shm.read_bytes())
    image[-1] ^= 0xFF
    shm.write_bytes(image)
    assert main(["inject", str(shm), "--detector", detector, "--sev", "LOW",
                 "--class", "1", "--t", "0"]) == 1
    assert capsys.readouterr().err == "error: body checksum mismatch\n"
    assert shm.read_bytes() == image


def test_missing_file_exits_1(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.shm")]) == 1
    assert "error:" in capsys.readouterr().err


class FailingStdout(io.StringIO):
    """A stdout without a file descriptor whose every write raises."""

    def __init__(self, error: OSError) -> None:
        super().__init__()
        self.error = error

    def write(self, text):
        raise self.error


@pytest.mark.parametrize("error, rc, err", [
    (BrokenPipeError(32, "Broken pipe"), 0, ""),
    (OSError(5, "Input/output error"), 1,
     "error: [Errno 5] Input/output error\n"),
])
def test_stdout_write_error(compiled, monkeypatch, capsys, error, rc, err):
    # a closed pipe ends the command quietly, any other write error is one
    # error line; the caller's stdout stays in place either way
    shm, sym = compiled
    stdout = FailingStdout(error)
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["rm", str(shm), "--sym", str(sym)]) == rc
    assert sys.stdout is stdout
    assert capsys.readouterr().err == err


def test_closed_pipe_under_pipefail_exits_0(tmp_path):
    # the dump outgrows the pipe, so `head` closes it while hm still
    # writes; nothing reaches stderr, also at the interpreter's exit
    image = tmp_path / "big.shm"
    image.write_bytes(serialize(footprint.synthesize_map(8)))
    env = dict(os.environ, PYTHONPATH=str(Path(healthmap.__file__).parents[1]))
    done = subprocess.run(
        ["bash", "-o", "pipefail", "-c",
         '"$0" -m healthmap.cli dump "$1" | head -n 1', sys.executable,
         str(image)], capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith("image: 82418 bytes, 138 modules")


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["inject"])  # missing required arguments
    assert exc.value.code == 2


def test_unknown_maintenance_name_exits_1(compiled, capsys):
    shm, sym = compiled
    assert main(["rm", str(shm), "--sym", str(sym),
                 "--maintenance", "GPU"]) == 1
    assert "unknown module name" in capsys.readouterr().err


def test_superscript_digit_maintenance_name_exits_1(compiled, capsys):
    shm, sym = compiled
    assert main(["rm", str(shm), "--sym", str(sym),
                 "--maintenance", "\u00b2"]) == 1
    assert "unknown module name" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["rm", "affinity"])
def test_maintenance_id_past_the_digit_limit_exits_1(compiled, tmp_path,
                                                     capsys, command):
    # int() refuses a string of more than 4 300 digits with ValueError
    shm, sym = compiled
    tasks = tmp_path / "tasks.txt"
    tasks.write_text("task any maxSev=HIGH\n")
    extra = ["--tasks", str(tasks)] if command == "affinity" else []
    assert main([command, str(shm), *extra, "--sym", str(sym),
                 "--maintenance", "1" * 5000]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: bad module id '{'1' * 40}'... (5000 " \
        "characters): not an integer\n"
    assert captured.out == ""


def test_inject_class_outside_u8_exits_1_and_keeps_image(compiled, capsys):
    shm, _sym = compiled
    before = shm.read_bytes()
    assert main(["inject", str(shm), "--detector", "12", "--sev", "HIGH",
                 "--class", "300", "--t", "1000"]) == 1
    assert "classification 300" in capsys.readouterr().err
    assert shm.read_bytes() == before


def failing_write(monkeypatch, fails, torn=False) -> None:
    """Patch `os.write` so that a write of bytes that `fails` picks raises
    `OSError("disk full")`, after writing half of them when `torn`."""
    write = os.write

    def patched(fd, data):
        if fails(bytes(data)):
            if torn:
                write(fd, data[:len(data) // 2])
            raise OSError("disk full")
        return write(fd, data)

    monkeypatch.setattr(os, "write", patched)


@pytest.mark.parametrize("argv", [
    ["inject", "--detector", "12", "--sev", "HIGH", "--class", "1",
     "--t", "1000"],
    ["prune"],
])
def test_failed_rewrite_leaves_image_intact(compiled, monkeypatch, capsys,
                                            argv):
    shm, _sym = compiled
    before = shm.read_bytes()
    files_before = sorted(shm.parent.iterdir())
    failing_write(monkeypatch, lambda data: data.startswith(b"SHM1"),
                  torn=True)
    assert main([argv[0], str(shm), *argv[1:]]) == 1
    assert "disk full" in capsys.readouterr().err
    assert shm.read_bytes() == before
    assert sorted(shm.parent.iterdir()) == files_before


@pytest.mark.parametrize("call", ["fsync", "replace"])
@pytest.mark.parametrize("argv", [
    ["inject", "--detector", "12", "--sev", "HIGH", "--class", "1",
     "--t", "1000"],
    ["prune"],
])
def test_failed_sync_or_rename_leaves_image_intact(compiled, monkeypatch,
                                                   capsys, argv, call):
    # the temp file is written in full; syncing it or renaming it over
    # the image fails
    shm, _sym = compiled
    before = shm.read_bytes()
    files_before = sorted(shm.parent.iterdir())

    def fails(*_args):
        raise OSError(f"{call} failed")

    monkeypatch.setattr(os, call, fails)
    assert main([argv[0], str(shm), *argv[1:]]) == 1
    assert capsys.readouterr().err == f"error: {call} failed\n"
    assert shm.read_bytes() == before
    assert not list(shm.parent.glob(f".{shm.name}.*.tmp"))
    assert sorted(shm.parent.iterdir()) == files_before


def test_failed_recompile_leaves_image_and_sidecar_intact(
        compiled, monkeypatch, capsys):
    shm, sym = compiled
    image, sidecar = shm.read_bytes(), sym.read_text()
    files_before = sorted(shm.parent.iterdir())
    failing_write(monkeypatch, lambda data: data.startswith(b"SHM1"),
                  torn=True)
    assert main(["compile", str(DEMO_DATA / "board.xml"), "-o", str(shm),
                 "--sym", str(sym)]) == 1
    assert "disk full" in capsys.readouterr().err
    assert shm.read_bytes() == image
    assert sym.read_text() == sidecar
    assert sorted(shm.parent.iterdir()) == files_before


def test_failed_sidecar_write_leaves_image_intact(compiled, monkeypatch,
                                                  capsys):
    shm, sym = compiled
    image, sidecar = shm.read_bytes(), sym.read_text()
    files_before = sorted(shm.parent.iterdir())
    # the sidecar is the one file that is not an image
    failing_write(monkeypatch, lambda data: not data.startswith(b"SHM1"))
    assert main(["compile", str(DEMO_DATA / "board.xml"), "-o", str(shm),
                 "--sym", str(sym)]) == 1
    assert "disk full" in capsys.readouterr().err
    assert shm.read_bytes() == image
    assert sym.read_text() == sidecar
    assert sorted(shm.parent.iterdir()) == files_before


def test_failed_simulate_log_write_leaves_old_logs(tmp_path, monkeypatch,
                                                  capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / "messages.log").write_bytes(b"old messages\n")
    (out / "rm.log").write_bytes(b"old rm\n")
    # rm.log lines read `at T node N rm HEX`, messages.log lines `... -> P`
    failing_write(monkeypatch, lambda data: b" rm " in data)
    assert main(["simulate", str(DEMO_DATA / "board.scn"),
                 "--out", str(out)]) == 1
    assert "disk full" in capsys.readouterr().err
    assert (out / "messages.log").read_bytes() == b"old messages\n"
    assert (out / "rm.log").read_bytes() == b"old rm\n"
    assert sorted(p.name for p in out.iterdir()) == ["messages.log",
                                                     "rm.log"]


def test_short_writes_still_write_the_whole_image(tmp_path, monkeypatch):
    # each os.write takes at most 1 000 bytes; the replace writes the rest,
    # and with the temp file renamed it has nothing to unlink
    shm = tmp_path / "big.shm"
    image = serialize(footprint.synthesize_map(8))
    shm.write_bytes(image)
    write, sizes = os.write, []

    def short_write(fd, data):
        sizes.append(len(data))
        return write(fd, data[:1000])

    def unlink(name):
        raise AssertionError(f"unlinked {name}")

    monkeypatch.setattr(os, "write", short_write)
    monkeypatch.setattr(os, "unlink", unlink)
    detector = next(iter(deserialize(image).diag_resources))
    assert main(["inject", str(shm), "--detector", str(detector), "--sev",
                 "HIGH", "--class", "1", "--t", "1000"]) == 0
    hm = deserialize(image)
    report_detection(hm, DetectionReport(detector, Severity.HIGH, 1, 1000))
    expected = append_changes(image, hm)
    assert len(sizes) == -(-len(expected) // 1000) > 80
    assert shm.read_bytes() == expected
    assert deserialize(shm.read_bytes()).snapshot() == hm.snapshot()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["big.shm"]


def test_fresh_compile_gets_plain_write_mode(tmp_path):
    shm, sym, plain = (tmp_path / "new.shm", tmp_path / "new.sym",
                       tmp_path / "plain")
    umask = os.umask(0o022)   # plain writes get 0o644, temp files 0o600
    try:
        assert main(["compile", str(DATA_DIR / "table1.xml"), "-o", str(shm),
                     "--sym", str(sym)]) == 0
        plain.write_bytes(b"")
    finally:
        os.umask(umask)
    mode = stat.S_IMODE(plain.stat().st_mode)
    assert stat.S_IMODE(shm.stat().st_mode) == mode
    assert stat.S_IMODE(sym.stat().st_mode) == mode
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "new.shm", "new.sym", "plain"]


def test_rewrite_keeps_each_file_mode(compiled):
    shm, sym = compiled
    shm.chmod(0o640)
    sym.chmod(0o604)
    assert main(["inject", str(shm), "--detector", "12", "--sev", "HIGH",
                 "--class", "1", "--t", "1000"]) == 0
    assert main(["prune", str(shm)]) == 0
    assert main(["compile", str(DATA_DIR / "table1.xml"), "-o", str(shm),
                 "--sym", str(sym)]) == 0
    assert stat.S_IMODE(shm.stat().st_mode) == 0o640
    assert stat.S_IMODE(sym.stat().st_mode) == 0o604


@pytest.mark.parametrize("spelling", ["same", "dot", "linked-dir"])
def test_compile_refuses_one_file_named_twice(compiled, capsys, spelling):
    # the sidecar's rename used to land on the image: exit 0, "wrote
    # table1.shm (... bytes)", and a sidecar where the image should be
    shm, _sym = compiled
    before = shm.read_bytes()
    (shm.parent / "link").symlink_to(shm.parent)
    files_before = sorted(shm.parent.iterdir())
    sym = {"same": str(shm),
           "dot": f"{shm.parent}/./{shm.name}",
           "linked-dir": str(shm.parent / "link" / shm.name)}[spelling]
    assert main(["compile", str(DATA_DIR / "table1.xml"), "-o", str(shm),
                 "--sym", sym]) == 1
    assert capsys.readouterr() == (
        "", f"error: two outputs name one file: "
            f"{quote_path(Path(sym), repr)}\n")
    assert shm.read_bytes() == before
    assert sorted(shm.parent.iterdir()) == files_before


@pytest.mark.parametrize("flag", ["-o", "--sym"])
def test_compile_refuses_a_directory_target(compiled, capsys, flag):
    # a directory given to --sym used to fail at its rename, after the image
    # was replaced: exit 1, a new image, no sidecar, and an error line
    # naming the hidden temp file
    shm, sym = compiled
    target = shm.parent / "dir"
    target.mkdir()
    before = {path: path.read_bytes() for path in (shm, sym)}
    files_before = sorted(shm.parent.iterdir())
    outputs = {"-o": str(shm), "--sym": str(sym), flag: str(target)}
    assert main(["compile", str(DEMO_DATA / "cpu.xml"), "-o", outputs["-o"],
                 "--sym", outputs["--sym"]]) == 1
    assert capsys.readouterr() == (
        "", f"error: output is a directory: "
            f"{quote_path(target, repr)}\n")
    assert {path: path.read_bytes() for path in (shm, sym)} == before
    assert sorted(shm.parent.iterdir()) == files_before


def test_simulate_refuses_a_directory_log(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "rm.log").mkdir(parents=True)
    (out / "messages.log").write_bytes(b"old log\n")
    assert main(["simulate", str(DEMO_DATA / "board.scn"), "--out",
                 str(out)]) == 1
    assert capsys.readouterr() == (
        "", f"error: output is a directory: "
            f"{quote_path(out / 'rm.log', repr)}\n")
    assert (out / "messages.log").read_bytes() == b"old log\n"
    assert sorted(p.name for p in out.iterdir()) == ["messages.log",
                                                     "rm.log"]


@pytest.mark.parametrize("option, value", [
    ("--t", "-1"),
    ("--t", str(2**64)),
    ("--payload", "1ffffffff"),
])
def test_inject_value_outside_field_exits_1_and_keeps_image(
        compiled, capsys, option, value):
    shm, _sym = compiled
    before = shm.read_bytes()
    values = {"--t": "1000", option: value}
    argv = ["inject", str(shm), "--detector", "12", "--sev", "HIGH",
            "--class", "1"]
    for opt, val in values.items():
        argv += [opt, val]
    assert main(argv) == 1
    assert "outside 0.." in capsys.readouterr().err
    assert shm.read_bytes() == before


def test_inject_payload_not_hex_is_usage_error(compiled):
    shm, _sym = compiled
    before = shm.read_bytes()
    with pytest.raises(SystemExit) as exc:
        main(["inject", str(shm), "--detector", "12", "--sev", "HIGH",
              "--class", "1", "--t", "1000", "--payload", "zz"])
    assert exc.value.code == 2
    assert shm.read_bytes() == before


def test_inject_payload_not_hex_names_the_flag(compiled, capsys):
    shm, _sym = compiled
    with pytest.raises(SystemExit):
        main(["inject", str(shm), "--detector", "12", "--sev", "HIGH",
              "--class", "1", "--t", "1000", "--payload", "zz"])
    assert capsys.readouterr().err.endswith(
        "error: argument --payload: invalid hexadecimal value: 'zz'\n")


def test_inject_reads_flags_as_a_report_line_reads_them(compiled, capsys):
    # underscores and a sign, which int() accepts, in every report field
    shm, _sym = compiled
    assert main(["inject", str(shm), "--detector", "1_2", "--sev", "HIGH",
                 "--class", "+3", "--t", "4_2", "--payload", "1_f"]) == 0
    capsys.readouterr()
    assert main(["dump", str(shm)]) == 0
    out = capsys.readouterr().out
    assert "fault class=3 sev=HIGH pers=TRANSIENT" in out
    assert "detection detector=12 t=42 count=1 payload=0x1f" in out


def demo_copy(tmp_path, name: str, old: str, new: str) -> Path:
    """The demo data in tmp_path, with one line of `name` replaced."""
    work = tmp_path / "data"
    shutil.copytree(DEMO_DATA, work)
    path = work / name
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new))
    return work


@pytest.mark.parametrize("name, old, new, where", [
    ("board.scn", "duration 10000", "duration abc", "scenario line 3"),
    ("board.map", "child 1 12 -> 2", "child 1 x -> 2", "mapping line 4"),
])
def test_simulate_bad_integer_token_exits_1(tmp_path, capsys, name, old,
                                            new, where):
    work = demo_copy(tmp_path, name, old, new)
    assert main(["simulate", str(work / "board.scn")]) == 1
    err = capsys.readouterr().err
    assert where in err and "not an integer" in err


def test_simulate_mapping_error_names_its_file(tmp_path, capsys):
    work = demo_copy(tmp_path, "board.map", "child 1 12 -> 2",
                     "child 1 12 -> 2\nchild 4294967296 5 -> 2")
    assert main(["simulate", str(work / "board.scn")]) == 1
    assert capsys.readouterr().err == (
        f"error: {quote_path(work / 'board.map')}: mapping line 5: node id "
        "4294967296 outside 0..4294967295\n")


def test_simulate_description_error_names_its_file(tmp_path, capsys):
    work = demo_copy(tmp_path, "cpu.xml", 'criticality="LOW"',
                     'criticality="BOGUS"')
    assert main(["simulate", str(work / "board.scn")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {quote_path(work / 'cpu.xml')}: line ")
    assert "bad criticality value 'BOGUS'" in err


def test_simulate_path_holding_a_nul_byte_exits_1(tmp_path, capsys):
    work = demo_copy(tmp_path, "board.scn", "hm=cpu.xml", "hm=cpu\0.xml")
    path = str(work / "cpu\0.xml")
    assert main(["simulate", str(work / "board.scn")]) == 1
    assert capsys.readouterr().err == (
        f"error: {quote_path(path, repr)}: a path cannot hold a NUL byte\n")


@pytest.mark.parametrize("command", ["validate", "dump", "inject", "rm",
                                     "affinity", "prune"])
def test_image_path_holding_a_nul_byte_exits_1(tmp_path, capsys, command):
    tasks = tmp_path / "tasks.txt"
    tasks.write_text("task any maxSev=HIGH\n")
    extra = {"inject": ["--detector", "12", "--sev", "HIGH", "--class", "1",
                        "--t", "5"],
             "affinity": ["--tasks", str(tasks)]}.get(command, [])
    assert main([command, "a\0b.shm", *extra]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: 'a\\x00b.shm': a path cannot hold a NUL " \
        "byte\n"
    assert captured.out == ""


def test_output_path_holding_a_nul_byte_exits_1(tmp_path, capsys):
    target = tmp_path / "x\0.shm"
    assert main(["compile", str(DEMO_DATA / "cpu.xml"), "-o", str(target),
                 "--sym", str(tmp_path / "x.sym")]) == 1
    assert capsys.readouterr().err == (
        f"error: {quote_path(target, repr)}: a path cannot hold a NUL byte\n")
    assert list(tmp_path.iterdir()) == []   # no temp file, no sidecar


def test_simulate_out_dir_holding_a_nul_byte_exits_1(tmp_path, capsys):
    out = tmp_path / "o\0"
    assert main(["simulate", str(DEMO_DATA / "board.scn"), "--out",
                 str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {quote_path(out, repr)}: a path cannot hold a NUL byte\n")
    assert list(tmp_path.iterdir()) == []


def long_copy(tmp_path) -> Path:
    """The demo data and the compiled CPU image in a directory more than
    200 characters below `tmp_path`, nested since no one name may pass 255
    bytes."""
    work = tmp_path.joinpath(*["d" * 50] * 4, "data")
    shutil.copytree(DEMO_DATA, work)
    assert main(["compile", str(work / "cpu.xml"), "-o",
                 str(work / "cpu.shm")]) == 0
    return work


def long_path_case(work: Path, case: str) -> tuple[list[str], str, str]:
    """(argv, expected message, the path) of one long-path error."""
    if case == "NUL byte":
        path = "/" + "b" * 2999 + "\0"
        return (["rm", str(work / "cpu.shm"), "--sym", path],
                f"{quote_path(path, repr)}: a path cannot hold a NUL byte",
                path)
    if case == "not UTF-8":
        path = work / "cpu.sym"
        path.write_bytes(b"1 CPU\n\xff\n")
        return (["rm", str(work / "cpu.shm"), "--sym", str(path)],
                f"{quote_path(path)}: not UTF-8 text (byte 6)", path)
    if case == "node file":
        path = work / "board.map"
        path.write_text(path.read_text() + "child 4294967296 5 -> 2\n")
        return (["simulate", str(work / "board.scn")],
                f"{quote_path(path)}: mapping line 5: node id 4294967296 "
                f"outside 0..4294967295", path)
    path = work / "missing.shm"
    return (["validate", str(path)],
            f"[Errno 2] No such file or directory: {quote_path(path, repr)}",
            path)


@pytest.mark.parametrize("case", ["NUL byte", "not UTF-8", "node file",
                                  "missing"])
def test_long_path_is_quoted_by_its_tail(tmp_path, case):
    # a path longer than QUOTED_PATH_CHARS is quoted by its last
    # QUOTED_PATH_CHARS characters, which hold its file name, and its
    # length
    argv, message, path = long_path_case(long_copy(tmp_path), case)
    code, out, err = cli_outcome(argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")
    assert len(err) <= 200
    assert f"{str(path)[-QUOTED_PATH_CHARS:]!r}"[1:-1] in err
    assert f" ({len(str(path))} characters)" in err


def test_simulate_past_the_emission_cap_exits_1(tmp_path, capsys):
    work = demo_copy(tmp_path, "board.scn", "duration 10000",
                     "duration 142949672960000")
    assert main(["simulate", str(work / "board.scn")]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: scenario makes 42884901888 summary "
                            "emissions, above the cap of 1000000\n")
    assert captured.out == ""


def test_simulate_event_after_the_duration_exits_1(tmp_path, capsys):
    # it would apply after the last emission, so no log would show it
    work = demo_copy(tmp_path, "board.scn", "at 1000 node 1", "at 10001 node 1")
    out = tmp_path / "out"
    assert main(["simulate", str(work / "board.scn"), "--out", str(out)]) == 1
    assert tuple(capsys.readouterr()) == (
        "", "error: event at 10001 µs is after the duration of 10000 µs\n")
    assert not out.exists()


def test_rm_sidecar_repeating_an_id_exits_1(compiled, tmp_path, capsys):
    shm, _sym = compiled
    sym = tmp_path / "twice.sym"
    sym.write_text("".join(f"{i} {n}{i}\n" for n in "MN" for i in range(8000)))
    assert main(["rm", str(shm), "--sym", str(sym)]) == 1
    assert capsys.readouterr().err == (
        "error: sidecar line 8001: duplicate module id 0\n")


def test_prune_merges_under_the_counter_ceiling(compiled, capsys):
    # counters 2**32 - 1, 1 and 1 of one detector: the last two merge
    shm, _sym = compiled
    hm = deserialize(shm.read_bytes())
    fault = hm.add_fault(hm.diag_resources[12].owner.id, Severity.LOW,
                         Persistence.TRANSIENT, 1)
    for counter in (2**32 - 1, 1, 1):
        hm.add_detection(fault, 12, 100, counter=counter)
    shm.write_bytes(serialize(hm))
    capsys.readouterr()
    assert main(["prune", str(shm)]) == 0
    assert "merged 1 records" in capsys.readouterr().out
    assert main(["validate", str(shm)]) == 0
    assert [d.counter for d in deserialize(shm.read_bytes()).detections] \
        == [2**32 - 1, 2]


def test_rm_bad_sidecar_integer_exits_1(compiled, tmp_path, capsys):
    shm, _sym = compiled
    sym = tmp_path / "bad.sym"
    sym.write_text("1 CPU\nx B\n")
    assert main(["rm", str(shm), "--sym", str(sym)]) == 1
    err = capsys.readouterr().err
    assert "sidecar line 2" in err and "not an integer" in err


@pytest.mark.parametrize("node", ["4294967296", "-1"])
def test_simulate_node_id_outside_u32_exits_1(tmp_path, capsys, node):
    # the summary header stores the node id in four bytes
    work = demo_copy(tmp_path, "board.scn", "node 1 ", f"node {node} ")
    assert main(["simulate", str(work / "board.scn")]) == 1
    assert (f"scenario line 5: node id {node} outside 0..4294967295"
            in capsys.readouterr().err)


def test_simulate_unknown_parent_of_a_later_node_exits_1(tmp_path, capsys):
    scn = tmp_path / "run.scn"
    scn.write_text("duration 10\n"
                   "node 1 hm=a.xml map=none period=5 parent=2\n"
                   "node 2 hm=a.xml map=none period=5 parent=99\n")
    assert main(["simulate", str(scn)]) == 1
    assert "node 2 references unknown parent 99" in capsys.readouterr().err


def test_affinity_negative_sidecar_core_id_exits_1(compiled, tmp_path,
                                                    capsys):
    shm, sym = compiled
    bad = tmp_path / "bad.sym"
    bad.write_text(sym.read_text().replace("core=0", "core=-1"))
    tasks = tmp_path / "tasks.txt"
    tasks.write_text("task any\n")
    assert main(["affinity", str(shm), "--tasks", str(tasks),
                 "--sym", str(bad)]) == 1
    assert ("sidecar line 2: core id -1 outside 0..4294967295"
            in capsys.readouterr().err)


@pytest.mark.parametrize("core", ["8192", "4294967295"])
def test_affinity_core_id_above_cap_exits_1_in_little_memory(
        compiled, tmp_path, capsys, core):
    shm, sym = compiled
    bad = tmp_path / "bad.sym"
    bad.write_text(sym.read_text().replace("core=0", f"core={core}"))
    tasks = tmp_path / "tasks.txt"
    tasks.write_text("task any\n")
    tracemalloc.start()
    try:
        code = main(["affinity", str(shm), "--tasks", str(tasks),
                     "--sym", str(bad)])
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1
    assert f"module 10: core id {core} above 8191" in capsys.readouterr().err
    assert peak < 1 << 20


TEMPLATE_XML = ('<healthmap version="1"><template name="t" count="{count}" '
                'baseId="0" idStride="1">{body}</template></healthmap>')
ONE_MODULE = '<module id="0" name="M{i}" criticality="LOW"/>'


@pytest.mark.parametrize("count, body, error", [
    ("4294967295", ONE_MODULE, "line 1: template count 4294967295 above "
     "65535"),
    ("10000000", "", "line 1: template count 10000000 above 65535"),
    ("65535", ONE_MODULE * 2, "line 1: template takes the declared "
     "modules to 131070, above 65535"),
], ids=["count-u32-max", "empty", "instances-past-u16"])
def test_compile_template_past_the_header_counts_exits_1_in_little_memory(
        tmp_path, capsys, count, body, error):
    # refused at the template's line, before any instance is expanded
    xml = tmp_path / "big.xml"
    xml.write_text(TEMPLATE_XML.format(count=count, body=body))
    out = tmp_path / "big.shm"
    tracemalloc.start()
    try:
        code = main(["compile", str(xml), "-o", str(out)])
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not out.exists()
    assert peak < 1 << 20


def test_affinity_core_id_at_cap_gets_its_bit(compiled, tmp_path, capsys):
    shm, sym = compiled
    top = tmp_path / "top.sym"
    top.write_text(sym.read_text().replace("core=0", "core=8191"))
    tasks = tmp_path / "tasks.txt"
    tasks.write_text("task any\n")
    assert main(["affinity", str(shm), "--tasks", str(tasks),
                 "--sym", str(top)]) == 0
    assert capsys.readouterr().out == f"any 0x{(1 << 8191) | 0b1110:x}\n"


def test_compile_and_validate_three_thousand_deep_nest(tmp_path, capsys):
    xml = tmp_path / "deep.xml"
    xml.write_text(f'<healthmap version="1">{nest_xml(3_000)}</healthmap>')
    shm, sym = tmp_path / "deep.shm", tmp_path / "deep.sym"
    assert main(["compile", str(xml), "-o", str(shm), "--sym", str(sym)]) == 0
    assert main(["validate", str(shm)]) == 0
    assert "valid (3000 modules" in capsys.readouterr().out
    # hang the root under the deepest module: one 3 000-module cycle
    image = bytearray(shm.read_bytes())
    struct.pack_into("<I", image, HEADER_SIZE + 4,
                     HEADER_SIZE + MODULE_SIZE * 2_999)
    shm.write_bytes(restamp(image))
    for argv in (["validate"], ["rm", "--sym", str(sym)], ["dump"]):
        assert main([argv[0], str(shm), *argv[1:]]) == 1
        assert capsys.readouterr().err == (
            "error: parent chain of module 0: cycle through module 0\n")


def two_module_image() -> tuple[bytes, HealthMap]:
    """The image of module 2 under module 1, with a fault on module 2 that
    diag resource 10 detected once, and its loaded map."""
    hm = HealthMap()
    hm.add_module(1)
    hm.add_module(2, 1, Severity.LOW)
    hm.add_diag_resource(10, 2)
    hm.add_fault_with_detection(2, Severity.HIGH, Persistence.TRANSIENT, 1,
                                10, 5)
    image = serialize(hm)
    return image, deserialize(image)


# each breaks one structural rule: (record, where in it, bytes written
# there, the error); the image's CRCs are stamped again. Module 2 is at 57.
BROKEN_RULES = {
    "parent cycle": ("module 1", 4, struct.pack("<I", 57),
                     "parent chain of module 1: cycle through module 1"),
    "fault severity ZERO": ("fault", 8, b"\0", "invalid severity value 0"),
    "fault persistence ZERO": ("fault", 9, b"\0",
                               "invalid persistence value 0"),
    "detection counter 0": ("detection", 16, bytes(4),
                            "detection at 107 has counter 0"),
}


@pytest.mark.parametrize("command", ["validate", "dump", "rm", "affinity",
                                     "inject", "prune"])
@pytest.mark.parametrize("rule", list(BROKEN_RULES))
def test_every_command_rejects_an_image_that_breaks_a_rule(tmp_path, capsys,
                                                          rule, command):
    image, hm = two_module_image()
    offsets = {"module 1": hm.modules[1].shm_offset,
               "module 2": hm.modules[2].shm_offset,
               "fault": hm.faults[0].shm_offset,
               "detection": hm.detections[0].shm_offset}
    assert list(offsets.values()) == [32, 57, 95, 107]
    record, field, value, error = BROKEN_RULES[rule]
    at = offsets[record] + field
    broken = bytearray(image)
    broken[at:at + len(value)] = value
    broken = restamp(broken)
    shm, tasks = tmp_path / "map.shm", tmp_path / "tasks.txt"
    shm.write_bytes(broken)
    tasks.write_text("task any\n")
    files_before = sorted(tmp_path.iterdir())
    options = {"affinity": ["--tasks", str(tasks)],
               "inject": ["--detector", "10", "--sev", "LOW", "--class", "1",
                          "--t", "9"]}.get(command, [])
    assert main([command, str(shm), *options]) == 1
    assert capsys.readouterr().err == f"error: {error}\n"
    assert shm.read_bytes() == broken
    assert sorted(tmp_path.iterdir()) == files_before


def test_simulate_bad_report_names_its_line(tmp_path, capsys):
    work = demo_copy(tmp_path, "board.scn", "class=1", "class=300")
    assert main(["simulate", str(work / "board.scn")]) == 1
    assert ("scenario line 6: fault classification 300 outside 0..255"
            in capsys.readouterr().err)


@pytest.mark.parametrize("payload", ["1x2", "x"])
def test_simulate_payload_not_hex_names_its_line(tmp_path, capsys, payload):
    work = demo_copy(tmp_path, "board.scn", "class=1",
                     f"class=1 payload={payload}")
    assert main(["simulate", str(work / "board.scn")]) == 1
    assert capsys.readouterr().err.startswith(
        "error: scenario line 6: bad detection report line")


def test_simulate_reads_report_fields_as_inject_flags(tmp_path, capsys):
    work = demo_copy(tmp_path, "board.scn", "detect 12 sev=HIGH class=1",
                     "detect 1_2 sev=HIGH class=+1 payload=1_f")
    assert main(["simulate", str(work / "board.scn")]) == 0
    out = capsys.readouterr().out
    assert main(["simulate", str(DEMO_DATA / "board.scn")]) == 0
    assert capsys.readouterr().out == out


def test_simulate_detector_outside_u32_names_its_line(tmp_path, capsys):
    work = demo_copy(tmp_path, "board.scn", "detect 12", "detect 4294967296")
    assert main(["simulate", str(work / "board.scn")]) == 1
    assert capsys.readouterr().err == (
        "error: scenario line 6: detector id 4294967296 outside "
        "0..4294967295\n")


# (command, the demo file given a trailing 0xff byte); each command reads
# that file as text
NON_UTF8_INPUTS = [
    ("compile", "cpu.xml"),
    ("rm", "cpu.sym"),
    ("dump", "cpu.sym"),
    ("affinity", "cpu.sym"),
    ("affinity", "tasks.txt"),
    ("simulate", "board.scn"),
    ("simulate", "board.xml"),
    ("simulate", "board.map"),
]


@pytest.mark.parametrize("command, name", NON_UTF8_INPUTS)
def test_non_utf8_text_input_exits_1(tmp_path, capsys, command, name):
    work = tmp_path / "data"
    shutil.copytree(DEMO_DATA, work)
    shm, sym = work / "cpu.shm", work / "cpu.sym"
    assert main(["compile", str(work / "cpu.xml"), "-o", str(shm),
                 "--sym", str(sym)]) == 0
    capsys.readouterr()
    bad = work / name
    bad.write_bytes(bad.read_bytes() + b"\xff")
    before = {path: path.read_bytes() for path in work.iterdir()}
    argv = {
        "compile": [str(work / "cpu.xml"), "-o", str(work / "new.shm"),
                    "--sym", str(work / "new.sym")],
        "rm": [str(shm), "--sym", str(sym)],
        "dump": [str(shm), "--sym", str(sym)],
        "affinity": [str(shm), "--tasks", str(work / "tasks.txt"),
                     "--sym", str(sym)],
        "simulate": [str(work / "board.scn"), "--out", str(work / "out")],
    }[command]
    assert main([command, *argv]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {bad}: not UTF-8 text")
    assert captured.out == ""
    assert {path: path.read_bytes() for path in work.iterdir()} == before


@pytest.mark.parametrize("body, error", [
    ('<module id="4294967296" name="CPU" criticality="ZERO"/>',
     "module id 4294967296 outside 0..4294967295"),
    ('<module id="1" name="CPU" criticality="ZERO">'
     '<instrument id="4294967296" kind="0"/></module>',
     "diag resource id 4294967296 outside 0..4294967295"),
    # template expansion reaches 4294967290 + 1 * 10
    ('<module id="1" name="CPU" criticality="ZERO">'
     '<template name="cores" count="2" baseId="4294967290" idStride="10">'
     '<module id="0" name="C{i}" criticality="LOW"/></template></module>',
     "module id 4294967300 outside 0..4294967295"),
    # the image stores an instrument kind in one byte
    ('<module id="1" name="CPU" criticality="ZERO">'
     '<instrument id="1" kind="300"/></module>',
     "diag resource kind 300 outside 0..255"),
    # the sidecar's core ids are u32, as the schema declares
    ('<module id="1" name="CPU" criticality="ZERO" coreId="4294967296"/>',
     "core id 4294967296 outside 0..4294967295"),
], ids=["module", "instrument", "template", "kind", "core"])
def test_compile_id_outside_u32_exits_1(tmp_path, capsys, body, error):
    xml = tmp_path / "big.xml"
    xml.write_text(f'<healthmap version="1">{body}</healthmap>')
    out = tmp_path / "big.shm"
    assert main(["compile", str(xml), "-o", str(out)]) == 1
    assert error in capsys.readouterr().err
    assert not out.exists()


def rm_statuses(out: str) -> dict[str, str]:
    return {line.split()[0]: line.split(None, 3)[3]
            for line in out.splitlines()[1:]}


def test_main_calls_share_no_state(compiled, capsys):
    shm, sym = compiled
    assert main(["rm", str(shm), "--sym", str(sym),
                 "--maintenance", "CPU.C3"]) == 0
    assert rm_statuses(capsys.readouterr().out)["CPU.C3"] == "MAINTENANCE"
    # a second call in the same process marks only what it names
    assert main(["rm", str(shm), "--sym", str(sym),
                 "--maintenance", "CPU.C1"]) == 0
    statuses = rm_statuses(capsys.readouterr().out)
    assert statuses["CPU.C1"] == statuses["CPU.C1.FPU"] == "MAINTENANCE"
    assert statuses["CPU.C3"] == statuses["CPU.C3.FPU"] == "AVAILABLE"
    assert main(["rm", str(shm), "--sym", str(sym)]) == 0
    assert "MAINTENANCE" not in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["rm"])
    assert exc.value.code == 2


# the inject chain of demo/data/inject_chain.txt, which demo/inject_chain.sh
# runs through `hm`: its final image, `hm rm`, `hm affinity` and `hm dump`
# output are pinned in tests/golden.py
def test_inject_chain_golden_digests(tmp_path, capsys):
    shm, sym = tmp_path / "cpu.shm", tmp_path / "cpu.sym"
    assert main(["compile", str(DEMO_DATA / "cpu.xml"), "-o", str(shm),
                 "--sym", str(sym)]) == 0
    chain = (DEMO_DATA / "inject_chain.txt").read_text().splitlines()
    calls = [line.split() for line in chain if not line.startswith("#")]
    assert len(calls) == 22
    for options in calls:
        assert main(["inject", str(shm), *options]) == 0
    outs = [shm.read_bytes()]
    capsys.readouterr()
    assert main(["rm", str(shm), "--sym", str(sym),
                 "--maintenance", "CPU.C3"]) == 0
    outs.append(capsys.readouterr().out.encode())
    assert main(["affinity", str(shm), "--tasks",
                 str(DEMO_DATA / "tasks.txt"), "--sym", str(sym),
                 "--maintenance", "CPU.C3"]) == 0
    outs.append(capsys.readouterr().out.encode())
    assert tuple(hashlib.sha256(out).hexdigest()
                 for out in outs) == golden.CHAIN
    assert main(["dump", str(shm), "--sym", str(sym)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() \
        == golden.CHAIN_DUMP


def chain_views(shm: Path, sym: Path, capsys) -> list[bytes]:
    """`hm rm` and `hm affinity` stdout, with CPU.C3 under maintenance."""
    capsys.readouterr()
    outs = []
    for argv in (["rm", str(shm), "--sym", str(sym)],
                 ["affinity", str(shm), "--tasks",
                  str(DEMO_DATA / "tasks.txt"), "--sym", str(sym)]):
        assert main([*argv, "--maintenance", "CPU.C3"]) == 0
        outs.append(capsys.readouterr().out.encode())
    return outs


def test_inject_chain_and_prune_load_by_the_column_proof(tmp_path, capsys):
    # with the detection-list walker patched to fail, every image of the
    # chain must load through the column proof; `hm prune` then keeps both
    # views (criterion 6 at the CLI, as `ci/checks.py prune` checks with hm)
    shm, sym = tmp_path / "cpu.shm", tmp_path / "cpu.sym"
    walker = AssertionError("the detection-list walker ran")
    with mock.patch.object(codec._Reader, "_check_dynamic",
                           side_effect=walker):
        assert main(["compile", str(DEMO_DATA / "cpu.xml"), "-o", str(shm),
                     "--sym", str(sym)]) == 0
        for line in (DEMO_DATA / "inject_chain.txt").read_text().splitlines():
            if not line.startswith("#"):
                assert main(["inject", str(shm), *line.split()]) == 0
        assert hashlib.sha256(shm.read_bytes()).hexdigest() == golden.CHAIN[0]
        views = chain_views(shm, sym, capsys)
        assert [hashlib.sha256(out).hexdigest()
                for out in views] == list(golden.CHAIN[1:])
        assert main(["prune", str(shm)]) == 0
        assert "merged 4 records" in capsys.readouterr().out
        assert main(["validate", str(shm)]) == 0
        assert chain_views(shm, sym, capsys) == views


def test_library_tour_output_is_pinned(capsys):
    # `python demo/library_tour.py` stdout, pinned in tests/golden.py
    tour = runpy.run_path(str(DEMO_DATA.parent / "library_tour.py"))
    capsys.readouterr()
    tour["main"]()
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() \
        == golden.LIBRARY_TOUR


def test_every_public_name_resolves():
    assert len(set(healthmap.__all__)) == len(healthmap.__all__)
    assert [name for name in healthmap.__all__
            if not hasattr(healthmap, name)] == []


# -- parser surface -----------------------------------------------------------
# `main` parses a command line with the parser of the subcommand it names
# alone, which reports every usage error, leftover arguments included, under
# that subcommand's usage; a line that names no subcommand goes to the `hm`
# listing parser.

SURFACE_CALLS = {
    "compile": ["compile", "table1.xml", "-o", "new.shm", "--sym", "new.sym"],
    "validate": ["validate", "table1.shm"],
    "dump": ["dump", "table1.shm", "--sym", "table1.sym"],
    "inject": ["inject", "table1.shm", "--detector", "12", "--sev", "HIGH",
               "--class", "1", "--t", "1000", "--payload", "ff"],
    "rm": ["rm", "table1.shm", "--sym", "table1.sym",
           "--maintenance", "CPU.C3"],
    "affinity": ["affinity", "table1.shm", "--tasks", "tasks.txt",
                 "--sym", "table1.sym"],
    "prune": ["prune", "table1.shm"],
    "estimate": ["estimate", "--cores", "8"],
    "simulate": ["simulate", "board.scn"],
}


def surface_argvs(command):
    """A valid call, help, missing arguments, a bad --sev choice, a bad
    --payload value and an extra positional; [], -h and an unknown
    command for no command."""
    if command is None:
        return [[], ["-h"], ["bogus"]]
    call = SURFACE_CALLS[command]
    return [call, [command, "-h"], [command], call + ["--sev", "NONE"],
            call + ["--payload", "xyz"], call + ["extra"]]


def cli_outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# the first usage line of each parser, as `hm` and `hm NAME -h` print it
USAGE_LINES = {
    None: "usage: hm [-h]",
    "compile": "usage: hm compile [-h] -o OUTPUT [--sym SYM] xml",
    "validate": "usage: hm validate [-h] shm",
    "dump": "usage: hm dump [-h] [--sym SYM] shm",
    "inject": "usage: hm inject [-h] --detector DETECTOR --sev "
              "{LOW,MEDIUM,HIGH} --class",
    "rm": "usage: hm rm [-h] [--sym SYM] [--maintenance MODULE] shm",
    "affinity": "usage: hm affinity [-h] --tasks TASKS [--sym SYM] "
                "[--maintenance MODULE] shm",
    "prune": "usage: hm prune [-h] shm",
    "estimate": "usage: hm estimate [-h] --cores CORES",
    "simulate": "usage: hm simulate [-h] [--out OUT] scenario",
}


def expected_surface(command):
    """(exit code, first usage line or None) of each line `surface_argvs`
    gives, in its order. A refused value (`bogus` as a command, `inject`'s
    bad --sev and --payload) gets argparse's message without the usage."""
    usage = USAGE_LINES[command]
    if command is None:
        return [(2, usage), (0, usage), (2, None)]
    bad_value = None if command == "inject" else usage
    return [(0, None), (0, usage), (2, usage), (2, bad_value), (2, bad_value),
            (2, usage)]


@pytest.mark.parametrize("command", [None, *SURFACE_CALLS])
def test_each_surface_line_ends_on_one_parser(tmp_path, monkeypatch,
                                              command):
    template = tmp_path / "template"
    shutil.copytree(DEMO_DATA, template)
    shutil.copy(DATA_DIR / "table1.xml", template)
    image, sidecar = compile_xml((DATA_DIR / "table1.xml").read_text())
    (template / "table1.shm").write_bytes(image)
    (template / "table1.sym").write_text(sidecar.format())
    prog = "hm" if command is None else f"hm {command}"
    for i, (argv, expected) in enumerate(zip(surface_argvs(command),
                                             expected_surface(command))):
        work = tmp_path / str(i)
        shutil.copytree(template, work)
        monkeypatch.chdir(work)
        code, out, err = cli_outcome(argv)
        usage = next((line for line in (out + err).splitlines()
                      if line.startswith("usage: ")), None)
        assert (code, usage) == expected, argv
        if code == 2:
            assert out == "", argv
            assert err.splitlines()[-1].startswith(f"{prog}: error: "), argv


def test_option_before_the_subcommand_is_left_over():
    # the listing parser knows no option but -h, so it leaves `--x`, and
    # with the subcommand named, every argument after it
    code, out, err = cli_outcome(["--x", "validate", "img"])
    assert (code, out) == (2, "")
    assert err.startswith(USAGE_LINES[None] + "\n")
    assert err.endswith("hm: error: unrecognized arguments: --x img\n")


def test_cached_parsers_carry_nothing_from_one_call_to_the_next(compiled,
                                                                capsys):
    # each parser is built once per process, so one call's options, and a
    # usage error, must not reach the next call
    shm, sym = compiled
    assert cli.build_parser("rm") is cli.build_parser("rm")
    assert cli.build_parser() is cli.build_parser()
    rm = ["rm", str(shm), "--sym", str(sym)]
    assert main(rm) == 0
    plain = capsys.readouterr().out
    assert "MAINTENANCE" not in plain
    assert main(rm + ["--maintenance", "CPU.C3"]) == 0
    assert "MAINTENANCE" in capsys.readouterr().out
    assert main(rm) == 0
    assert capsys.readouterr().out == plain
    # a usage error on a subcommand's parser or the listing parser, then a
    # valid call
    for bad in (["inject", str(shm), "--detector", "12"], rm + ["extra"],
                ["bogus"]):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
        capsys.readouterr()
        assert main(rm) == 0
        assert capsys.readouterr().out == plain
    inject = ["inject", str(shm), "--detector", "12", "--sev", "HIGH",
              "--t", "1000"]
    assert main(inject + ["--class", "1", "--payload", "ff"]) == 0
    assert main(inject + ["--class", "2"]) == 0
    payloads = {f.classification: [d.payload for d in f.detections]
                for f in deserialize(shm.read_bytes()).faults}
    assert payloads == {1: [0xFF], 2: [0]}


# Every option given `--` as its attached value is a usage error on every
# Python version: argparse up to 3.12 reads that `--` as an empty list, which
# a command would then misread or crash on.

# (command, option name as argparse gives it, the option's token with `--`)
ATTACHED_DASHES = [
    (command, "/".join(flags), f"{flags[-1]}=--")
    for command, (_func, _help, arguments) in cli._COMMANDS.items()
    for flags, _options in arguments if flags[0].startswith("-")
] + [("compile", "-o/--output", "-o--")]


@pytest.mark.parametrize("command, name, token", ATTACHED_DASHES)
def test_option_given_attached_double_dash_is_usage_error(
        tmp_path, monkeypatch, command, name, token):
    shutil.copytree(DEMO_DATA, tmp_path, dirs_exist_ok=True)
    shutil.copy(DATA_DIR / "table1.xml", tmp_path)
    image, sidecar = compile_xml((DATA_DIR / "table1.xml").read_text())
    (tmp_path / "table1.shm").write_bytes(image)
    (tmp_path / "table1.sym").write_text(sidecar.format())
    monkeypatch.chdir(tmp_path)
    before = {path: path.read_bytes() for path in tmp_path.rglob("*")
              if path.is_file()}
    code, out, err = cli_outcome(SURFACE_CALLS[command] + [token])
    assert (code, out) == (2, "")
    assert err.endswith(f"error: argument {name}: expected one argument\n")
    assert {path: path.read_bytes() for path in tmp_path.rglob("*")
            if path.is_file()} == before


# -- garbage collection -------------------------------------------------------
# `main` pauses automatic collection while a command runs and gives the
# caller back the setting it had.

def collections_inside_main(argv):
    """(exit code, generations of the collector passes that started while a
    frame of `cli.main` was on the stack) of `main(argv)`."""
    passes = []

    def probe(phase, info):
        if phase != "start":
            return
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not cli.main.__code__:
            frame = frame.f_back
        if frame is not None:
            passes.append(info["generation"])

    gc.callbacks.append(probe)
    try:
        code = main(argv)
    finally:
        gc.callbacks.remove(probe)
    return code, passes


def test_no_collection_pass_inside_main(tmp_path, capsys):
    # the demo commands build too few records to start a pass; a whole load
    # of the 8-core image starts several without the pause
    shm, sym = tmp_path / "cpu.shm", tmp_path / "cpu.sym"
    assert main(["compile", str(DEMO_DATA / "cpu.xml"), "-o", str(shm),
                 "--sym", str(sym)]) == 0
    soc = tmp_path / "soc.shm"
    soc.write_bytes(serialize(footprint.synthesize_map(8)))
    chain = (DEMO_DATA / "inject_chain.txt").read_text().splitlines()
    injects = [["inject", str(shm), *line.split()] for line in chain
               if not line.startswith("#")]
    for argv in [*injects,
                 ["rm", str(shm), "--sym", str(sym), "--maintenance",
                  "CPU.C3"],
                 ["simulate", str(DEMO_DATA / "board.scn")],
                 ["dump", str(soc)], ["prune", str(soc)],
                 ["validate", str(soc)]]:
        assert collections_inside_main(argv) == (0, []), argv
    capsys.readouterr()


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("argv, code", [
    (["estimate", "--cores", "8"], 0),
    (["validate", "missing.shm"], 1),
    (["inject"], 2),
])
def test_main_restores_collector_state(tmp_path, monkeypatch, capsys,
                                       enabled, argv, code):
    monkeypatch.chdir(tmp_path)
    (gc.enable if enabled else gc.disable)()
    try:
        try:
            assert main(argv) == code
        except SystemExit as exc:
            assert exc.code == code
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


@pytest.mark.parametrize("enabled", [True, False])
def test_main_restores_collector_state_on_exception(monkeypatch, enabled):
    def fail(cores):
        raise RuntimeError("boom")

    monkeypatch.setattr(footprint, "estimate", fail)
    (gc.enable if enabled else gc.disable)()
    try:
        with pytest.raises(RuntimeError):
            main(["estimate", "--cores", "8"])
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


# -- a finished command leaves nothing for the collector ----------------------
# Each map a command builds frees itself when the command drops it
# (`HealthMap.__del__`), so once the command's parser is built a run leaves
# no cyclic garbage: on the demo CPU image grown by the inject chain, and
# on the image of `synthesize_map(8)`.

FREED_CALLS = {
    "compile": ["compile", "DATA/cpu.xml", "-o", "WORK/new.shm",
                "--sym", "WORK/new.sym"],
    "validate": ["validate", "WORK/cpu.shm"],
    "dump": ["dump", "WORK/cpu.shm", "--sym", "WORK/cpu.sym"],
    "inject": ["inject", "WORK/cpu.shm", "--detector", "22", "--sev", "HIGH",
               "--class", "1", "--t", "9000000"],
    "rm": ["rm", "WORK/cpu.shm", "--sym", "WORK/cpu.sym",
           "--maintenance", "CPU.C3"],
    "affinity": ["affinity", "WORK/cpu.shm", "--tasks", "DATA/tasks.txt",
                 "--sym", "WORK/cpu.sym"],
    "prune": ["prune", "WORK/cpu.shm"],
    "estimate": ["estimate", "--cores", "8"],
    "simulate": ["simulate", "DATA/board.scn", "--out", "WORK/out"],
    "validate soc": ["validate", "WORK/soc.shm"],
    "dump soc": ["dump", "WORK/soc.shm"],
    "inject soc": ["inject", "WORK/soc.shm", "--detector", "7", "--sev",
                   "LOW", "--class", "2", "--t", "1"],
    "rm soc": ["rm", "WORK/soc.shm", "--maintenance", "11"],
    "prune soc": ["prune", "WORK/soc.shm"],
}


@pytest.mark.parametrize("call", FREED_CALLS)
def test_a_finished_command_leaves_no_cyclic_garbage(tmp_path, capsys,
                                                     paused_collector, call):
    image, sidecar = compile_xml((DEMO_DATA / "cpu.xml").read_text())
    (tmp_path / "cpu.shm").write_bytes(image)
    (tmp_path / "cpu.sym").write_text(sidecar.format())
    (tmp_path / "soc.shm").write_bytes(serialize(footprint.synthesize_map(8)))
    for line in (DEMO_DATA / "inject_chain.txt").read_text().splitlines():
        if line and not line.startswith("#"):
            assert main(["inject", str(tmp_path / "cpu.shm"),
                         *line.split()]) == 0
    argv = [arg.replace("WORK", str(tmp_path)).replace("DATA", str(DEMO_DATA))
            for arg in FREED_CALLS[call]]
    cli.build_parser(argv[0])
    gc.collect()
    assert main(argv) == 0
    assert gc.collect() == 0
    capsys.readouterr()


# -- the `hm inject` slice of the hostile-input gate --------------------------
# `cli.main(["inject", …])` in-process on mutated images with drawn argument
# values: every run ends in exit 0, 1 or 2 with a short stderr and no temp
# file, and only exit 0 changes the image, to what the library writes.

# decimal tokens that int() reads, in and out of every field's range, and
# digit strings past the error quote and past int()'s digit limit
INT_TOKENS = st.one_of(
    st.integers(0, 300).map(str), st.sampled_from(["-1", "4294967296"]),
    st.integers(41, 5000).map(lambda n: "1" * n))
HEX_TOKENS = st.one_of(
    st.integers(0, 2**40).map("{:x}".format),
    st.integers(41, 3000).map(lambda n: "f" * n),
    st.integers(1, 3000).map(lambda n: "g" * n))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(base=st.integers(0, 4), mutate=st.booleans(), data=st.data())
def test_inject_on_hostile_images_and_arguments_ends_in_an_exit_code(
        base, mutate, data):
    image, hm = mutation_bases()[base]
    if mutate:
        image = mutated_image(data, image, hm)
    # values every field holds, or each one that or any token
    fits = data.draw(st.booleans(), label="fits")

    def draw(fitting, tokens, label):
        return data.draw(fitting if fits else st.one_of(fitting, tokens),
                         label=label)

    detector = draw(st.sampled_from(sorted(hm.diag_resources)).map(str),
                    INT_TOKENS, "detector")
    sev = data.draw(st.sampled_from(["LOW", "MEDIUM", "HIGH"]), label="sev")
    clazz = draw(st.integers(0, 255).map(str), INT_TOKENS, "class")
    t = draw(st.integers(0, 2**64 - 1).map(str), INT_TOKENS, "t")
    payload = draw(st.integers(0, 2**32 - 1).map("{:x}".format), HEX_TOKENS,
                   "payload")
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "image.shm"
        path.write_bytes(image)
        code, _out, err = cli_outcome([
            "inject", str(path), "--detector", detector, "--sev", sev,
            "--class", clazz, "--t", t, "--payload", payload])
        assert code in (0, 1, 2)
        assert len(err) <= 200, err
        assert os.listdir(work) == ["image.shm"]
        written = path.read_bytes()
    if code != 0:
        assert written == image
        return
    expected = deserialize(image)
    report_detection(expected, DetectionReport(
        int(detector), Severity[sev], int(clazz), int(t), int(payload, 16)))
    assert written == append_changes(image, expected)


# -- the whole-load slice of the hostile-input gate ---------------------------
# `hm validate`, `hm dump` and `hm prune` load the whole image: on mutated
# images each ends in exit 0 exactly when the reference reader accepts the
# image, else 1, with a short stderr and no temp file, and only an accepted
# `hm prune` changes the image, to what the library writes.

@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(base=st.integers(0, 4), mutate=st.booleans(),
       command=st.sampled_from(["validate", "dump", "prune"]), data=st.data())
def test_whole_loads_on_hostile_images_end_in_an_exit_code(base, mutate,
                                                           command, data):
    image, hm = mutation_bases()[base]
    if mutate:
        image = mutated_image(data, image, hm)
    try:
        expected = reference_deserialize(image)
    except HealthMapError:
        expected = None
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "image.shm"
        path.write_bytes(image)
        code, _out, err = cli_outcome([command, str(path)])
        assert code == (1 if expected is None else 0)
        assert len(err) <= 200 and "Traceback" not in err, err
        assert os.listdir(work) == ["image.shm"]
        written = path.read_bytes()
    if command != "prune" or expected is None:
        assert written == image
        return
    prune(expected)
    assert written == serialize(expected)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(base=st.integers(0, 4), mutate=st.booleans(), data=st.data())
def test_validate_prints_what_a_whole_load_gives(base, mutate, data):
    # `hm validate` runs the load's check only: its counts, error class,
    # message and first error are those of `deserialize`
    image, hm = mutation_bases()[base]
    if mutate:
        image = mutated_image(data, image, hm)
    try:
        loaded = deserialize(image)
    except HealthMapError as exc:
        with pytest.raises(HealthMapError) as checked:
            codec._check(image)
        assert type(checked.value) is type(exc)
        assert str(checked.value) == str(exc)
        expected = 1, "", f"error: {exc}\n"
    else:
        expected = 0, (f"IMAGE: valid ({len(loaded.modules)} modules, "
                       f"{len(loaded.faults)} faults, "
                       f"{len(loaded.detections)} detections)\n"), ""
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "image.shm"
        path.write_bytes(image)
        code, out, err = cli_outcome(["validate", str(path)])
    assert (code, out.replace(str(path), "IMAGE"), err) == expected


# -- the argument slice of `estimate`, `validate`, `dump` and `prune` ---------
# `cli.main` in-process with drawn argument values: core counts of any
# length, and paths that name an image, a mutated image, no file, a
# directory, a text file, a name too long for the file system or one with
# a NUL byte, and for `hm dump` sidecars of drawn lines. Every run ends in
# exit 0, 1 or 2 with a short stderr, no traceback and no temp file, and
# only an `hm prune` that exits 0 changes its file.

CORE_TOKENS = st.one_of(
    st.integers(-3, 1400).map(str), INT_TOKENS,
    st.sampled_from(["", "x", "0x10", "1_000", "+8", " 8", "1364", "1365"]),
    st.integers(4290, 4310).map(lambda n: "9" * n))
SIDECAR_LINES = st.one_of(
    st.sampled_from(["1 A", "2 B core=0", "1 A core=4294967296", "x A", "1",
                     "1 A nope=1", "1 A core=", "# comment", ""]),
    INT_TOKENS.map(lambda token: f"{token} N"),
    INT_TOKENS.map(lambda token: f"3 C core={token}"),
    st.integers(41, 3000).map(lambda n: "4 " + "n" * n),
    st.text(max_size=20))


@settings(max_examples=150, deadline=None)
@given(cores=CORE_TOKENS)
def test_estimate_with_drawn_core_counts_ends_in_an_exit_code(cores):
    code, out, err = cli_outcome(["estimate", "--cores", cores])
    assert code in (0, 1, 2)
    assert len(err) <= 200 and "Traceback" not in err, err
    if code == 0:
        assert out.startswith(f"Cores: {int(cores)}\n")


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(base=st.integers(0, 4), mutate=st.booleans(),
       command=st.sampled_from(["validate", "dump", "prune"]), data=st.data())
def test_loads_with_drawn_paths_end_in_an_exit_code(base, mutate, command,
                                                    data):
    image, hm = mutation_bases()[base]
    if mutate:
        image = mutated_image(data, image, hm)
    with tempfile.TemporaryDirectory() as work:
        files = {"image.shm": image, "notes.txt": b"1 A\n\xff\n"}
        if data.draw(st.booleans(), label="sidecar"):
            text = "\n".join(data.draw(st.lists(SIDECAR_LINES, max_size=4),
                                       label="lines"))
            files["image.sym"] = text.encode("utf-8", "surrogatepass")
        for name, content in files.items():
            (Path(work) / name).write_bytes(content)
        os.mkdir(Path(work) / "dir")

        def path(label, names):
            kind = data.draw(st.sampled_from(
                [*names, "missing", "dir", "long name", "long path", "nul"]),
                label=label)
            return str(Path(work) / {
                "long name": "n" * 300, "long path": "d/" * 2100 + "x",
                "nul": "image\0.shm"}.get(kind, kind))

        argv = [command, path("image", ["image.shm", "notes.txt"])]
        if command == "dump" and data.draw(st.booleans(), label="--sym"):
            argv += ["--sym", path("sidecar", [*files])]
        code, _out, err = cli_outcome(argv)
        assert code in (0, 1, 2)
        assert len(err) <= 200 and "Traceback" not in err, err
        assert sorted(os.listdir(work)) == sorted([*files, "dir"])
        changed = [name for name, content in files.items()
                   if (Path(work) / name).read_bytes() != content]
    if code or command != "prune":
        assert changed == []
    else:
        assert set(changed) <= {Path(argv[1]).name}


@functools.cache
def demo_image():
    return compile_xml((DEMO_DATA / "cpu.xml").read_text())


def tree_bytes(root: Path) -> dict[Path, bytes]:
    return {path: path.read_bytes() for path in root.rglob("*")
            if path.is_file()}


# The output paths of `compile` and `simulate`, and the input paths of `rm`
# and `affinity`, drawn as above, plus the same file named twice and an
# output directory whose rm.log is a directory. Every run ends in exit 0, 1
# or 2 with a short stderr, no traceback and no temp file; a nonzero exit
# leaves every file as it was, and exit 0 changes only the command's
# outputs.

@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(command=st.sampled_from(["compile", "simulate", "rm", "affinity"]),
       data=st.data())
def test_writes_with_drawn_paths_end_in_an_exit_code(command, data):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        shutil.copytree(DEMO_DATA, work, dirs_exist_ok=True)
        image, sidecar = demo_image()
        (work / "cpu.shm").write_bytes(image)
        (work / "cpu.sym").write_text(sidecar.format())
        (work / "old.shm").write_bytes(b"old image")
        (work / "old.sym").write_bytes(b"old sidecar")
        (work / "dir").mkdir()
        (work / "trap" / "rm.log").mkdir(parents=True)
        (work / "trap" / "messages.log").write_bytes(b"old log")
        before = tree_bytes(work)

        def path(label, names):
            kind = data.draw(st.sampled_from(
                [*names, "missing", "dir", "long name", "long path", "nul"]),
                label=label)
            return str(work / {
                "long name": "n" * 300, "long path": "d/" * 2100 + "x",
                "nul": "image\0.shm"}.get(kind, kind))

        outputs = []
        if command == "compile":
            outputs.append(path("-o", ["old.shm", "old.sym"]))
            argv = ["compile", str(work / "cpu.xml"), "-o", outputs[-1]]
            if data.draw(st.booleans(), label="--sym"):
                outputs.append(path("--sym", ["old.sym", "old.shm"]))
                argv += ["--sym", outputs[-1]]
        elif command == "simulate":
            out = path("--out", ["trap"])
            outputs += [str(Path(out) / "messages.log"),
                        str(Path(out) / "rm.log")]
            argv = ["simulate", str(work / "board.scn"), "--out", out]
        else:
            argv = [command, str(work / "cpu.shm")]
            inputs = ["cpu.sym", "tasks.txt", "cpu.shm"]
            if command == "affinity":
                argv += ["--tasks", path("--tasks", inputs[::-1])]
            if data.draw(st.booleans(), label="--sym"):
                argv += ["--sym", path("--sym", inputs)]
        code, _out, err = cli_outcome(argv)
        assert code in (0, 1, 2)
        assert len(err) <= 200 and "Traceback" not in err, err
        assert list(work.rglob("*.tmp")) == []
        after = tree_bytes(work)
    if code:
        assert after == before
    else:
        changed = {path for path in after if before.get(path) != after[path]}
        assert {str(path) for path in changed} <= set(outputs)


@pytest.mark.parametrize("argv, extra", [
    (["inject", "IMAGE", "--detector", "12", "--sev", "HIGH", "--class", "1",
      "--t", "1000"], ["x" * 3000]),
    (["rm", "IMAGE"], ["--bogus" + "x" * 3000]),
    (["rm", "IMAGE"], ["x"] * 2000),
    (["rm", "IMAGE"], ["x" * 19, "y" * 20]),
], ids=["inject", "rm", "many tokens", "40 characters"])
def test_unrecognized_long_line_is_quoted(compiled, argv, extra):
    # argparse would echo the tokens whole; a line of QUOTED_CHARS
    # characters or fewer keeps argparse's message, under the subcommand's
    # usage
    shm, _sym = compiled
    before = shm.read_bytes()
    prog = f"hm {argv[0]}"
    argv = [str(shm) if arg == "IMAGE" else arg for arg in argv]
    code, _out, err = cli_outcome(argv + extra)
    line = " ".join(extra)
    assert code == 2
    if len(line) > QUOTED_CHARS:
        assert err == (f"{prog}: error: unrecognized arguments: "
                       f"{quote_token(line)}\n")
        assert len(err) <= 200
    else:
        assert err.startswith(USAGE_LINES[argv[0]] + "\n")
        assert err.endswith(f"{prog}: error: unrecognized arguments: "
                            f"{line}\n")
    assert shm.read_bytes() == before


# -- drawn command lines ------------------------------------------------------
# Each subcommand's argv is drawn from its own arguments (`cli._COMMANDS`):
# a full call, then some of it dropped and the rest shuffled, with options
# repeated, written `--opt=value` or left without a value, and `--`,
# unknown options and extra positionals mixed in, each token up to 3 000
# characters. Every run ends in exit 0, 1 or 2 with no traceback and no
# temp file; what follows a usage error's usage block is at most 200
# characters (a usage block is fixed per command, and `hm inject`'s is
# 146), and an exit-2 run changes no file.

# a value each argument may take, named as its first flag or its name;
# some are refused by the parser, some by the command
ARGUMENT_VALUES = {
    "xml": ["cpu.xml", "board.scn"], "-o": ["out.shm", "cpu.shm"],
    "--sym": ["cpu.sym", "new.sym"], "shm": ["cpu.shm", "cpu.xml"],
    "--detector": ["1", "999"], "--sev": ["LOW", "HIGH", "NONE"],
    "--class": ["1", "300"], "--t": ["1000", "-1"],
    "--payload": ["ff", "xyz"], "--maintenance": ["CPU.C3", "1", "GHOST"],
    "--tasks": ["tasks.txt", "cpu.sym"], "--cores": ["8", "0"],
    "scenario": ["board.scn", "cpu.xml"], "--out": ["out", "cpu.shm"],
}
LONG_TOKENS = st.integers(1, 3000).flatmap(lambda n: st.sampled_from(
    ["x" * n, "--" + "x" * n, "9" * n, "x=" * (n // 2)]))
HOSTILE_VALUES = st.one_of(st.sampled_from(["--", "-", ""]), LONG_TOKENS)
STRAY_TOKENS = st.one_of(
    st.sampled_from(["--", "-", "", "--bogus", "-x", "=", "-h"]),
    LONG_TOKENS, st.text(max_size=20))


def drawn_argv(data, command) -> list[str]:
    arguments = [flags for flags, _options in cli._COMMANDS[command][2]]
    # a hostile line may give any argument a hostile value
    hostile = data.draw(st.booleans(), label="hostile")

    def item(flags, forms):
        values = st.sampled_from(ARGUMENT_VALUES[flags[0]])
        given = data.draw(st.one_of(values, HOSTILE_VALUES) if hostile
                          else values)
        if not flags[0].startswith("-"):
            return [given]
        flag = data.draw(st.sampled_from(flags))
        return {"apart": [flag, given], "joined": [f"{flag}={given}"],
                "bare": [flag]}[data.draw(st.sampled_from(forms))]

    # the full call, each argument kept 7 times in 8
    items = [item(flags, ["apart", "joined"]) for flags in arguments
             if data.draw(st.integers(0, 7))]
    for _ in range(data.draw(st.integers(0, 4))):
        if data.draw(st.booleans()):
            items.append([data.draw(STRAY_TOKENS)])
        else:
            items.append(item(data.draw(st.sampled_from(arguments)),
                              ["apart", "joined", "bare"]))
    order = data.draw(st.permutations(range(len(items))))
    return [command, *(token for i in order for token in items[i])]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(command=st.sampled_from(list(cli._COMMANDS)), data=st.data())
def test_drawn_command_lines_end_in_an_exit_code(command, data):
    argv = drawn_argv(data, command)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        shutil.copytree(DEMO_DATA, work, dirs_exist_ok=True)
        image, sidecar = demo_image()
        (work / "cpu.shm").write_bytes(image)
        (work / "cpu.sym").write_text(sidecar.format())
        before = tree_bytes(work)
        home = os.getcwd()
        os.chdir(work)
        try:
            code, _out, err = cli_outcome(argv)
        finally:
            os.chdir(home)
        assert code in (0, 1, 2)
        assert "Traceback" not in err, err
        usage = cli.build_parser(command).format_usage()
        assert len(err.removeprefix(usage)) <= 200, err
        assert list(work.rglob("*.tmp")) == []
        if code == 2:
            assert tree_bytes(work) == before


# -- text-input errors quote their tokens --------------------------------------
# Each site quotes a token, or a whole line, of a text input through
# `quote_token`: as `repr` up to QUOTED_CHARS characters, so a short token's
# message is what it always was, and beyond by its start and its length.
# TOKEN in a file or an argument stands for the token; the message is built
# from it.

AFFINITY = ["affinity", "t.shm", "--tasks", "tasks", "--sym", "t.sym"]
EVENT = "at 1000 node 1 detect 12 sev=HIGH class=1"
XML_MODULE = '<healthmap version="1">\n<module {}/>\n</healthmap>\n'
QUOTE_SITES = {
    "task line": (AFFINITY, "tasks", "task a TOKEN", lambda t: (
        f"task file line 1: bad syntax {quote_token('task a ' + t)}")),
    "needs": (AFFINITY, "tasks", "task a needs=TOKEN", lambda t: (
        f"task 'a': sub-module {quote_token(t)} resolves for no core")),
    "maxSev": (AFFINITY, "tasks", "task a maxSev=TOKEN", lambda t: (
        f"task file line 1: bad enum value {quote_token(t)}")),
    "sidecar line": (["rm", "t.shm", "--sym", "x.sym"], "x.sym",
                     "1 CPU x TOKEN", lambda t: (
        f"sidecar line 1: expected '<id> <name> [core=<n>]', got "
        f"{quote_token('1 CPU x ' + t)}")),
    "sidecar field": (["rm", "t.shm", "--sym", "x.sym"], "x.sym",
                      "1 CPU TOKEN", lambda t: (
        f"sidecar line 1: bad field {quote_token(t)}")),
    "mapping line": (["simulate", "board.scn"], "board.map",
                     ("child 1 12 -> 2", "bogus TOKEN"), lambda t: (
        f"board.map: mapping line 4: bad syntax "
        f"{quote_token('bogus ' + t)}")),
    "event line": (["simulate", "board.scn"], "board.scn",
                   (EVENT, "at TOKEN"), lambda t: (
        f"scenario line 6: bad event line {quote_token('at ' + t)}")),
    "detect line": (["simulate", "board.scn"], "board.scn",
                    (EVENT, "at 1000 node 1 detect TOKEN"), lambda t: (
        f"scenario line 6: bad detection report line: "
        f"{quote_token('detect ' + t)}")),
    "sev": (["simulate", "board.scn"], "board.scn",
            (EVENT, "at 1000 node 1 detect 12 sev=TOKEN class=1"),
            lambda t: (
        f"scenario line 6: bad severity {quote_token(t)} in: "
        f"{quote_token(f'detect 12 sev={t} class=1')}")),
    "hm path": (["simulate", "board.scn"], "board.scn",
                ("hm=cpu.xml", "hm=TOKEN"), lambda t: (
        f"[Errno 2] No such file or directory: {quote_path(t, repr)}"
        if len(t) < 256 else
        f"[Errno 36] File name too long: {quote_path(t, repr)}")),
    "XML integer": (["compile", "x.xml", "-o", "x.shm"], "x.xml",
                    XML_MODULE.format('id="TOKEN" name="A" criticality="LOW"'),
                    lambda t: (
        f"line 2: attribute id={quote_token(t)} is not an integer")),
    "XML negative": (["compile", "x.xml", "-o", "x.shm"], "x.xml",
                     XML_MODULE.format('id="-1TOKEN" name="A" '
                                       'criticality="LOW"'), lambda t: (
        f"line 2: attribute id={quote_token('-1' + t)} must be >= 0")),
    "XML severity": (["compile", "x.xml", "-o", "x.shm"], "x.xml",
                     XML_MODULE.format('id="1" name="A" criticality="TOKEN"'),
                     lambda t: (
        f"line 2: bad criticality value {quote_token(t)}")),
    "XML version": (["compile", "x.xml", "-o", "x.shm"], "x.xml",
                    '<healthmap version="TOKEN">\n</healthmap>\n', lambda t: (
        f"unsupported description version {quote_token(t)}")),
    "maintenance id": (["rm", "t.shm", "--sym", "t.sym", "--maintenance",
                        "TOKEN"], None, "", lambda t: (
        f"module id {quote_token(t)} outside 0..4294967295"
        if len(t) > QUOTED_CHARS else f"module {t} not found")),
    "XML name": (["compile", "x.xml", "-o", "x.shm"], "x.xml",
                 '<healthmap version="1">\n'
                 '<module id="1" name="TOKEN" criticality="LOW"/>\n'
                 '<module id="2" name="TOKEN" criticality="LOW"/>\n'
                 '</healthmap>\n', lambda t: (
        f"line 3: duplicate module name {quote_token(t)} "
        f"(also module id 1)")),
}


@pytest.mark.parametrize("length", [5, 3000])
@pytest.mark.parametrize("site", list(QUOTE_SITES))
def test_text_input_error_quotes_its_token(tmp_path, monkeypatch, site,
                                           length):
    argv, name, text, message = QUOTE_SITES[site]
    # digits where an integer is read, word characters elsewhere
    token = ("1" if site in ("XML negative", "maintenance id") else "B") \
        * length
    work = tmp_path / "data"
    shutil.copytree(DEMO_DATA, work)
    monkeypatch.chdir(work)
    assert main(["compile", str(DATA_DIR / "table1.xml"), "-o", "t.shm",
                 "--sym", "t.sym"]) == 0
    if isinstance(text, tuple):
        old, new = text
        text = Path(name).read_text()
        assert old in text
        text = text.replace(old, new)
    if name is not None:
        Path(name).write_text(text.replace("TOKEN", token) + "\n")
    code, out, err = cli_outcome([arg.replace("TOKEN", token)
                                  for arg in argv])
    assert (code, out) == (1, "")
    assert err == f"error: {message(token)}\n"
    assert len(err) <= 200
    assert (token in err) == (length <= QUOTED_CHARS)


# -- the `hm rm` / `hm affinity` slice of the hostile-input gate --------------
# `cli.main(["rm" | "affinity", …])` in-process on the table1 image with a
# mutated sidecar, task file and maintenance list: every run ends in exit 0,
# 1 or 2 with a short stderr and no traceback, and no file is left behind or
# changed.

@functools.lru_cache(maxsize=None)
def table1_files() -> tuple[bytes, str]:
    image, sidecar = compile_xml((DATA_DIR / "table1.xml").read_text())
    return image, sidecar.format()


TEXT_TOKENS = st.one_of(
    INT_TOKENS,
    st.sampled_from(["CPU", "CPU.C0", "CPU.C0.FPU", "FPU", "C{i}", "task",
                     "needs=FPU", "needs=FPU,X", "maxSev=HIGH", "maxSev=ZERO",
                     "maxPers=PERMANENT", "maxSev=", "core=0", "core=-1",
                     "core=8191", "core=8192", "core=", "#", "=", ",", "."]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
    st.integers(41, 3000).map(lambda n: "F" * n),
    st.integers(41, 3000).map(lambda n: "maxSev=" + "H" * n),
    st.integers(41, 3000).map(lambda n: "needs=" + "F" * n),
    st.integers(41, 3000).map(lambda n: "core=" + "9" * n))


def mutated_text(data, text: str, label: str, tokens=TEXT_TOKENS) -> str:
    """`text` after one to four drawn line edits: a word replaced by a
    drawn token, a line of drawn tokens inserted, a line dropped or one
    repeated."""
    lines = text.splitlines()
    for kind in data.draw(st.lists(st.sampled_from(
            ("word", "insert", "drop", "repeat")), min_size=1, max_size=4),
            label=f"{label} edits"):
        at = data.draw(st.integers(0, max(len(lines) - 1, 0)))
        if kind == "insert" or not lines:
            lines.insert(at, " ".join(data.draw(
                st.lists(tokens, min_size=1, max_size=4))))
        elif kind == "word":
            words = lines[at].split(" ")
            words[data.draw(st.integers(0, len(words) - 1))] = data.draw(
                tokens)
            lines[at] = " ".join(words)
        elif kind == "drop":
            del lines[at]
        else:
            lines.insert(at, lines[at])
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(command=st.sampled_from(["rm", "affinity"]), data=st.data())
def test_rm_and_affinity_on_hostile_text_inputs_end_in_an_exit_code(
        command, data):
    image, sidecar = table1_files()
    files = {"image.shm": image}
    files["image.sym"] = (mutated_text(data, sidecar, "sidecar")
                          if data.draw(st.booleans(), label="bad sidecar")
                          else sidecar).encode()
    argv = [command, "image.shm", "--sym", "image.sym"]
    if command == "affinity":
        tasks = (DEMO_DATA / "tasks.txt").read_text()
        files["tasks.txt"] = mutated_text(data, tasks, "tasks").encode()
        argv += ["--tasks", "tasks.txt"]
    for module in data.draw(st.lists(st.one_of(
            st.sampled_from(["CPU", "CPU.C3", "11", "0"]), TEXT_TOKENS),
            max_size=2), label="maintenance"):
        argv += ["--maintenance", module]
    with tempfile.TemporaryDirectory() as work:
        for name, content in files.items():
            (Path(work) / name).write_bytes(content)
        code, _out, err = cli_outcome(
            [str(Path(work) / arg) if arg in files else arg for arg in argv])
        assert code in (0, 1, 2)
        assert len(err) <= 200 and "Traceback" not in err, err
        assert sorted(os.listdir(work)) == sorted(files)
        for name, content in files.items():
            assert (Path(work) / name).read_bytes() == content


# -- the `hm compile` slice of the hostile-input gate ------------------------
# `cli.main(["compile", …])` in-process on a mutated description: every run
# ends in exit 0, 1 or 2 with a short stderr and no traceback, leaves no
# temp file behind, and writes its image and sidecar only on exit 0.

COMPILE_SOURCES = (DEMO_DATA / "cpu.xml", DEMO_DATA / "board.xml",
                   DATA_DIR / "table1.xml")
XML_NAME = re.compile(rb"(?<=<)/?[A-Za-z_][\w.-]*|[A-Za-z_][\w.-]*(?==\")")
XML_VALUE = re.compile(rb'(?<==")[^"]*')
# Values at the edges of each attribute's range, and long ones. Integers
# from 301 to 65 534 are left out, for runtime alone: as a template count
# one could expand tens of thousands of modules, seconds per run. A count
# of 65 535 or more takes the CPU template past the declared-module cap,
# which refuses it before it expands.
XML_VALUES = st.one_of(
    st.integers(0, 300).map(str),
    st.sampled_from(["-1", "-0", "0x0", "0xff", "0b1", "1_0", " 1", "1.5",
                     "", "{i}", "x{i}", "65535", "65536", "4294967295",
                     "4294967296", "18446744073709551616", "ZERO", "LOW",
                     "HIGH", "BOGUS", "1", "2", ".", "C0.FPU"]),
    st.integers(41, 3000).map(lambda n: "9" * n),
    st.integers(41, 5000).map(lambda n: "0x" + "f" * n),
    st.integers(41, 3000).map(lambda n: "V" * n))


def mutated_description(data, text: bytes) -> bytes:
    """`text` after one to four drawn edits: a byte flip, a truncation, an
    element tag or attribute name replaced by a long one (at one place or
    at every place it appears), or an attribute value replaced by a
    boundary value."""
    for kind in data.draw(st.lists(st.sampled_from(
            ("flip", "truncate", "name", "value")), min_size=1, max_size=4),
            label="edits"):
        names, values = (list(pattern.finditer(text))
                         for pattern in (XML_NAME, XML_VALUE))
        if kind == "flip" and text:
            bit = data.draw(st.integers(0, 8 * len(text) - 1))
            text = bytearray(text)
            text[bit // 8] ^= 1 << (bit % 8)
            text = bytes(text)
        elif kind == "truncate":
            text = text[:data.draw(st.integers(0, len(text)))]
        elif kind == "name" and names:
            at = data.draw(st.sampled_from(names))
            name = at.group().lstrip(b"/")
            long = data.draw(st.integers(41, 3000)) * b"n"
            if data.draw(st.booleans(), label="everywhere"):
                text = re.sub(rb"(?<![\w.-])" + re.escape(name)
                              + rb"(?![\w.-])", long, text)
            else:
                start = at.end() - len(name)
                text = text[:start] + long + text[at.end():]
        elif kind == "value" and values:
            at = data.draw(st.sampled_from(values))
            text = (text[:at.start()] + data.draw(XML_VALUES).encode()
                    + text[at.end():])
    return text


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(source=st.sampled_from(COMPILE_SOURCES), data=st.data())
def test_compile_of_hostile_descriptions_ends_in_an_exit_code(source, data):
    text = mutated_description(data, source.read_bytes())
    with tempfile.TemporaryDirectory() as work:
        xml, shm, sym = (Path(work) / name
                         for name in ("x.xml", "x.shm", "x.sym"))
        xml.write_bytes(text)
        code, _out, err = cli_outcome(["compile", str(xml), "-o", str(shm),
                                       "--sym", str(sym)])
        assert code in (0, 1, 2)
        assert len(err) <= 200 and "Traceback" not in err, err
        written = ["x.shm", "x.sym"] if code == 0 else []
        assert sorted(os.listdir(work)) == sorted(["x.xml", *written])


# -- the `hm simulate` slice of the hostile-input gate -----------------------
# `cli.main(["simulate", …])` in-process on the demo roll-up with a mutated
# scenario, mapping and node descriptions, printed or written with `--out`:
# every run ends in exit 0, 1 or 2 with a short stderr and no traceback,
# leaves no temp file behind, and writes its logs only on exit 0.

SIMULATE_FILES = ("board.scn", "board.map", "board.xml", "cpu.xml")
SCENARIO_TOKENS = st.one_of(TEXT_TOKENS, st.sampled_from([
    "duration", "node", "at", "detect", "child", "downlink", "->",
    "hm=cpu.xml", "hm=board.xml", "hm=board.map", "map=none",
    "map=board.map", "map=cpu.xml", "period=0", "period=1", "period=5000",
    "parent=none", "parent=0", "parent=1", "parent=2", "sev=HIGH",
    "sev=ZERO", "class=1", "class=256", "payload=ff", "t=5"]),
    st.integers(41, 5000).map(lambda n: "parent=" + "1" * n),
    st.integers(41, 5000).map(lambda n: "period=" + "1" * n))
# the scenario's count of summary emissions above which a drawn example is
# left out, for runtime alone: up to the cap a run takes seconds. A count
# past the cap stays in, since the parse refuses it before any run.
DRAWN_EMISSIONS = 2000


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(out=st.booleans(), data=st.data())
def test_simulate_on_hostile_scenarios_ends_in_an_exit_code(out, data):
    bad = data.draw(st.sets(st.sampled_from(SIMULATE_FILES), max_size=2),
                    label="bad files")
    files = {}
    for name in SIMULATE_FILES:
        text = (DEMO_DATA / name).read_bytes()
        if name in bad:
            text = (mutated_description(data, text) if name.endswith(".xml")
                    else mutated_text(data, text.decode(), name,
                                      SCENARIO_TOKENS).encode())
        files[name] = text
    try:
        scenario = Scenario.parse(files["board.scn"].decode(), Path("."))
    except HealthMapError:
        pass
    else:
        assume(sum(scenario.duration_us // spec.period_us
                   for spec in scenario.nodes.values()) <= DRAWN_EMISSIONS)
    with tempfile.TemporaryDirectory() as work:
        for name, content in files.items():
            (Path(work) / name).write_bytes(content)
        argv = ["simulate", str(Path(work) / "board.scn")]
        if out:
            argv += ["--out", str(Path(work) / "out")]
        code, _out, err = cli_outcome(argv)
        assert code in (0, 1, 2)
        assert len(err) <= 200 and "Traceback" not in err, err
        written = ["out"] if out and code == 0 else []
        assert sorted(os.listdir(work)) == sorted([*files, *written])
        if written:
            assert sorted(os.listdir(Path(work) / "out")) == [
                "messages.log", "rm.log"]


LONG_DIGITS = "1" * 4000


@pytest.mark.parametrize("old, new, message", [
    ("at 1000 node 1", f"at 1000 node {LONG_DIGITS}",
     f"scenario line 6: node id {quote_token(LONG_DIGITS)} outside "
     f"0..4294967295"),
    ("parent=0", f"parent={LONG_DIGITS}",
     f"scenario line 5: parent node id {quote_token(LONG_DIGITS)} outside "
     f"0..4294967295"),
    ("duration 10000", f"duration {LONG_DIGITS}",
     "scenario makes <13273-bit integer> summary emissions, above the cap "
     "of 1000000"),
    # a line giving its own `t=` is refused when its `at` time differs
    ("at 1000 node 1 detect 12 sev=HIGH class=1",
     f"at {LONG_DIGITS} node 1 detect 12 sev=HIGH class=1 t=1000",
     "scenario line 6: event t=1000 is not the line's at time "
     "<13285-bit integer>"),
], ids=["event-node", "parent", "duration", "event-time"])
def test_simulate_long_integer_is_refused_in_a_short_line(tmp_path, old, new,
                                                          message):
    for name in SIMULATE_FILES:
        shutil.copy(DEMO_DATA / name, tmp_path)
    scn = tmp_path / "board.scn"
    text = scn.read_text()
    assert old in text
    scn.write_text(text.replace(old, new))
    assert cli_outcome(["simulate", str(scn)]) == (
        1, "", f"error: {message}\n")
