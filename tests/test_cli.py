import contextlib
import hashlib
import io
import os
import shutil
import stat
import tracemalloc
from pathlib import Path

import pytest

from healthmap import cli, compile_xml
from healthmap.cli import main

from conftest import DATA_DIR
from helpers import nest_xml

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


def test_inject_class_outside_u8_exits_1_and_keeps_image(compiled, capsys):
    shm, _sym = compiled
    before = shm.read_bytes()
    assert main(["inject", str(shm), "--detector", "12", "--sev", "HIGH",
                 "--class", "300", "--t", "1000"]) == 1
    assert "classification 300" in capsys.readouterr().err
    assert shm.read_bytes() == before


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

    def torn_write(self, data):
        with open(self, "wb") as fh:
            fh.write(data[:len(data) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_bytes", torn_write)
    assert main([argv[0], str(shm), *argv[1:]]) == 1
    assert "disk full" in capsys.readouterr().err
    assert shm.read_bytes() == before
    assert sorted(shm.parent.iterdir()) == files_before


def test_failed_recompile_leaves_image_and_sidecar_intact(
        compiled, monkeypatch, capsys):
    shm, sym = compiled
    image, sidecar = shm.read_bytes(), sym.read_text()
    files_before = sorted(shm.parent.iterdir())

    def torn_write(self, data):
        with open(self, "wb") as fh:
            fh.write(data[:len(data) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_bytes", torn_write)
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
    write_bytes = Path.write_bytes

    def sidecar_write_fails(self, data):
        if self.name.startswith(f".{sym.name}."):
            raise OSError("disk full")
        return write_bytes(self, data)

    monkeypatch.setattr(Path, "write_bytes", sidecar_write_fails)
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
    write_bytes = Path.write_bytes

    def rm_log_write_fails(self, data):
        if self.name.startswith(".rm.log."):
            raise OSError("disk full")
        return write_bytes(self, data)

    monkeypatch.setattr(Path, "write_bytes", rm_log_write_fails)
    assert main(["simulate", str(DEMO_DATA / "board.scn"),
                 "--out", str(out)]) == 1
    assert "disk full" in capsys.readouterr().err
    assert (out / "messages.log").read_bytes() == b"old messages\n"
    assert (out / "rm.log").read_bytes() == b"old rm\n"
    assert sorted(p.name for p in out.iterdir()) == ["messages.log",
                                                     "rm.log"]


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
    shm = tmp_path / "deep.shm"
    assert main(["compile", str(xml), "-o", str(shm),
                 "--sym", str(tmp_path / "deep.sym")]) == 0
    assert main(["validate", str(shm)]) == 0
    assert "valid (3000 modules" in capsys.readouterr().out


def test_simulate_bad_report_names_its_line(tmp_path, capsys):
    work = demo_copy(tmp_path, "board.scn", "class=1", "class=300")
    assert main(["simulate", str(work / "board.scn")]) == 1
    assert ("scenario line 6: fault classification 300 outside 0..255"
            in capsys.readouterr().err)


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


# sha256 of the final image, `hm rm` stdout and `hm affinity` stdout after
# the inject chain of demo/data/inject_chain.txt (demo/inject_chain.sh
# prints the same three through the installed `hm`; CI checks them there).
CHAIN_DIGESTS = (
    "6a7c41809d6b78d61de3f703696cf9087028018e4e428e01b386ec55e81df841",
    "dccd42ad47636e1f15778ef72d34d3eeddf7073051bce9f1ce54b53a504e1a69",
    "3f20fb18d8b9b13b99ac7a73d30ade1a2cc65f69607e5c475b8b20810931b9ed",
)


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
                 for out in outs) == CHAIN_DIGESTS


# -- parser surface -----------------------------------------------------------
# `main` builds only the parser of the subcommand it is given. Every command
# line must still end as it does through the full parser: same exit code,
# stdout and stderr, including the usage line of a top-level error.

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


@pytest.mark.parametrize("command", [None, *SURFACE_CALLS])
def test_main_matches_full_parser(tmp_path, monkeypatch, command):
    template = tmp_path / "template"
    shutil.copytree(DEMO_DATA, template)
    shutil.copy(DATA_DIR / "table1.xml", template)
    image, sidecar = compile_xml((DATA_DIR / "table1.xml").read_text())
    (template / "table1.shm").write_bytes(image)
    (template / "table1.sym").write_text(sidecar.format())
    full_parser = cli.build_parser
    for i, argv in enumerate(surface_argvs(command)):
        outcomes = []
        for side in ("one command", "full"):
            work = tmp_path / f"{i} {side}"
            shutil.copytree(template, work)
            monkeypatch.chdir(work)
            with monkeypatch.context() as patch:
                if side == "full":
                    patch.setattr(cli, "build_parser",
                                  lambda command=None: full_parser())
                outcomes.append(cli_outcome(argv))
        assert outcomes[0] == outcomes[1], argv
        if argv[-1:] == ["extra"]:    # the top-level usage lists them all
            assert ("{%s}" % ",".join(SURFACE_CALLS)) in outcomes[0][2]
