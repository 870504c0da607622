#!/usr/bin/env python3
"""The CI checks: one function per step of .github/workflows/test.yml.

    python ci/checks.py STEP    # one step, with the `hm` on PATH
    python ci/checks.py all     # every step in order, then one summary line

A step runs in a fresh temporary working directory and names the
checkout's files by absolute path, so it leaves nothing in the checkout
but what `perfbench/run.py` writes under perfbench/out/. Every Python it
starts imports the package from the checkout's src/. `all` also puts an
`hm` shim on PATH that runs `python -m healthmap.cli` from src/, so it
needs no install and no network. Stdlib only, for CPython 3.10-3.12; the
golden digests come from tests/golden.py.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shlex
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEMO = ROOT / "demo"
DATA = DEMO / "data"
sys.path.insert(0, str(ROOT / "tests"))
import golden  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
STDERR_BOUND = 200          # characters of a refusal's stderr
WORKLOADS = ("field_image", "resident_sched", "rollup")
STEPS = {}


class Failed(Exception):
    """A check of a step did not hold."""


def step(func):
    STEPS[func.__name__] = func
    return func


def check(ok: bool, message: str) -> None:
    if not ok:
        raise Failed(message)


def show(argv) -> str:
    """A command line for a failure message, long arguments by length."""
    return " ".join(arg if len(arg) <= 60 else f"<{len(arg)} characters>"
                    for arg in map(str, argv))


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(*argv, timeout=None) -> subprocess.CompletedProcess:
    """`argv` with stdout and stderr captured as bytes."""
    try:
        return subprocess.run(argv, capture_output=True, env=ENV,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise Failed(f"{show(argv)} ran past {timeout} s") from None


def stdout(*argv, timeout=None) -> bytes:
    """The stdout of `argv`, which must exit 0."""
    proc = run(*argv, timeout=timeout)
    check(proc.returncode == 0, f"{show(argv)} exited {proc.returncode}:\n"
          f"{proc.stderr.decode(errors='replace')}")
    return proc.stdout


def refused(*argv, want=1, prefixed=True, bound=None, timeout=None) -> str:
    """The stderr of `argv`, less its trailing newlines as the shell's
    `$(...)` takes it. It must exit `want` with no traceback; with
    `prefixed` its stderr starts with `error:`, and with `bound` it holds
    at most that many characters."""
    proc = run(*argv, timeout=timeout)
    err = proc.stderr.decode(errors="replace").rstrip("\n")
    what = show(argv)
    check(proc.returncode == want,
          f"{what} exited {proc.returncode}, expected {want}")
    check(not prefixed or err.startswith("error:"),
          f"{what}: stderr does not start with error:\n{err}")
    check("Traceback" not in err, f"{what}: traceback on stderr\n{err}")
    check(bound is None or len(err) <= bound,
          f"{what}: stderr is {len(err)} characters long")
    return err


def short(*argv, want=1) -> str:
    """A refusal that quotes its input by head and length: a short stderr."""
    return refused(*argv, want=want, prefixed=False, bound=STDERR_BOUND)


def copy_demo(directory: str) -> None:
    """The demo roll-up's scenario and the files it names, into `directory`."""
    for name in ("board.scn", "board.map", "board.xml", "cpu.xml"):
        shutil.copy(DATA / name, directory)


def append(path: str, data: bytes) -> None:
    with open(path, "ab") as file:
        file.write(data)


def sed(src, dst: str, pattern: str, repl: str, shows: str | None = None):
    """`dst` as `sed 's/pattern/repl/' src` writes it; with `shows`, the
    result must hold that text, so an edit that matched nothing fails."""
    text = re.sub(pattern, repl, Path(src).read_text(), flags=re.M)
    if shows is not None:
        check(shows in text, f"{dst} holds no {shows[:40]!r}")
    Path(dst).write_text(text)


def peak_rss_mb(argv, timeout: int) -> float:
    """Run `argv`, stdout discarded, which must exit 0 within `timeout`
    seconds; return its peak RSS in MB (`ru_maxrss` is in KB on Linux)."""
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, env=ENV)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _pid, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    check(proc.returncode == 0, f"{show(argv)} exited {proc.returncode}"
          + (f", killed at its {timeout} s timeout"
             if proc.returncode == -signal.SIGKILL else ""))
    return usage.ru_maxrss / 1024


def bench(workload: str, seconds: int, trace: int, echo=False) -> dict:
    """The JSON result that ends a `perfbench/run.py` run's stdout."""
    out = stdout(sys.executable, ROOT / "perfbench" / "run.py",
                 "--workload", workload, "--seed", "1",
                 "--seconds", str(seconds), "--trace", str(trace)).decode()
    if echo:
        print(out, end="", flush=True)
    return json.loads(out.splitlines()[-1])


# -- the steps, in the workflow's order ---------------------------------------

@step
def demo_tours():
    rc = subprocess.run(["sh", DEMO / "cli_tour.sh"], env=ENV).returncode
    check(rc == 0, f"sh demo/cli_tour.sh exited {rc}")
    digest = sha(stdout(sys.executable, DEMO / "library_tour.py"))
    check(digest == golden.LIBRARY_TOUR, f"library tour stdout sha256 "
          f"{digest}, expected {golden.LIBRARY_TOUR[:8]}...")


# the installed `hm` console script ends each command line as the module
# does: same stdout, stderr and exit code
SURFACE = ("-h", "inject -h", "inject", "inject x --sev NONE", "rm x extra",
           "bogus")


@step
def cli_surface():
    def ends(*argv) -> tuple[str, str, int]:
        proc = subprocess.run(argv, capture_output=True, env=ENV, text=True)
        return proc.stdout, proc.stderr, proc.returncode

    for line in SURFACE:
        got = ends("hm", *line.split())
        want = ends(sys.executable, "-m", "healthmap.cli", *line.split())
        check(got == want, f"hm {line} gave\n{got}\nexpected\n{want}")


@step
def inject_chain():
    digests = stdout("sh", DEMO / "inject_chain.sh").decode().splitlines()
    check(digests == list(golden.CHAIN),
          f"inject chain digests {digests}, expected {list(golden.CHAIN)}")


@step
def prune():
    # criterion 6 at the CLI: after the inject chain, `hm prune` leaves a
    # valid image with the same `hm rm` and `hm affinity` stdout (CPU.C3
    # under maintenance), and both are pinned, so a wrong maintenance
    # subtree on both sides of the prune fails too
    shm, sym = "chain_out/cpu.shm", "chain_out/cpu.sym"
    os.mkdir("chain_out")
    stdout("sh", DEMO / "inject_chain.sh", "chain_out")
    # `hm dump` shows a whole load's list and record order
    digest = sha(stdout("hm", "dump", shm, "--sym", sym))
    check(digest == golden.CHAIN_DUMP, f"hm dump stdout sha256 {digest}, "
          f"expected {golden.CHAIN_DUMP[:8]}...")

    def views() -> list[str]:
        maintenance = ("--sym", sym, "--maintenance", "CPU.C3")
        return [sha(stdout("hm", "rm", shm, *maintenance)),
                sha(stdout("hm", "affinity", shm, "--tasks",
                           DATA / "tasks.txt", *maintenance))]

    before = views()
    check(before == list(golden.CHAIN[1:]), f"hm rm and hm affinity sha256 "
          f"{before}, expected {list(golden.CHAIN[1:])}")
    stdout("hm", "prune", shm)
    # `hm validate` runs the load's check only: its counts must be those of
    # the whole load that `hm dump` prints on its first line
    first = stdout("hm", "dump", shm).decode().partition("\n")[0]
    counts = ", ".join(count for what in ("modules", "faults", "detections")
                       for count in re.findall(f"[0-9]* {what}", first))
    got = stdout("hm", "validate", shm).decode().rstrip("\n")
    check(got == f"{shm}: valid ({counts})",
          f"hm validate printed\n{got}\nwhile hm dump begins\n{first}")
    after = views()
    check(before == after, f"hm rm and hm affinity sha256 before prune "
          f"{before}, after {after}")
    # prune is its own fixed point: a second one writes the same image
    pruned = Path(shm).read_bytes()
    stdout("hm", "prune", shm)
    check(Path(shm).read_bytes() == pruned,
          "a second hm prune changed the image")


@step
def rollup():
    digest = sha(stdout("hm", "simulate", DATA / "board.scn"))
    check(digest == golden.ROLLUP, f"demo roll-up stdout sha256 {digest}, "
          f"expected {golden.ROLLUP[:8]}...")
    stdout("hm", "simulate", DATA / "board.scn", "--out", "rollup_out")
    logs = b"".join(Path("rollup_out", name).read_bytes()
                    for name in ("messages.log", "rm.log"))
    check(sha(logs) == golden.ROLLUP, f"demo roll-up --out logs sha256 "
          f"{sha(logs)}, expected {golden.ROLLUP[:8]}...")


@step
def malformed():
    # a text input that is not UTF-8, or a scenario payload that is not
    # hex, must end in exit 1 and one `error:` line, not a traceback, and
    # leave no output file; an `hm inject --payload` that is not hex is a
    # usage error (exit 2) that leaves the image as it was, and a flag and
    # a scenario line read `1_f` alike
    os.mkdir("malformed")
    stdout("hm", "compile", DATA / "cpu.xml", "-o", "malformed/cpu.shm",
           "--sym", "malformed/cpu.sym")
    append("malformed/cpu.sym", b"\377")
    shutil.copy(DATA / "cpu.xml", "malformed/bad.xml")
    append("malformed/bad.xml", b"\377")
    copy_demo("malformed")
    sed("malformed/board.scn", "malformed/board.scn", "class=1$",
        "class=1 payload=1x2", shows="payload=1x2")
    refused("hm", "rm", "malformed/cpu.shm", "--sym", "malformed/cpu.sym")
    refused("hm", "compile", "malformed/bad.xml", "-o", "malformed/out.shm")
    check(not os.path.exists("malformed/out.shm"),
          "hm compile wrote malformed/out.shm")
    refused("hm", "simulate", "malformed/board.scn")
    stdout("hm", "compile", DATA / "cpu.xml", "-o", "malformed/inject.shm")
    image = Path("malformed/inject.shm")
    before = image.read_bytes()
    inject = ("hm", "inject", image, "--detector", "12", "--sev", "HIGH",
              "--class", "1", "--t", "1000")
    refused(*inject, "--payload", "zz", want=2, prefixed=False)
    check(image.read_bytes() == before,
          f"{show(inject)} --payload zz changed the image")
    # an option given `--` as its attached value is a usage error too, and
    # writes nothing
    files = sorted(os.listdir(".")), sorted(os.listdir("malformed"))
    for argv in (("inject", image, "--detector=--", "--sev", "HIGH",
                  "--class", "1", "--t", "1000"),
                 ("compile", DATA / "cpu.xml", "--output=--")):
        refused("hm", *argv, want=2, prefixed=False)
    check(image.read_bytes() == before, "an option given -- changed the image")
    check((sorted(os.listdir(".")), sorted(os.listdir("malformed")))
          == files, "an option given -- created a file")
    stdout(*inject, "--payload", "1_f")
    check("payload=0x1f" in stdout("hm", "dump", image).decode(),
          "hm dump does not show payload=0x1f after --payload 1_f")
    sed(DATA / "board.scn", "malformed/underscore.scn", "class=1$",
        "class=1 payload=1_f", shows="payload=1_f")
    stdout("hm", "simulate", "malformed/underscore.scn")
    # an error in a node's mapping names the mapping file, and a sidecar
    # that repeats an id is refused at the repeat, at once
    os.mkdir("malformed/map")
    copy_demo("malformed/map")
    append("malformed/map/board.map", b"child 4294967296 5 -> 2\n")
    err = refused("hm", "simulate", "malformed/map/board.scn")
    check("malformed/map/board.map:" in err,
          f"hm simulate: stderr does not name malformed/map/board.map\n{err}")
    Path("malformed/twice.sym").write_text(
        "".join(f"{i} {n}{i}\n" for n in "MN" for i in range(8000)))
    refused("hm", "rm", "malformed/cpu.shm", "--sym", "malformed/twice.sym",
            timeout=10)


@step
def hostile():
    # a template that would expand past the header's u16 module count is
    # refused at its line, before any instance is built, and a mapping id
    # past u32 is refused as a node id is
    os.mkdir("hostile")
    Path("hostile/huge.xml").write_text(
        '<healthmap version="1"><template name="t" count="4294967295" '
        'baseId="0" idStride="1"><module id="0" name="M{i}" '
        'criticality="LOW"/></template></healthmap>\n')
    refused("hm", "compile", "hostile/huge.xml", "-o", "hostile/huge.shm",
            timeout=10)
    check(not os.path.exists("hostile/huge.shm"),
          "hm compile wrote hostile/huge.shm")
    copy_demo("hostile")
    append("hostile/board.map", b"child 4294967296 5 -> 2\n")
    rc = run("hm", "simulate", "hostile/board.scn").returncode
    check(rc == 1, f"hm simulate with a mapping id past u32 exited {rc}, "
          "expected 1")
    # a maintenance id past int()'s 4 300-digit limit is a domain error
    stdout("hm", "compile", DATA / "cpu.xml", "-o", "hostile/cpu.shm")
    refused("hm", "rm", "hostile/cpu.shm", "--maintenance", "1" * 5000,
            bound=STDERR_BOUND)
    # an output that is a directory is refused before any file is replaced
    Path("hostile/out.shm").write_bytes(b"old image\n")
    os.mkdir("hostile/out.sym")
    refused("hm", "compile", DATA / "cpu.xml", "-o", "hostile/out.shm",
            "--sym", "hostile/out.sym")
    check(Path("hostile/out.shm").read_bytes() == b"old image\n",
          "hm compile replaced hostile/out.shm")
    # a refused argument value, an unrecognized argument or a scenario
    # directive is quoted by its head and length, so stderr stays short
    inject = ("hm", "inject", "hostile/cpu.shm", "--sev", "HIGH", "--class",
              "1", "--t", "1000")
    short(*inject, "--detector", "1" * 5000, want=2)
    short(*inject, "--detector", "12", "--payload", "g" * 3000, want=2)
    short(*inject, "--detector", "12", "x" * 3000, want=2)
    short("hm", "rm", "hostile/cpu.shm", "--bogus" + "x" * 3000, want=2)
    short("hm", "rm", "hostile/cpu.shm", *["x"] * 2000, want=2)
    Path("hostile/directive.scn").write_text(
        "duration 10\n" + "x" * 3000 + " 1\n")
    short("hm", "simulate", "hostile/directive.scn")
    # a 4 000-digit event node id, parent id or duration is refused in a
    # short line: ids are u32, and the emission count is quoted
    long = "1" * 4000
    for what, pattern, repl in (
            ("event_node", "^at 1000 node 1 ", f"at 1000 node {long} "),
            ("parent", " parent=0$", f" parent={long}"),
            ("duration", "^duration 10000$", f"duration {long}")):
        sed(DATA / "board.scn", f"hostile/{what}.scn", pattern, repl,
            shows=long)
        short("hm", "simulate", f"hostile/{what}.scn")
    # a long XML name is quoted by its head, a long path by its tail
    module = '<healthmap version="1"><module id="1" name="A" criticality="LOW"'
    Path("hostile/attribute.xml").write_text(
        f'{module} {"a" * 3000}="1"/></healthmap>\n')
    short("hm", "compile", "hostile/attribute.xml", "-o",
          "hostile/attribute.shm")
    Path("hostile/element.xml").write_text(
        f'{module}><{"e" * 3000}/></module></healthmap>\n')
    short("hm", "compile", "hostile/element.xml", "-o", "hostile/element.shm")
    # every element takes only its schema's attributes
    Path("hostile/dependency.xml").write_text(
        '<healthmap version="1"><module id="1" name="A" criticality="LOW"/>'
        '<module id="2" name="B" criticality="LOW"/><dependency provider="1" '
        'dependent="2" severity="LOW" bogus="x"/></healthmap>\n')
    short("hm", "compile", "hostile/dependency.xml", "-o",
          "hostile/dependency.shm")
    check(not os.path.exists("hostile/dependency.shm"),
          "hm compile wrote hostile/dependency.shm")
    deep = "hostile/" + "/".join(["d" * 50] * 4)
    os.makedirs(deep)
    Path(deep, "cpu.sym").write_bytes(b"1 CPU\n\377\n")
    short("hm", "rm", "hostile/cpu.shm", "--sym", f"{deep}/cpu.sym")
    # a scenario asking for more summary emissions than the cap is refused
    # at parse time, before any node is compiled
    sed(DATA / "board.scn", "hostile/huge.scn", "^duration 10000$",
        "duration 142949672960000")
    refused("hm", "simulate", "hostile/huge.scn", timeout=10)


@step
def closed_stdout():
    # the dump outgrows the pipe, so closing it after one line meets hm
    # while it still writes; hm must exit 0, with nothing on stderr
    stdout(sys.executable, "-c", "from healthmap import serialize, "
           "synthesize_map; open('big.shm', 'wb').write(serialize("
           "synthesize_map(8)))")
    dump = subprocess.Popen(["hm", "dump", "big.shm"], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=ENV)
    print(dump.stdout.readline().decode(), end="", flush=True)
    dump.stdout.close()
    err = dump.stderr.read().decode(errors="replace")
    dump.stderr.close()
    check(dump.wait() == 0, f"hm dump | head -n 1: hm exited {dump.returncode}")
    check(not err, f"hm dump | head -n 1 wrote to stderr:\n{err}")


@step
def deep_description():
    depth = 3000
    Path("deep.xml").write_text(
        '<healthmap version="1">'
        + "".join(f'<module id="{i}" name="M" criticality="LOW">'
                  for i in range(depth))
        + "</module>" * depth + "</healthmap>\n")
    stdout("hm", "compile", "deep.xml", "-o", "deep.shm", "--sym", "deep.sym",
           timeout=60)
    stdout("hm", "validate", "deep.shm", timeout=60)
    stdout("hm", "rm", "deep.shm", "--sym", "deep.sym", timeout=60)


@step
def deep_scenario():
    Path("deep_node.xml").write_text(
        '<healthmap version="1"><module id="1" name="M" criticality="LOW"/>'
        '</healthmap>\n')
    Path("deep.scn").write_text("duration 1\n" + "".join(
        f"node {i} hm=deep_node.xml map=none period=2 "
        f"parent={i - 1 if i else 'none'}\n" for i in range(30000)))
    mb = peak_rss_mb(["hm", "simulate", "deep.scn"], timeout=30)
    print(f"hm simulate deep.scn: peak RSS {mb:.0f} MB", flush=True)
    check(mb <= 200, f"peak RSS {mb:.0f} MB, above 200 MB")


@step
def bench_checks():
    # a short run of each workload checks every op against the harness's
    # oracles; none may fail
    for workload in WORKLOADS:
        result = bench(workload, 1, 0)
        check(result["correct"] is True and result["failed"] == 0,
              f"{workload}: correct {result['correct']}, "
              f"failed {result['failed']}")


@step
def bench_checks_traced():
    # the tracer wraps package functions by name, so a rename breaks only
    # the traced path: a short traced run of each workload must pass and
    # report every per-layer metric BENCHMARK.json lists
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    for workload in WORKLOADS:
        result = bench(workload, 1, 1)
        missing = [metric["name"] for metric in per_layer
                   if metric["name"] not in result["metrics"]]
        check(result["correct"] is True and result["failed"] == 0
              and not missing, f"{workload} traced: correct "
              f"{result['correct']}, failed {result['failed']}, "
              f"missing {missing}")


def smoke(workload: str) -> None:
    result = bench(workload, 5, 0, echo=True)
    check(result["correct"] is True, "benchmark outputs incorrect")


@step
def smoke_field_image():
    smoke("field_image")


@step
def smoke_rollup():
    smoke("rollup")
    result = ROOT / "perfbench" / "out" / "result-rollup-seed1-trace0.json"
    digest = json.loads(result.read_text())["named"]["message_log_digest"][
        "value"]
    check(digest == golden.ROLLUP_MESSAGE_LOG, f"rollup message log digest "
          f"{digest}, expected {golden.ROLLUP_MESSAGE_LOG}")


@step
def smoke_resident_sched():
    smoke("resident_sched")


# -- running them --------------------------------------------------------------

def run_step(name: str) -> bool:
    print(f"== {name} ==", flush=True)
    with tempfile.TemporaryDirectory(prefix=f"hm-{name}-") as work:
        os.chdir(work)
        try:
            STEPS[name]()
            return True
        except Failed as exc:
            print(f"{name} failed: {exc}", flush=True)
        except Exception:           # a step's own fault, shown whole
            traceback.print_exc()
        finally:
            os.chdir(ROOT)
    return False


def run_all() -> bool:
    start = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="hm-bin-") as bin_dir:
        shim = Path(bin_dir, "hm")
        shim.write_text(f'#!/bin/sh\nPYTHONPATH={shlex.quote(str(ROOT / "src"))}'
                        f' exec {shlex.quote(sys.executable)} -m healthmap.cli'
                        ' "$@"\n')
        shim.chmod(0o755)
        ENV["PATH"] = os.pathsep.join([bin_dir, ENV.get("PATH", "")])
        failed = [name for name in STEPS if not run_step(name)]
    print(f"ci/checks.py all: {len(STEPS) - len(failed)} of {len(STEPS)} "
          f"steps passed in {time.monotonic() - start:.0f} s"
          + (f"; failed: {', '.join(failed)}" if failed else ""))
    return not failed


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0] not in ("all", *STEPS):
        print(f"usage: python ci/checks.py {{all|{'|'.join(STEPS)}}}",
              file=sys.stderr)
        return 2
    return 0 if (run_all() if argv[0] == "all" else run_step(argv[0])) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
