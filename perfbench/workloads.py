"""The three workloads. Each is driven by one synchronous client (closed
loop, one operation in flight) that calls `cli.main([...])` or the library
in-process, so interpreter start-up is never timed.

A workload repeats a fixed seeded *pass* until the run's time is up; every
pass starts from the same initial state, so the work per operation does
not depend on how fast the program is. Correctness checks run between
operations, outside the timed region, and any mismatch counts as a failed
operation.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import io
import random
import re
import statistics
import struct
import time
from collections import Counter, defaultdict
from pathlib import Path

import inputs
import speed
from tracing import changed_bytes

from healthmap import (affinity, cli, codec, compiler, faultmgr, footprint,
                       hierarchy, resourcemap)
from healthmap.model import ModuleStatus, Severity
from helpers import oracle_resource_map, rm_state


class Run:
    """Samples and failure accounting of one measured phase."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.speed = speed.Speed()

    def record(self, name: str, seconds: float,
               factor: float | None = None) -> None:
        """Keep a wall time under `name` and its reference-speed value
        (speed.py) under `name@ref`."""
        self.samples[name].append(seconds)
        self.samples[name + "@ref"].append(
            seconds * (factor or self.speed.factor()))

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(message)


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path, tracer=None) -> None:
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.digest = ""

    @contextlib.contextmanager
    def checking(self):
        """Correctness checks call the package too; keep them out of the
        trace."""
        active = self.tracer is not None and self.tracer.active
        if active:
            self.tracer.active = False
        try:
            yield
        finally:
            if active:
                self.tracer.active = True

    def region(self, name: str):
        """A span for benchmark code that runs inside a traced call."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.region("perfbench", name)

    def run(self, seconds: float, run: Run, floor: bool = True) -> None:
        """Repeat passes until `seconds` have passed and, with `floor`, the
        workload has enough samples for its tail percentile; a run that has
        failed needs no tail."""
        deadline = time.perf_counter() + seconds
        while True:
            self.run_pass(run)
            if time.perf_counter() >= deadline and (
                    not floor or run.failed or self.enough(run)):
                return


def call_cli(argv: list[str]) -> tuple[int, str, float]:
    """(exit code, stdout, seconds) of one in-process `hm` invocation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:          # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:           # a traceback: a failed operation
            code = -1
            print(repr(exc), file=err)
        elapsed = time.perf_counter() - start
    return code, out.getvalue() + err.getvalue(), elapsed


def wchar() -> int:
    """Bytes this process has passed to write() so far."""
    with open("/proc/self/io") as fh:
        for line in fh:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise OSError("no wchar in /proc/self/io")


# -- field_image --------------------------------------------------------------

class ImageLayout:
    """Record boundaries of an SHM1 image, tracked by the benchmark itself
    from the header counts and the sizes of appended tails, so the
    append-only contract is checked without trusting the codec."""

    MODULE, DIAG, DEP, FAULT, DET = 25, 13, 9, 12, 25
    # byte ranges an append may patch inside old records (PAPER.md design
    # notes): a module's first-fault link; a fault's links, severity and
    # persistence; a detection's next link, counter and flags
    PATCHABLE = {"module": (range(16, 20),),
                 "fault": (range(0, 10),),
                 "det": (range(0, 4), range(16, 20), range(24, 25))}

    def __init__(self, image: bytes) -> None:
        m, r, d, f, fd = struct.unpack_from("<HHHHI", image, 12)
        self.modules_end = 32 + self.MODULE * m
        self.static_end = self.modules_end + self.DIAG * r + self.DEP * d
        self.starts: list[int] = []
        self.kinds: list[str] = []
        pos = self.static_end
        for kind, size, n in (("fault", self.FAULT, f), ("det", self.DET, fd)):
            for _ in range(n):
                self.starts.append(pos)
                self.kinds.append(kind)
                pos += size
        self.length = pos
        self.faults, self.dets = f, fd

    def grow(self, new_length: int) -> str:
        """Account for the tail an inject appended; returns what it was."""
        delta = new_length - self.length
        if delta == self.FAULT + self.DET:
            added = (("fault", self.FAULT), ("det", self.DET))
            self.faults += 1
        elif delta == self.DET:
            added = (("det", self.DET),)
        elif delta == 0:
            return "patch"
        else:
            raise ValueError(f"image grew by {delta} bytes")
        for kind, size in added:
            self.starts.append(self.length)
            self.kinds.append(kind)
            self.length += size
        self.dets += 1
        return "fault" if len(added) == 2 else "detection"

    def bad_patches(self, old: bytes, new: bytes) -> list[int]:
        """Old-image offsets that changed outside the patchable fields."""
        bad = []
        for off in changed_bytes(old, new):
            if off < 32:
                continue
            if off < self.modules_end:
                kind, rel = "module", (off - 32) % self.MODULE
            elif off < self.static_end:
                bad.append(off)
                continue
            else:
                i = bisect.bisect_right(self.starts, off) - 1
                kind, rel = self.kinds[i], off - self.starts[i]
            if not any(rel in span for span in self.PATCHABLE[kind]):
                bad.append(off)
        return bad

    def events(self, image: bytes) -> int:
        """Sum of detection counters, read straight from the records."""
        return sum(struct.unpack_from("<I", image, start + 16)[0]
                   for start, kind in zip(self.starts, self.kinds)
                   if kind == "det")

    def header_counts(self, image: bytes) -> tuple[int, int]:
        _m, _r, _d, f, fd = struct.unpack_from("<HHHHI", image, 12)
        return f, fd


_INJECT_OUT = re.compile(r"^(created|updated) fault class=(\d+) on module "
                         r"(\d+); image now (\d+) bytes$")


def parse_rm_table(text: str) -> dict[str, tuple[str, str, str]]:
    rows = {}
    for line in text.splitlines()[1:]:
        name, sev, pers, *status = line.split()
        rows[name] = (sev, pers, " ".join(status))
    return rows


class FieldImage(Workload):
    """`hm inject` / `hm rm` against an on-disk image of synthesize_map(8)."""

    name = "field_image"
    CORES = 8
    PASS_INJECTS = 50
    PASS_QUERIES = 12
    MIN_INJECTS = 100        # so that ten samples lie beyond p90

    def setup(self) -> None:
        rng = random.Random(f"{self.name}:{self.seed}")
        hm = footprint.synthesize_map(self.CORES)
        self.image = codec.serialize(hm)
        self.names = inputs.synthesized_names(hm)
        self.ids = {name: mid for mid, name in self.names.items()}
        self.owner = {rid: r.owner.id for rid, r in hm.diag_resources.items()}
        cores = [n for n in self.names.values()
                 if re.fullmatch(r"SYS\.C\d+", n)]
        self.ops = inputs.field_image_ops(rng, list(hm.diag_resources), cores,
                                          self.PASS_INJECTS,
                                          self.PASS_QUERIES)
        sym = inputs.sidecar_text(self.names)
        self.shm = self.workdir / "field.shm"
        self.sym = self.workdir / "field.sym"
        self.sym.write_text(sym)
        self.digest = inputs.digest(self.image, sym, repr(self.ops))
        self.start_events = ImageLayout(self.image).events(self.image)
        # warm-up: the first inject and rm of the pass on a scratch copy
        scratch = self.workdir / "warm.shm"
        scratch.write_bytes(self.image)
        first = {op[0]: op for op in reversed(self.ops)}
        for op in first.values():
            call_cli(self.argv(op, scratch))
        scratch.unlink()
        self.final = self.image
        self.appended: Counter = Counter()

    def argv(self, op: tuple, shm: Path) -> list[str]:
        if op[0] == "inject":
            _, det, sev, cls, t = op
            return ["inject", str(shm), "--detector", str(det), "--sev", sev,
                    "--class", str(cls), "--t", str(t)]
        argv = ["rm", str(shm), "--sym", str(self.sym)]
        return argv + (["--maintenance", op[1]] if op[1] else [])

    def enough(self, run: Run) -> bool:
        return len(run.samples["inject"]) >= self.MIN_INJECTS

    def run_pass(self, run: Run) -> None:
        self.shm.write_bytes(self.image)
        layout = ImageLayout(self.image)
        current = self.image
        injects = 0
        for op in self.ops:
            run.speed.sample()
            run.attempted += 1
            before = wchar()
            code, out, elapsed = call_cli(self.argv(op, self.shm))
            written = wchar() - before
            with self.checking():
                try:
                    if op[0] == "inject":
                        new = self.shm.read_bytes()
                        problem = self.check_inject(
                            op, code, out, current, new, layout,
                            self.start_events + injects)
                    else:
                        problem = self.check_rm(op, code, out, current)
                except Exception as exc:
                    problem = f"check raised {exc!r}"
            if problem:
                # later checks would build on a state this one rejected
                run.fail(f"{op}: {problem}")
                return
            if op[0] == "inject":
                run.record("inject", elapsed)
                run.samples["inject_bytes"].append(written)
                current = new
                injects += 1
            else:
                run.record("rm", elapsed)
        run.attempted += 1
        code, out, _ = call_cli(["validate", str(self.shm)])
        events = layout.events(current)
        if code != 0 or "valid" not in out:
            run.fail(f"validate: exit {code}: {out.strip()}")
        elif events != self.start_events + injects:
            run.fail(f"event total {events}, expected "
                     f"{self.start_events} + {injects}")
        self.final = current

    def check_inject(self, op, code, out, old, new, layout, events):
        """Checks one inject; on success `layout` has taken in the tail."""
        _, det, _sev, cls, _t = op
        match = _INJECT_OUT.match(out.strip())
        if code != 0 or match is None:
            return f"exit {code}: {out.strip()}"
        action, out_cls, module, size = match.groups()
        if (int(out_cls), int(module), int(size)) != \
                (cls, self.owner[det], len(new)):
            return f"unexpected report {out.strip()!r}"
        bad = layout.bad_patches(old, new)
        if bad:
            return f"append-only contract broken at offsets {bad[:8]}"
        try:
            appended = layout.grow(len(new))
        except ValueError as exc:
            return str(exc)
        self.appended[appended] += 1
        if (action == "created") != (appended == "fault"):
            return f"{action} fault but the image appended: {appended}"
        if layout.header_counts(new) != (layout.faults, layout.dets):
            return "header counts disagree with the appended records"
        if layout.events(new) != events + 1:
            return "detection events did not grow by exactly one"
        return None

    def check_rm(self, op, code, out, image):
        if code != 0:
            return f"exit {code}: {out.strip()}"
        hm = codec.deserialize(image)
        maintenance = [self.ids[op[1]]] if op[1] else []
        expected = {self.names[mid]: (s.name, p.name, st.label) for mid, (
            s, p, st) in oracle_resource_map(hm, maintenance).items()}
        if parse_rm_table(out) != expected:
            return "rm table differs from the oracle"
        return None

    def live_detections(self) -> int:
        return ImageLayout(self.final).dets

    def metrics(self, run: Run) -> dict:
        inject, rm = run.samples["inject"], run.samples["rm"]
        inject_ref, rm_ref = run.samples["inject@ref"], run.samples["rm@ref"]
        ops = len(inject) + len(rm)
        return {
            "op_p50_ms": (pct(inject_ref, 50) * 1e3, "ms"),
            "op_tail_ms": (pct(inject_ref, 90) * 1e3, "ms"),
            "query_p50_ms": (pct(rm_ref, 50) * 1e3, "ms"),
            "throughput_per_s": (per_second(ops, inject_ref + rm_ref), "1/s"),
            # wall clock from here on
            "inject_p50_ms": (pct(inject, 50) * 1e3, "ms"),
            "inject_p90_ms": (pct(inject, 90) * 1e3, "ms"),
            "rm_query_p50_ms": (pct(rm, 50) * 1e3, "ms"),
            "inject_bytes_written": (pct(run.samples["inject_bytes"], 50),
                                     "bytes"),
            "injects": (len(inject), "count"),
            "injects_patch_only": (self.appended["patch"], "count"),
            "injects_new_detection": (self.appended["detection"], "count"),
            "injects_new_fault": (self.appended["fault"], "count"),
        }


# -- resident_sched -----------------------------------------------------------

class ResidentSched(Workload):
    """In-memory scheduler path on a 64-core SoC: report -> incremental
    resource map -> affinity masks, with periodic maintenance rebuilds."""

    name = "resident_sched"
    CORES = 64
    PASS_REPORTS = 3000
    MAINT_EVERY = 100        # reports between maintenance changes
    MAINT_WINDOW = 4         # cores in maintenance at once
    CHECK_EVERY = 5          # maintenance changes between oracle checks
    MIN_REPORTS = 1000       # so that ten samples lie beyond p99

    def setup(self) -> None:
        rng = random.Random(f"{self.name}:{self.seed}")
        xml = inputs.soc_xml(rng, self.CORES)
        self.description = compiler.parse_description(xml)
        hm, self.sidecar = compiler.build_map(self.description)
        self.tasks = affinity.parse_task_file(inputs.TASKS)
        self.core_ids = sorted(self.sidecar.core_modules())
        self.reports = [
            faultmgr.DetectionReport(det, Severity[sev], cls, t)
            for det, sev, cls, t in inputs.detection_reports(
                rng, inputs.xml_ids(xml, "instrument"), self.PASS_REPORTS)]
        # rolling maintenance: each change puts one more core into
        # maintenance and returns the one that entered MAINT_WINDOW changes
        # ago, so every rebuild handles the same number of maintained cores
        # whatever the seed
        self.entering: list[int] = []
        for _ in range(self.PASS_REPORTS // self.MAINT_EVERY):
            recent = self.entering[1 - self.MAINT_WINDOW:]
            self.entering.append(rng.choice(
                [c for c in self.core_ids if c not in recent]))
        self.digest = inputs.digest(
            xml, inputs.TASKS,
            repr([(r.detector_id, int(r.severity), r.classification,
                   r.timestamp) for r in self.reports]),
            repr(self.entering))
        self.names = self.sidecar.names()
        # warm-up: a short pass on a scratch map
        rm = resourcemap.init_resource_map(hm)
        for report in self.reports[:50]:
            faultmgr.report_detection(hm, report, rm=rm)
            affinity.compute_affinity(rm, self.sidecar, self.tasks)
        self.hm = hm

    def enough(self, run: Run) -> bool:
        return len(run.samples["detect"]) >= self.MIN_REPORTS

    def run_pass(self, run: Run) -> None:
        hm, sidecar = compiler.build_map(self.description)
        tasks, maintenance = self.tasks, set()
        rm = resourcemap.init_resource_map(hm)
        masks = affinity.compute_affinity(rm, sidecar, tasks)
        self.hm = hm
        for _ in range(speed.WINDOW):
            run.speed.sample()
        first = len(run.samples["detect@ref"])
        for i, report in enumerate(self.reports):
            if i and i % self.MAINT_EVERY == 0:
                run.speed.sample()
                k = i // self.MAINT_EVERY
                maintenance = set(
                    self.entering[max(0, k - self.MAINT_WINDOW):k])
                run.attempted += 1
                try:
                    start = time.perf_counter()
                    rm = resourcemap.init_resource_map(
                        hm, maintenance=sorted(maintenance))
                    masks = affinity.compute_affinity(rm, sidecar, tasks)
                    elapsed = time.perf_counter() - start
                except Exception as exc:
                    run.fail(f"maintenance rebuild: {exc!r}")
                    return
                run.record("maint", elapsed)
                if (i // self.MAINT_EVERY) % self.CHECK_EVERY == 0 and \
                        not self.check(run, hm, rm, maintenance, masks):
                    return
            run.attempted += 1
            try:
                start = time.perf_counter()
                faultmgr.report_detection(hm, report, rm=rm)
                masks = affinity.compute_affinity(rm, sidecar, tasks)
                elapsed = time.perf_counter() - start
            except Exception as exc:
                run.fail(f"report {report}: {exc!r}")
                return
            run.record("detect", elapsed)
        # p99 per pass: one burst of host noise then moves one pass's value,
        # not the run's tail
        run.samples["detect_pass_p99@ref"].append(
            pct(run.samples["detect@ref"][first:], 99))
        self.check(run, hm, rm, maintenance, masks)

    def check(self, run, hm, rm, maintenance, masks) -> bool:
        with self.checking():
            oracle = oracle_resource_map(hm, maintenance)
            if rm_state(rm) != oracle:
                problem = "incremental resource map differs from the oracle"
            elif [m.mask for m in masks] != self.oracle_masks(oracle):
                problem = "affinity masks differ from the oracle rows"
            else:
                return True
        run.fail(f"{len(run.samples['detect'])} reports in: {problem}")
        return False

    def oracle_masks(self, oracle) -> list[int]:
        """Masks recomputed from oracle rows by the rule in the task file
        format: the core and each needed sub-module within tolerance and
        not in maintenance."""
        ids = {name: mid for mid, name in self.names.items()}

        def ok(mid, task):
            if mid is None:
                return False
            sev, pers, status = oracle[mid]
            return (status != ModuleStatus.MAINTENANCE
                    and sev <= task.max_severity
                    and pers <= task.max_persistence)

        masks = []
        for task in self.tasks:
            mask = 0
            for core, core_id in self.sidecar.core_modules().items():
                prefix = self.names[core]
                if ok(core, task) and all(
                        ok(ids.get(f"{prefix}.{sub}"), task)
                        for sub in task.required_submodules):
                    mask |= 1 << core_id
            masks.append(mask)
        return masks

    def live_detections(self) -> int:
        return len(self.hm.detections)

    def metrics(self, run: Run) -> dict:
        detect, maint = run.samples["detect"], run.samples["maint"]
        detect_ref = run.samples["detect@ref"]
        maint_ref = run.samples["maint@ref"]
        return {
            "op_p50_ms": (pct(detect_ref, 50) * 1e3, "ms"),
            "op_tail_ms": (statistics.median(
                run.samples["detect_pass_p99@ref"]) * 1e3, "ms"),
            "query_p50_ms": (pct(maint_ref, 50) * 1e3, "ms"),
            "throughput_per_s": (per_second(len(detect),
                                            detect_ref + maint_ref), "1/s"),
            # wall clock from here on
            "detect_to_mask_p50_us": (pct(detect, 50) * 1e6, "us"),
            "detect_to_mask_p99_us": (pct(detect, 99) * 1e6, "us"),
            "maint_to_mask_p50_ms": (pct(maint, 50) * 1e3, "ms"),
            "reports": (len(detect), "count"),
        }


# -- rollup -------------------------------------------------------------------

class Rollup(Workload):
    """One board node rolling up eight 16-core SoC nodes through
    `hierarchy.simulate`; the compiler runs inside the timed call. The op
    latency is the parent's per-summary ingest, timed by a wrapper around
    `hierarchy.ingest_summary`, so a run has thousands of samples rather
    than a handful of simulate calls. The wrapper also times the reference
    loop every REFERENCE_EVERY ingests, outside the ingest and subtracted
    from the simulate time."""

    name = "rollup"
    QUERIES = 5              # root resource-map queries per simulate
    REFERENCE_EVERY = 10     # ingests between reference-loop timings
    MIN_SIMULATES = 5

    def setup(self) -> None:
        rng = random.Random(f"{self.name}:{self.seed}")
        files = inputs.rollup_files(rng)
        base = self.workdir / "rollup"
        base.mkdir(exist_ok=True)
        for name, text in files.items():
            (base / name).write_text(text)
        self.digest = inputs.digest(*(f"{k}\n{v}" for k, v in
                                      sorted(files.items())))
        self.scenario = hierarchy.Scenario.parse(files["run.scn"], base)
        # warm-up: compile every node once
        for spec in self.scenario.nodes.values():
            compiler.build_map(compiler.parse_description(
                spec.hm_path.read_text()))
        self.expected_messages = (inputs.ROLLUP_CHILDREN
                                  * (inputs.ROLLUP_DURATION_US
                                     // inputs.ROLLUP_CHILD_PERIOD_US))
        self.log_digest = None
        self.result = None

    def enough(self, run: Run) -> bool:
        return len(run.samples["simulate"]) >= self.MIN_SIMULATES

    def run_pass(self, run: Run) -> None:
        run.attempted += 1
        self.result = None          # let the previous run's maps go first
        ingest = hierarchy.ingest_summary
        calls, reference_s = 0, 0.0

        def timed_ingest(*args, **kwargs):
            nonlocal calls, reference_s
            with self.region("ingest_timer"):
                if calls % self.REFERENCE_EVERY == 0:
                    start = time.perf_counter()
                    run.speed.sample()
                    reference_s += time.perf_counter() - start
                calls += 1
                start = time.perf_counter()
                try:
                    return ingest(*args, **kwargs)
                finally:
                    run.record("ingest", time.perf_counter() - start)

        for _ in range(speed.WINDOW):
            run.speed.sample()
        mark = len(run.speed.samples)
        # simulate looks ingest_summary up as a module global
        hierarchy.ingest_summary = timed_ingest
        try:
            start = time.perf_counter()
            result = hierarchy.simulate(self.scenario)
            elapsed = time.perf_counter() - start - reference_s
        except Exception as exc:
            run.fail(f"simulate: {exc!r}")
            return
        finally:
            hierarchy.ingest_summary = ingest
        self.result = result
        root = result.nodes[0]
        for _ in range(self.QUERIES):
            start = time.perf_counter()
            rm = resourcemap.init_resource_map(root.hm)
            resourcemap.render_table(rm, root.sidecar)
            run.record("query", time.perf_counter() - start)
        with self.checking():
            problem = self.check(result, rm)
        if problem:
            run.fail(problem)
            return
        run.record("simulate", elapsed, run.speed.factor(since=mark))
        run.samples["messages"].append(len(result.message_log))

    def check(self, result, root_query_rm):
        if len(result.message_log) != self.expected_messages:
            return (f"{len(result.message_log)} messages, expected "
                    f"{self.expected_messages}")
        log = hashlib.sha256(result.message_text().encode()).hexdigest()[:16]
        if self.log_digest is None:
            self.log_digest = log
        elif log != self.log_digest:
            return "message log differs between runs of one scenario"
        for node_id, node in result.nodes.items():
            if rm_state(result.final_rms[node_id]) != \
                    oracle_resource_map(node.hm):
                return f"node {node_id} resource map differs from the oracle"
        if rm_state(root_query_rm) != oracle_resource_map(result.nodes[0].hm):
            return "root query differs from the oracle"
        return None

    def live_detections(self) -> int:
        if self.result is None:
            return 0
        return sum(len(n.hm.detections) for n in self.result.nodes.values())

    def metrics(self, run: Run) -> dict:
        sim, msgs = run.samples["simulate"], run.samples["messages"]
        query, ingest = run.samples["query"], run.samples["ingest"]
        ingest_ref = run.samples["ingest@ref"]
        return {
            "op_p50_ms": (pct(ingest_ref, 50) * 1e3, "ms"),
            "op_tail_ms": (pct(ingest_ref, 99) * 1e3, "ms"),
            "query_p50_ms": (pct(run.samples["query@ref"], 50) * 1e3, "ms"),
            "throughput_per_s": (per_second(sum(msgs),
                                            run.samples["simulate@ref"]),
                                 "1/s"),
            # wall clock from here on
            "rollup_msgs_per_s": (per_second(sum(msgs), sim), "1/s"),
            "ingest_p50_us": (pct(ingest, 50) * 1e6, "us"),
            "ingest_p99_us": (pct(ingest, 99) * 1e6, "us"),
            "simulate_p50_ms": (pct(sim, 50) * 1e3, "ms"),
            "root_query_p50_ms": (pct(query, 50) * 1e3, "ms"),
            "simulates": (len(sim), "count"),
            "message_log_digest": (self.log_digest, "sha256"),
        }


WORKLOADS = {w.name: w for w in (FieldImage, ResidentSched, Rollup)}


def per_second(count: float, durations) -> float:
    """`count` per second of the summed durations; nan if none."""
    total = sum(durations)
    return count / total if total else float("nan")


def pct(values, p: float) -> float:
    """Linear-interpolation percentile (numpy's default); nan if empty."""
    if not values:
        return float("nan")
    xs = sorted(values)
    k = (len(xs) - 1) * p / 100
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)
