"""healthmap benchmark: end-to-end metrics (untraced) or per-layer metrics
(traced) for one seeded workload.

    python3 perfbench/run.py --workload field_image --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

The package is imported from src/ and the reference oracle from
tests/helpers.py of the checkout this file sits in. Human-readable lines
come first; the last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`, whose metric names and units are the
`end_to_end` (trace 0) or `per_layer` (trace 1) lists of BENCHMARK.json.
Everything a
run leaves (per-run result JSON, spans, the sweep table) goes under
perfbench/out/. See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import speed
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5


def import_program() -> None:
    """Put ./src (the program) and ./tests (the oracle) on sys.path; exit
    without a result if either is missing, rather than measuring some other
    installed copy."""
    needed = (ROOT / "src" / "healthmap" / "__init__.py",
              ROOT / "tests" / "helpers.py")
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        sys.exit(f"perfbench: missing {', '.join(missing)}; run from a "
                 f"healthmap checkout")
    sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]
    import healthmap
    if Path(healthmap.__file__).resolve().parent != ROOT / "src" / "healthmap":
        sys.exit(f"perfbench: imported healthmap from {healthmap.__file__}")


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def median0(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer, live_detections: int) -> dict:
    def med(name, scale, self_time=False):
        return median0(tracer.durations(name, self_time)) * scale

    c = tracer.counts
    reports = c["faultmgr.report_detection.calls"] or 1
    injects = sum(tracer.durations("main:inject"))
    simulates = len(tracer.durations("simulate")) or 1
    appended = [len(new) - len(old) for old, new in tracer.appends]
    changed = [len(tracing.changed_bytes(old, new))
               for old, new in tracer.appends]
    return {
        "cli.main.self_ms": med("main", 1e3, self_time=True),
        "codec.deserialize.ms": med("deserialize", 1e3),
        "codec.deserialize.share":
            tracer.within("deserialize", "main:inject") / injects
            if injects else 0.0,
        "codec.append_changes.ms": med("append_changes", 1e3),
        "codec.append_changes.bytes_changed":
            statistics.fmean(changed) if changed else 0.0,
        "codec.append_changes.bytes_appended":
            statistics.fmean(appended) if appended else 0.0,
        "codec.serialize.ms": med("serialize", 1e3),
        "faultmgr.report_detection.us": med("report_detection", 1e6),
        "faultmgr.report_detection.merged_ratio":
            c["faultmgr.report_detection.merged"] / reports,
        "faultmgr.report_detection.created_ratio":
            c["faultmgr.report_detection.created"] / reports,
        "resourcemap.update_single_fault.calls_per_report":
            c["resourcemap.update_single_fault.calls@report_detection"]
            / reports,
        "resourcemap.init_resource_map.ms": med("init_resource_map", 1e3),
        "resourcemap.render_table.ms": med("render_table", 1e3),
        "resourcemap.encode.us": med("encode", 1e6),
        "model.subtree_ids.ms": med("subtree_ids", 1e3),
        "model.detections_live": live_detections,
        "affinity.compute_affinity.us": med("compute_affinity", 1e6),
        "hierarchy.encode_summary.us": med("encode_summary", 1e6),
        "hierarchy.decode_summary.us": med("decode_summary", 1e6),
        "hierarchy.ingest_summary.us": med("ingest_summary", 1e6),
        "hierarchy.simulate.self_s": med("simulate", 1, self_time=True),
        "hierarchy.ingest_summary.skipped":
            c["hierarchy.ingest_summary.skipped"] / simulates,
        "compiler.parse_description.ms": med("parse_description", 1e3),
        "compiler.build_map.ms": med("build_map", 1e3),
        "footprint.synthesize_map.ms": med("synthesize_map", 1e3),
        "trace.spans": len(tracer.spans),
    }


def sweep_metrics(table: dict) -> dict:
    cells = [v for points in table["sizes"].values() for v in points.values()]
    depth = table["depth"]["resourcemap.init_resource_map"]
    out = {f"{step}.exp": exp for step, exp in table["exponents"].items()}
    out["sweep.timeouts"] = cells.count("timeout")
    out["resourcemap.init_resource_map.depth_errors"] = \
        list(depth.values()).count("error")
    return out


def run_one(args) -> int:
    import_program()
    import sweep
    import workloads

    workload_cls = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        setup_times, setup_ref, digests = [], [], set()
        setup_speed = speed.Speed()
        for _ in range(SETUP_REPEATS):
            for _ in range(speed.WINDOW):
                setup_speed.sample()
            workload = workload_cls(args.seed, workdir)
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)
            setup_ref.append(setup_times[-1] * setup_speed.factor())
            digests.add(workload.digest)
        phases = []
        if not args.trace:
            run = workloads.Run()
            workload.run(args.seconds, run)
            phases.append(run)
            named = workload.metrics(run)
        else:
            # the per-layer split and the overhead need no tail percentile,
            # so the two halves skip the sample floor to bound run time
            untraced = workloads.Run()
            workload.run(args.seconds / 2, untraced, floor=False)
            tracer = tracing.Tracer()
            tracing.install(tracer)
            workload = workload_cls(args.seed, workdir, tracer)
            tracer.active = True
            try:
                workload.setup()
                traced = workloads.Run()
                workload.run(args.seconds / 2, traced, floor=False)
            finally:
                tracer.uninstall()
            phases += [untraced, traced]
            named = workload.metrics(traced)
            before = workload.metrics(untraced)["op_p50_ms"][0]
            after = named["op_p50_ms"][0]
            table = sweep.run_sweep()
            layers = layer_metrics(tracer, workload.live_detections())
            layers.update(sweep_metrics(table))
            layers.update({"trace.op_p50_ms.untraced": before,
                           "trace.op_p50_ms.traced": after,
                           "trace.overhead_ratio": after / before - 1})
            stem = f"{args.workload}-seed{args.seed}"
            tracer.write(OUT / f"spans-{stem}.jsonl")
            (OUT / f"sweep-{stem}.json").write_text(
                json.dumps(table, indent=1))
            print("sweep " + json.dumps(table))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    named["setup_s"] = (statistics.median(setup_ref), "s")
    named["setup_wall_s"] = (statistics.median(setup_times), "s")
    named["reference_loop_ms"] = (1e3 * statistics.median(
        setup_speed.samples + [t for p in phases for t in p.speed.samples]),
        "ms")
    named["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    named["ops_failed_ratio"] = (failed / max(attempted, 1), "ratio")
    for p in phases:
        for failure in p.failures:
            print(f"FAILED {failure}")
    deterministic = len(digests) == 1
    if not deterministic:
        print(f"FAILED setup is not deterministic: {sorted(digests)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"input_digest {','.join(sorted(digests))}")
    for name, (value, unit) in named.items():
        print(f"{args.workload} {name} {value} {unit}")

    listed = spec()["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        for name, value in layers.items():
            print(f"layer {name} {value}")
        values = {m["name"]: layers[m["name"]] for m in listed}
    else:
        values = {m["name"]: named[m["name"]][0] for m in listed}
    result = {
        "correct": failed == 0 and deterministic and all(
            v == v for v in values.values()),     # no NaN from empty samples
        "attempted": attempted,
        "failed": failed,
        # nan (a metric with no samples) is not JSON; the run is then
        # already marked incorrect
        "metrics": {m["name"]: {"value": values[m["name"]]
                                if values[m["name"]] == values[m["name"]]
                                else None, "unit": m["unit"]}
                    for m in listed},
    }
    detail = {"input_digest": sorted(digests),
              "named": {k: {"value": v, "unit": u}
                        for k, (v, u) in named.items()},
              "setup_s_each": setup_times, **result}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(detail, indent=1))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process (so peak RSS is per workload), then
    one table of every end-to-end metric by name."""
    rows = []
    for name in [w["name"] for w in spec()["workloads"]]:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        detail = json.loads((OUT / f"result-{name}-seed{args.seed}-trace"
                             f"{args.trace}.json").read_text())
        rows += [(name, k, v["value"], v["unit"])
                 for k, v in detail["named"].items()]
        rows.append((name, "correct", detail["correct"], ""))
    for row in rows:
        print(f"{row[0]:<15} {row[1]:<24} {row[2]} {row[3]}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["field_image", "resident_sched", "rollup",
                                 "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
