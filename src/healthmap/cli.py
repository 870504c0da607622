"""`hm` command line: compile descriptions, validate/inspect images,
inject detections (append-only), report resource maps, compute affinity
masks, prune, estimate footprints and run hierarchy simulations.

Exit codes: 0 success, 1 validation/domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
from pathlib import Path

from . import affinity as affinity_mod
from . import codec, compiler, faultmgr, footprint, hierarchy, resourcemap
from .errors import HealthMapError
from .model import Severity


def _replace_files(*files: tuple[Path, bytes]) -> None:
    """Write files all or nothing: write a synced temp file in each target's
    directory, and only when every one is written rename each over its
    target in one step. An existing file keeps its mode; a new one gets the
    mode a plain write would give it."""
    temps = []
    try:
        for path, data in files:
            fd, name = tempfile.mkstemp(dir=path.parent,
                                        prefix=f".{path.name}.",
                                        suffix=".tmp")
            os.close(fd)
            tmp = Path(name)
            temps.append(tmp)
            tmp.write_bytes(data)
            try:
                shutil.copymode(path, tmp)
            except FileNotFoundError:
                umask = os.umask(0)
                os.umask(umask)
                tmp.chmod(0o666 & ~umask)
            with tmp.open("rb") as fh:
                os.fsync(fh.fileno())
        for (path, _data), tmp in zip(files, temps):
            os.replace(tmp, path)
    finally:
        for tmp in temps:
            tmp.unlink(missing_ok=True)


def _hex(text: str) -> int:
    try:
        return int(text, 16) if text else 0
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a hex number") from None


def _load_sidecar(path, hm) -> compiler.Sidecar:
    """The sidecar at `path`, or one naming each module by its id."""
    if path is not None:
        return compiler.Sidecar.parse(Path(path).read_text())
    sidecar = compiler.Sidecar()
    for mid in hm.modules:
        sidecar.add(mid, str(mid))
    return sidecar


def _maintenance_ids(values, sidecar) -> list[int]:
    ids = []
    for value in values or ():
        if value.isdecimal():   # int() accepts these; isdigit() is wider
            ids.append(int(value))
            continue
        mid = sidecar.id_for_name(value)
        if mid is None:
            raise HealthMapError(f"unknown module name {value!r}")
        ids.append(mid)
    return ids


def cmd_compile(args) -> int:
    image, sidecar = compiler.compile_xml(Path(args.xml).read_text())
    files = [(Path(args.output), image)]
    if args.sym:
        files.append((Path(args.sym), sidecar.format().encode()))
    _replace_files(*files)
    print(f"wrote {args.output} ({len(image)} bytes)")
    return 0


def cmd_validate(args) -> int:
    data = Path(args.shm).read_bytes()
    hm = codec.validate_image(data)
    print(f"{args.shm}: valid ({len(hm.modules)} modules, "
          f"{len(hm.faults)} faults, {len(hm.detections)} detections)")
    return 0


def cmd_dump(args) -> int:
    data = Path(args.shm).read_bytes()
    hm = codec.deserialize(data)
    sidecar = _load_sidecar(args.sym, hm)
    print(f"image: {len(data)} bytes, {len(hm.modules)} modules, "
          f"{len(hm.diag_resources)} diag resources, "
          f"{len(hm.dependencies)} dependencies, {len(hm.faults)} faults, "
          f"{len(hm.detections)} detections")
    for module in hm.modules.values():
        name = sidecar.name_for_id(module.id) or str(module.id)
        parent = module.parent.id if module.parent else "-"
        print(f"module {module.id} name={name} parent={parent} "
              f"crit={module.criticality.name}")
        for res in module.diag_resources:
            print(f"  instrument {res.id} kind={res.kind}")
        for dep in module.dependencies:
            print(f"  dependency -> {dep.dependent.id} "
                  f"sev={dep.severity.name}")
        for fault in module.faults:
            print(f"  fault class={fault.classification} "
                  f"sev={fault.severity.name} "
                  f"pers={fault.persistence.name}")
            for det in fault.detections:
                print(f"    detection detector={det.detector.id} "
                      f"t={det.timestamp} count={det.counter} "
                      f"payload=0x{det.payload:x} flags=0x{det.flags:x}")
    return 0


def cmd_inject(args) -> int:
    path = Path(args.shm)
    image = path.read_bytes()
    # only the detections of the module that owns the detector are read
    hm = codec._load(image, args.detector)
    report = faultmgr.DetectionReport(
        detector_id=args.detector,
        severity=Severity[args.sev],
        classification=args.clazz,
        timestamp=args.t,
        payload=args.payload,
    )
    fault, created = faultmgr.report_detection(hm, report)
    updated = codec.append_changes(image, hm)
    _replace_files((path, updated))
    action = "created fault" if created else "updated fault"
    print(f"{action} class={fault.classification} on module "
          f"{fault.owner.id}; image now {len(updated)} bytes")
    return 0


def cmd_rm(args) -> int:
    hm = codec._load(Path(args.shm).read_bytes())    # faults suffice
    sidecar = _load_sidecar(args.sym, hm)
    marks = _maintenance_ids(args.maintenance, sidecar)
    rm = resourcemap.init_resource_map(hm, maintenance=marks)
    print(resourcemap.render_table(rm, sidecar))
    return 0


def cmd_affinity(args) -> int:
    hm = codec._load(Path(args.shm).read_bytes())
    sidecar = _load_sidecar(args.sym, hm)
    marks = _maintenance_ids(args.maintenance, sidecar)
    rm = resourcemap.init_resource_map(hm, maintenance=marks)
    tasks = affinity_mod.parse_task_file(Path(args.tasks).read_text())
    masks = affinity_mod.compute_affinity(rm, sidecar, tasks)
    print(affinity_mod.format_masks(masks))
    return 0


def cmd_prune(args) -> int:
    path = Path(args.shm)
    hm = codec.deserialize(path.read_bytes())
    removed = faultmgr.prune(hm)
    image = codec.serialize(hm)
    _replace_files((path, image))
    print(f"merged {removed} records; image now {len(image)} bytes")
    return 0


def cmd_estimate(args) -> int:
    print(footprint.estimate(args.cores).render())
    return 0


def cmd_simulate(args) -> int:
    path = Path(args.scenario)
    scenario = hierarchy.Scenario.parse(path.read_text(), path.parent)
    result = hierarchy.simulate(scenario)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "messages.log").write_text(result.message_text())
        (out / "rm.log").write_text(result.rm_text())
        print(f"wrote {out / 'messages.log'} and {out / 'rm.log'}")
    else:
        sys.stdout.write(result.message_text())
        sys.stdout.write(result.rm_text())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hm", description="Health map toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile an XML description")
    p.add_argument("xml")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--sym", help="write the name sidecar here")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("validate", help="validate a binary image")
    p.add_argument("shm")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("dump", help="print image contents")
    p.add_argument("shm")
    p.add_argument("--sym")
    p.set_defaults(func=cmd_dump)

    p = sub.add_parser("inject",
                       help="ingest one detection (append-only update)")
    p.add_argument("shm")
    p.add_argument("--detector", type=int, required=True)
    p.add_argument("--sev", required=True,
                   choices=[s.name for s in Severity if s != Severity.ZERO])
    p.add_argument("--class", dest="clazz", type=int, required=True)
    p.add_argument("--t", type=int, required=True,
                   help="timestamp in microseconds")
    p.add_argument("--payload", type=_hex, default=0,
                   help="raw sensor word, hex")
    p.set_defaults(func=cmd_inject)

    p = sub.add_parser("rm", help="print the resource map table")
    p.add_argument("shm")
    p.add_argument("--sym")
    p.add_argument("--maintenance", action="append", metavar="MODULE",
                   help="mark a module (name or id) under maintenance; "
                        "repeatable")
    p.set_defaults(func=cmd_rm)

    p = sub.add_parser("affinity", help="compute task affinity masks")
    p.add_argument("shm")
    p.add_argument("--tasks", required=True)
    p.add_argument("--sym")
    p.add_argument("--maintenance", action="append", metavar="MODULE")
    p.set_defaults(func=cmd_affinity)

    p = sub.add_parser("prune", help="merge duplicate fault data")
    p.add_argument("shm")
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("estimate", help="footprint estimate for C cores")
    p.add_argument("--cores", type=int, required=True)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("simulate", help="run a hierarchy scenario")
    p.add_argument("scenario")
    p.add_argument("--out", help="directory for messages.log and rm.log")
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (HealthMapError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
