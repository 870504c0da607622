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
            tmp = Path(name)
            temps.append(tmp)
            try:
                tmp.write_bytes(data)
                try:
                    shutil.copymode(path, tmp)
                except FileNotFoundError:
                    umask = os.umask(0)
                    os.umask(umask)
                    tmp.chmod(0o666 & ~umask)
                # syncs the file, whichever descriptor wrote it
                os.fsync(fd)
            finally:
                os.close(fd)
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
        _replace_files((out / "messages.log", result.message_text().encode()),
                       (out / "rm.log", result.rm_text().encode()))
        print(f"wrote {out / 'messages.log'} and {out / 'rm.log'}")
    else:
        sys.stdout.write(result.message_text())
        sys.stdout.write(result.rm_text())
    return 0


# name -> (handler, help, arguments as (flags, keyword options) pairs), in
# the order `hm -h` lists them
_COMMANDS = {
    "compile": (cmd_compile, "compile an XML description", (
        (("xml",), {}),
        (("-o", "--output"), {"required": True}),
        (("--sym",), {"help": "write the name sidecar here"}),
    )),
    "validate": (cmd_validate, "validate a binary image", (
        (("shm",), {}),
    )),
    "dump": (cmd_dump, "print image contents", (
        (("shm",), {}),
        (("--sym",), {}),
    )),
    "inject": (cmd_inject, "ingest one detection (append-only update)", (
        (("shm",), {}),
        (("--detector",), {"type": int, "required": True}),
        (("--sev",), {"required": True,
                      "choices": [s.name for s in Severity
                                  if s != Severity.ZERO]}),
        (("--class",), {"dest": "clazz", "type": int, "required": True}),
        (("--t",), {"type": int, "required": True,
                    "help": "timestamp in microseconds"}),
        (("--payload",), {"type": _hex, "default": 0,
                          "help": "raw sensor word, hex"}),
    )),
    "rm": (cmd_rm, "print the resource map table", (
        (("shm",), {}),
        (("--sym",), {}),
        (("--maintenance",), {"action": "append", "metavar": "MODULE",
                              "help": "mark a module (name or id) under "
                                      "maintenance; repeatable"}),
    )),
    "affinity": (cmd_affinity, "compute task affinity masks", (
        (("shm",), {}),
        (("--tasks",), {"required": True}),
        (("--sym",), {}),
        (("--maintenance",), {"action": "append", "metavar": "MODULE"}),
    )),
    "prune": (cmd_prune, "merge duplicate fault data", (
        (("shm",), {}),
    )),
    "estimate": (cmd_estimate, "footprint estimate for C cores", (
        (("--cores",), {"type": int, "required": True}),
    )),
    "simulate": (cmd_simulate, "run a hierarchy scenario", (
        (("scenario",), {}),
        (("--out",), {"help": "directory for messages.log and rm.log"}),
    )),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The `hm` parser. Given the name of a subcommand it builds only that
    subcommand's parser, which is much cheaper and parses and reports any
    command line that starts with that name as the full parser does."""
    parser = argparse.ArgumentParser(
        prog="hm", description="Health map toolkit")
    # a parser that knows one command still lists all of them in its usage
    metavar = None if command is None else "{%s}" % ",".join(_COMMANDS)
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar=metavar)
    for name in _COMMANDS if command is None else (command,):
        func, help_text, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        return args.func(args)
    except (HealthMapError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
