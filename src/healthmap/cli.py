"""`hm` command line: compile descriptions, validate/inspect images,
inject detections (append-only), report resource maps, compute affinity
masks, prune, estimate footprints and run hierarchy simulations.

Exit codes: 0 success, 1 validation/domain error, 2 usage error.

A command line is parsed by its subcommand's parser alone, which reports
every usage error, leftover arguments included, under its own usage; a line
that names no subcommand goes to the `hm` listing parser.

Each parser is built once per process (`build_parser` is cached): argparse
keeps no state between parses, so a caller that runs `main` many times in
one process, such as the test suite or the `perfbench` load model, pays
for it once; a one-shot `hm` command builds its parser once either way.
Every file a command writes goes to a temp file in its directory, written
through the descriptor that created it and renamed over the target
(`_replace_files`).

`main` pauses automatic garbage collection while a command runs and
restores the caller's setting when it returns. No command leaves cyclic
garbage behind: a map the command drops frees itself by reference
counting (`HealthMap.__del__`), inside `main`, so nothing waits on a
collection, during the command or after it.
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import stat
import sys
import tempfile
from pathlib import Path

from . import affinity as affinity_mod
from . import codec, compiler, faultmgr, footprint, hierarchy, resourcemap
from .errors import HealthMapError
from .model import (QUOTED_CHARS, U32_MAX, Severity, check_path, int_token,
                    quote_path, quote_token, read_bytes, read_text)


def _replace_files(*files: tuple[Path, bytes]) -> None:
    """Write a synced temp file in each target's directory, and only when
    every one is written rename each over its target in one step. Each
    file is all or nothing, the set is not: a failure between two renames
    leaves the files renamed so far beside the old ones, such as a new
    image beside an old sidecar. An existing file keeps its mode; a new one
    gets the mode a plain write would give it.

    Each temp file is written, given its mode and synced through the
    descriptor `mkstemp` opened with O_EXCL, never reopened by name, so
    the bytes go to the file that `mkstemp` created.

    Two targets that name one directory entry, such as "out.shm" and
    "./out.shm", are refused before anything is written: the second rename
    would put its bytes in place of the first's. So is a target that is a
    directory, which a rename cannot replace: an earlier target would
    already hold its new bytes."""
    entries = set()
    for path, _data in files:
        check_path(path)    # mkstemp would raise ValueError
        if path.is_dir() and not path.is_symlink():
            raise HealthMapError(
                f"output is a directory: {quote_path(path, repr)}")
        entry = (os.path.realpath(path.parent), path.name)
        if entry in entries:
            raise HealthMapError(
                f"two outputs name one file: {quote_path(path, repr)}")
        entries.add(entry)
    temps: list[str] = []
    renamed = 0
    try:
        for path, data in files:
            fd, name = tempfile.mkstemp(dir=path.parent,
                                        prefix=f".{path.name}.",
                                        suffix=".tmp")
            temps.append(name)
            try:
                view = memoryview(data)
                while view:     # a write may take only part of it
                    view = view[os.write(fd, view):]
                try:
                    mode = stat.S_IMODE(os.stat(path).st_mode)
                except FileNotFoundError:
                    umask = os.umask(0)
                    os.umask(umask)
                    mode = 0o666 & ~umask
                os.fchmod(fd, mode)
                os.fsync(fd)
            finally:
                os.close(fd)
        for (path, _data), name in zip(files, temps):
            os.replace(name, path)
            renamed += 1
    finally:
        for name in temps[renamed:]:
            try:
                os.unlink(name)
            except FileNotFoundError:
                pass


def _load_sidecar(path, hm) -> compiler.Sidecar:
    """The sidecar at `path`, or one naming each module by its id."""
    if path is not None:
        return compiler.Sidecar.parse(read_text(path))
    sidecar = compiler.Sidecar()
    for mid in hm.modules:
        sidecar.add(mid, str(mid))
    return sidecar


def _maintenance_ids(values, sidecar) -> list[int]:
    ids = []
    for value in values or ():
        if value.isdecimal():   # int() accepts these; isdigit() is wider
            # a long id is bounded, so an error quotes it and never prints
            # its digits whole; no module has an id past U32_MAX
            ids.append(int_token(value, "module id", HealthMapError, U32_MAX
                                 if len(value) > QUOTED_CHARS else None))
            continue
        mid = sidecar.id_for_name(value)
        if mid is None:
            raise HealthMapError(f"unknown module name {quote_token(value)}")
        ids.append(mid)
    return ids


def cmd_compile(args) -> int:
    image, sidecar = compiler.compile_xml(read_text(args.xml))
    files = [(Path(args.output), image)]
    if args.sym:
        files.append((Path(args.sym), sidecar.format().encode()))
    _replace_files(*files)
    print(f"wrote {args.output} ({len(image)} bytes)")
    return 0


def cmd_validate(args) -> int:
    _hm, _triples, counts = codec._check(read_bytes(args.shm))
    modules, _r, _d, faults, detections = counts
    print(f"{args.shm}: valid ({modules} modules, {faults} faults, "
          f"{detections} detections)")
    return 0


def cmd_dump(args) -> int:
    data = read_bytes(args.shm)
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
    image = read_bytes(path)
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


def _resource_map(args) -> tuple[resourcemap.ResourceMap, compiler.Sidecar]:
    """The resource map of `args.shm` with `args.maintenance` marked, and
    the sidecar that names its modules. The image's check builds no diag
    resource and no fault: each module's worst fault values suffice."""
    hm, worst, _counts = codec._check(read_bytes(args.shm))
    sidecar = _load_sidecar(args.sym, hm)
    marks = _maintenance_ids(args.maintenance, sidecar)
    return (resourcemap.init_resource_map(hm, maintenance=marks,
                                          worst=worst), sidecar)


def cmd_rm(args) -> int:
    rm, sidecar = _resource_map(args)
    print(resourcemap.render_table(rm, sidecar))
    return 0


def cmd_affinity(args) -> int:
    rm, sidecar = _resource_map(args)
    tasks = affinity_mod.parse_task_file(read_text(args.tasks))
    masks = affinity_mod.compute_affinity(rm, sidecar, tasks)
    print(affinity_mod.format_masks(masks))
    return 0


def cmd_prune(args) -> int:
    path = Path(args.shm)
    hm = codec.deserialize(read_bytes(path))
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
    scenario = hierarchy.Scenario.parse(read_text(path), path.parent)
    result = hierarchy.simulate(scenario)
    if args.out:
        out = Path(args.out)
        check_path(out)     # mkdir would raise ValueError
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
        (("--payload",), {"type": faultmgr.hexadecimal, "default": 0,
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


class _Parser(argparse.ArgumentParser):
    """Refuses `--flag=--` as `--flag --` (argparse reads it as [] or "--").
    A refused value gets argparse's message alone, without the usage, with
    the value quoted by `quote_token`. So is the line of unrecognized
    tokens when it has more than QUOTED_CHARS characters: argparse would
    echo either whole, so a hostile token, or many, would fill the log."""

    def _get_values(self, action, arg_strings):
        if action.option_strings and arg_strings == ["--"]:
            raise argparse.ArgumentError(action, "expected one argument")
        try:
            return super()._get_values(action, arg_strings)
        except argparse.ArgumentError as exc:
            message = exc.message
            for token in arg_strings:
                message = message.replace(repr(token), quote_token(token))
            error = argparse.ArgumentError(action, message)
            self.exit(2, f"{self.prog}: error: {error}\n")

    def parse_args(self, args=None, namespace=None):
        args, extra = self.parse_known_args(args, namespace)
        if extra:
            line = " ".join(extra)
            if len(line) <= QUOTED_CHARS:
                self.error(f"unrecognized arguments: {line}")
            # a quoted line stands alone, as a refused value's does
            self.exit(2, f"{self.prog}: error: unrecognized arguments: "
                         f"{quote_token(line)}\n")
        return args


@functools.cache
def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of one subcommand (`hm NAME`), or with no name the `hm`
    listing parser, which holds no subcommand's arguments. Each is built
    once per process and shared: a parse leaves no state in it."""
    if command is None:
        parser = _Parser(prog="hm", description="Health map toolkit")
        sub = parser.add_subparsers(dest="command", required=True)
        for name, (_func, help_text, _arguments) in _COMMANDS.items():
            sub.add_parser(name, help=help_text)
        return parser
    func, _help_text, arguments = _COMMANDS[command]
    parser = _Parser(prog=f"hm {command}")
    for flags, options in arguments:
        parser.add_argument(*flags, **options)
    parser.set_defaults(func=func)
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse with the named subcommand's parser alone, else with the
    listing parser."""
    if argv and argv[0] in _COMMANDS:
        return build_parser(argv[0]).parse_args(argv[1:])
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    # automatic collection pauses while the command runs: the records it
    # builds stay reachable until it returns, so a pass would only rescan
    # them, and no command leaves cyclic garbage, on the way or at its end
    # (the one parse cycle is broken in `compiler._parse_with_lines`, and a
    # dropped map frees itself)
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        try:
            status = args.func(args)
            sys.stdout.flush()   # a closed pipe shows here, not at exit
            return status
        except BrokenPipeError:
            # the reader closed stdout: every file goes through a temp
            # file, so only a print can meet a pipe, and prints come after
            # the command's files are written; stop quietly, as the reader
            # chose
            _discard_stdout()
            return 0
        except (HealthMapError, OSError) as exc:
            # an OSError echoes its file names whole: quote them as paths
            message = str(exc)
            for name in (getattr(exc, "filename", None),
                         getattr(exc, "filename2", None)):
                if isinstance(name, str):
                    message = message.replace(repr(name),
                                              quote_path(name, repr))
            print(f"error: {message}", file=sys.stderr)
            return 1
    finally:
        if enabled:
            gc.enable()


def _discard_stdout() -> None:
    """Point stdout's file descriptor at the null device, so the output
    still buffered goes nowhere at the interpreter's final flush rather
    than raising there. A stdout without a descriptor, an in-process
    caller's stand-in, is left as it is."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, fd)
    finally:
        os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
