"""Health-aware core affinity masks: compare per-core resource map entries
(and required sub-modules) against task tolerances and emit one bit vector
per task. Bit k set means OS core k may run the task.

A mask is as wide as the largest core id plus one, so core ids are capped
at MAX_CORE_ID (8191): a Linux kernel is built for at most 8192 CPUs
(NR_CPUS), and a larger id would name no core while costing a mask of up
to 2^32 bits per task. A sidecar may still declare any u32 core id;
`compute_affinity` rejects one above the cap before it builds any mask.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable

from .errors import (
    CoreIdRangeError,
    NoCoreIdsError,
    ScenarioError,
    UnknownSubmoduleError,
)
from .model import ModuleStatus, Persistence, Severity, text_lines
from .resourcemap import ResourceMap

MAX_CORE_ID = 8191        # NR_CPUS is at most 8192


@dataclass
class TaskRequirement:
    name: str
    required_submodules: list[str] = field(default_factory=list)
    max_severity: Severity = Severity.ZERO
    max_persistence: Persistence = Persistence.ZERO


@dataclass
class AffinityMask:
    task_name: str
    mask: int
    width: int

    def format(self) -> str:
        return f"{self.task_name} 0x{self.mask:x}"


def _entry_ok(entry, task: TaskRequirement) -> bool:
    # a PROPAGATED_FAULT core counts by its numeric values only
    return (entry.status != ModuleStatus.MAINTENANCE
            and entry.severity <= task.max_severity
            and entry.persistence <= task.max_persistence)


def compute_affinity(rm: ResourceMap, sidecar,
                     tasks: Iterable[TaskRequirement]) -> list[AffinityMask]:
    """One mask per task; sub-modules are matched by dotted-name suffix
    under the core's name (core "CPU.C0" + suffix "FPU" -> "CPU.C0.FPU"),
    resolved through the sidecar's own index, where the first id listed
    under a repeated name wins. A core lacking a required sub-module is
    excluded for that task.
    """
    cores = sidecar.core_modules()
    if not cores:
        raise NoCoreIdsError("no module carries a core id")
    width = max(cores.values()) + 1
    if width > MAX_CORE_ID + 1:
        mid = next(m for m, c in cores.items() if c == width - 1)
        raise CoreIdRangeError(f"module {mid}: core id {width - 1} above "
                               f"{MAX_CORE_ID}")
    name_for_id, id_for_name = sidecar.name_for_id, sidecar.id_for_name

    tasks = list(tasks)
    for task in tasks:
        for suffix in task.required_submodules:
            if not any(id_for_name(f"{name_for_id(cm)}.{suffix}") is not None
                       for cm in cores):
                raise UnknownSubmoduleError(
                    f"task {task.name!r}: sub-module {suffix!r} resolves "
                    f"for no core")

    masks = []
    for task in tasks:
        mask = 0
        for core_module, core_id in cores.items():
            ok = _entry_ok(rm.entry(core_module), task)
            for suffix in task.required_submodules:
                if not ok:
                    break
                sub_id = id_for_name(f"{name_for_id(core_module)}.{suffix}")
                ok = sub_id is not None and _entry_ok(rm.entry(sub_id), task)
            if ok:
                mask |= 1 << core_id
        masks.append(AffinityMask(task.name, mask, width))
    return masks


_TASK_RE = re.compile(
    r"^task\s+(?P<name>\S+)"
    r"(?:\s+needs=(?P<needs>[\w.,]+))?"
    r"(?:\s+maxSev=(?P<sev>\w+))?"
    r"(?:\s+maxPers=(?P<pers>\w+))?\s*$")


def parse_task_file(text: str) -> list[TaskRequirement]:
    """One task per line:
    `task <name> [needs=<SUB,...>] [maxSev=<SEV>] [maxPers=<PERS>]`.
    """
    tasks = []
    for lineno, line in text_lines(text):
        match = _TASK_RE.match(line)
        if not match:
            raise ScenarioError(f"task file line {lineno}: bad syntax "
                                f"{line!r}")
        try:
            max_sev = (Severity[match.group("sev")]
                       if match.group("sev") else Severity.ZERO)
            max_pers = (Persistence[match.group("pers")]
                        if match.group("pers") else Persistence.ZERO)
        except KeyError as exc:
            raise ScenarioError(
                f"task file line {lineno}: bad enum value {exc}") from None
        needs = (match.group("needs").split(",")
                 if match.group("needs") else [])
        tasks.append(TaskRequirement(match.group("name"), needs,
                                     max_sev, max_pers))
    return tasks


def format_masks(masks: Iterable[AffinityMask]) -> str:
    return "\n".join(m.format() for m in masks)
