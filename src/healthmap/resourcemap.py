"""Per-module health summary and the propagation procedures that fill it.

Each module gets one 7-byte entry (id u32, worst severity u8, worst
persistence u8, status u8). Severity propagates from child to parent capped
by the child's criticality (min), persistence propagates uncapped, and
dependency edges forward a fault to the dependent module capped by the
dependency severity, a single hop only.

Every stored severity, persistence and status is an enum member: a value
becomes one where it enters, by its `model.FIELDS` row at the public entry
points (`HealthMap.add_fault` and `add_fault_with_detection`,
`faultmgr.record_event`, `update_single_fault`) or by the codec's byte
tables, so the fold and the propagation walk store and compare the members
they are given.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Optional

from .errors import (
    MalformedMessageError,
    MissingSymbolError,
    UnknownModuleError,
)
from .model import (
    FIELDS,
    PERSISTENCES,
    SEVERITIES,
    STATUSES,
    Fault,
    HealthMap,
    ModuleStatus,
    Persistence,
    Severity,
    check_field,
    worst_faults,
)

RM_ENTRY = struct.Struct("<IBBB")
RM_ENTRY_SIZE = RM_ENTRY.size  # 7

_OWN = ModuleStatus.OWN_FAULT
_PROPAGATED = ModuleStatus.PROPAGATED_FAULT
_MAINTENANCE = ModuleStatus.MAINTENANCE


@dataclass(slots=True)
class RmEntry:
    module_id: int
    severity: Severity = Severity.ZERO
    persistence: Persistence = Persistence.ZERO
    status: ModuleStatus = ModuleStatus.AVAILABLE


# (field name, byte -> member table, the bytes that are members)
_FIELDS = tuple((name, table, bytes(range(len(table))))
                for name, table in (("severity", SEVERITIES),
                                    ("persistence", PERSISTENCES),
                                    ("status", STATUSES)))


def _check_enum_bytes(data: bytes) -> None:
    """Raise MalformedMessageError when a severity, persistence or status
    byte of the 7-byte entries in `data` is outside its enum.

    Each field is one column of the entries (every 7th byte), and a column
    is valid when deleting its members' bytes (`bytes.translate`, in C,
    building no ints) leaves nothing. On the error path the message names
    the first bad entry, and within it the first bad field in (severity,
    persistence, status) order: the minimum entry index over the columns,
    not the first column that fails.
    """
    bad = None
    for offset, (name, table, members) in enumerate(_FIELDS, 4):
        column = data[offset::RM_ENTRY_SIZE]
        if column.translate(None, members):
            i = next(i for i, v in enumerate(column) if v >= len(table))
            if bad is None or i < bad[0]:
                bad = i, name, column[i]
    if bad is not None:
        raise MalformedMessageError(
            f"entry {bad[0]}: {bad[1]} byte {bad[2]} out of range")


def decode_entries(data: bytes) -> list[RmEntry]:
    """Unpack consecutive 7-byte entries (len(data) a multiple of 7).

    Raises MalformedMessageError when a severity, persistence or status
    byte is outside its enum.
    """
    rows = RM_ENTRY.iter_unpack(data)   # checks the length first
    _check_enum_bytes(data)
    return [RmEntry(mid, SEVERITIES[sev], PERSISTENCES[pers],
                    STATUSES[status])
            for mid, sev, pers, status in rows]


class ResourceMap:
    """Snapshot summary over one health map; one entry per module."""

    def __init__(self, hm: HealthMap) -> None:
        self._hm = hm
        self.entries: dict[int, RmEntry] = {
            mid: RmEntry(mid) for mid in hm.modules
        }

    def entry(self, module_id: int) -> RmEntry:
        e = self.entries.get(module_id)
        if e is None:
            raise UnknownModuleError(f"module {module_id} has no entry")
        return e

    # -- update procedures ------------------------------------------------

    def update_single_fault(self, module_id: int, severity: Severity,
                            persistence: Persistence,
                            status: ModuleStatus) -> None:
        """Fold one fault's (severity, persistence, status) into the entry
        and propagate upward. Worst values are kept (max); OWN_FAULT is
        never downgraded to PROPAGATED_FAULT and MAINTENANCE is never
        overwritten here.
        """
        rows = FIELDS[Fault]
        self._update(module_id, check_field(severity, rows["severity"]),
                     check_field(persistence, rows["persistence"]),
                     check_field(status, (STATUSES, "module status")))

    def _update(self, module_id: int, severity: Severity,
                persistence: Persistence, status: ModuleStatus) -> None:
        """update_single_fault for members (never plain ints); in-package
        callers that hold members call it directly."""
        self._fold(module_id, severity, persistence, status)
        # Forward the *incoming* values, not the stored maxima: the entry's
        # maxima may include contributions whose dependency hop was already
        # spent, and forwarding those across a fresh dependency edge would
        # over-propagate.
        self._propagate([(module_id, severity, persistence, True)])

    def _fold(self, module_id: int, severity: Severity,
              persistence: Persistence, status: ModuleStatus) -> None:
        """Fold members (never plain ints) into the entry; see
        update_single_fault."""
        e = self.entries.get(module_id)
        if e is None:
            raise UnknownModuleError(f"module {module_id} has no entry")
        if severity > e.severity:
            e.severity = severity
        if persistence > e.persistence:
            e.persistence = persistence
        if severity and e.status is not _MAINTENANCE:
            if status is _OWN:
                e.status = _OWN
            elif status is _PROPAGATED and e.status is not _OWN:
                e.status = _PROPAGATED

    def _propagate(self, work: list[tuple[int, Severity, Persistence,
                                          bool]]) -> None:
        """Walk from every (module, severity, persistence, dependency hop
        still allowed) source in `work`, folding each contribution it
        carries into the entries it reaches as PROPAGATED_FAULT.

        One worklist replaces recursion, so parent chains of any depth
        work. `best[hop][module]` is the highest (severity, persistence)
        that has walked on from that module in that hop state. An arrival
        that raises neither is dropped; one that raises either walks on
        with the merged values. That is exact: every fold takes maxima and
        every cap is a min, so the merged values reach the same entries
        with the same maxima as the arrivals would one by one. An arrival
        is dropped before it is folded when its target has already walked
        on with values as high in the same hop state: each of those values
        was folded into the target's entry when it arrived, so the fold
        would change nothing.

        A ZERO severity is tested by truth (ZERO is 0), not compared with
        Severity.ZERO: most walks are a few steps long, so their fixed cost
        counts.
        """
        modules = self._hm.modules
        fold = self._fold
        best: tuple[dict[int, tuple[Severity, Persistence]], ...] = ({}, {})
        while work:
            mid, sev, pers, follow_deps = work.pop()
            if not sev:
                continue
            seen = best[follow_deps]
            walked = seen.get(mid)
            if walked is not None:
                if sev <= walked[0] and pers <= walked[1]:
                    continue
                sev, pers = max(sev, walked[0]), max(pers, walked[1])
            seen[mid] = sev, pers
            module = modules[mid]
            crit = module.criticality
            if crit and module.parent is not None:
                capped = min(sev, crit)
                to = module.parent.id
                walked = seen.get(to)
                if (walked is None or capped > walked[0]
                        or pers > walked[1]):
                    fold(to, capped, pers, _PROPAGATED)
                    work.append((to, capped, pers, follow_deps))
            if follow_deps:
                after = best[False]
                for dep in module.dependencies:
                    capped = min(sev, dep.severity)
                    if capped:
                        to = dep.dependent.id
                        walked = after.get(to)
                        if (walked is None or capped > walked[0]
                                or pers > walked[1]):
                            fold(to, capped, pers, _PROPAGATED)
                            work.append((to, capped, pers, False))

    # -- maintenance -------------------------------------------------------

    def set_maintenance(self, module_id: int, on: bool) -> None:
        """Mark or clear maintenance for a module and all its descendants.

        Clearing folds each affected entry's own maxima back in by the
        rule `init_resource_map` uses, so it gives the status a rebuild
        without that maintenance root would. Clearing reads the modules'
        faults, so a map loaded without all of them refuses it.
        """
        if not on:
            self._hm.require_whole("clear maintenance on")
        self._mark(self._hm.subtree_ids(module_id), on)

    def _mark(self, module_ids: Iterable[int], on: bool) -> None:
        entries = self.entries
        if on:
            for mid in module_ids:
                entries[mid].status = _MAINTENANCE
            return
        modules = self._hm.modules
        for mid in module_ids:
            e = entries[mid]
            e.status = ModuleStatus.AVAILABLE
            own = any(f.severity for f in modules[mid].faults)
            self._fold(mid, e.severity, e.persistence,
                       _OWN if own else _PROPAGATED)

    # -- encoding -----------------------------------------------------------

    def encode(self) -> bytes:
        """7 bytes per module, in module insertion order, packed by one
        call."""
        modules, entries = self._hm.modules, self.entries
        values = []
        for mid in modules:
            e = entries[mid]
            values += (e.module_id, e.severity, e.persistence, e.status)
        return struct.pack("<" + "IBBB" * len(modules), *values)


def init_resource_map(hm: HealthMap,
                      maintenance: Iterable[int] = ()) -> ResourceMap:
    """Populate a fresh resource map: fold each faulty module's own worst
    values, the triples its load kept (`hm._worst`) or else
    `model.worst_faults` of its faults, then propagate from all of them in
    one walk; the result is independent of iteration order. A map whose
    load built the faults of some modules only is refused.
    """
    worst = hm._worst
    if worst is None:
        hm.require_whole("build a resource map of")
        worst = worst_faults(hm.modules.values())
    rm = ResourceMap(hm)
    roots = tuple(maintenance)
    if roots:
        rm._mark(hm.subtree_ids(*roots), True)
    fold = rm._fold
    work = []
    for mid, severity, persistence in worst:
        fold(mid, severity, persistence, _OWN)
        work.append((mid, severity, persistence, True))
    rm._propagate(work)
    return rm


# the table's text of each level byte
_SEVERITY_NAMES = tuple(member.name for member in SEVERITIES)
_PERSISTENCE_NAMES = tuple(member.name for member in PERSISTENCES)
_STATUS_LABELS = tuple(member.label for member in STATUSES)


def render_table(rm: ResourceMap, sidecar) -> str:
    """Four-column text table, rows sorted by dotted module name."""
    rows = []
    name_for_id = sidecar.name_for_id
    for mid, e in rm.entries.items():
        name = name_for_id(mid)
        if name is None:
            raise MissingSymbolError(f"no symbol for module id {mid}")
        rows.append((name, _SEVERITY_NAMES[e.severity],
                     _PERSISTENCE_NAMES[e.persistence],
                     _STATUS_LABELS[e.status]))
    rows.sort(key=itemgetter(0))
    header = ("Module name", "Worst severity", "Worst persistence", "Status")
    widths = [max(len(r[i]) for r in [header] + rows) for i in range(3)]
    lines = []
    for row in [header] + rows:
        cells = [row[i].ljust(widths[i]) for i in range(3)] + [row[3]]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines)
