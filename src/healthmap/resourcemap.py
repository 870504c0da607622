"""Per-module health summary and the propagation procedures that fill it.

Each module gets one 7-byte entry (id u32, worst severity u8, worst
persistence u8, status u8). Severity propagates from child to parent capped
by the child's criticality (min), persistence propagates uncapped, and
dependency edges forward a fault to the dependent module capped by the
dependency severity, a single hop only.

Every stored severity, persistence and status is an enum member: the model
converts once at its public entry points (`HealthMap.add_fault`,
`faultmgr.record_event`, `ResourceMap.update_single_fault`, the codec's
byte tables), so the fold and the propagation walk store and compare the
members they are given.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import (
    MalformedMessageError,
    MissingSymbolError,
    UnknownModuleError,
)
from .model import (
    PERSISTENCES,
    SEVERITIES,
    STATUSES,
    HealthMap,
    ModuleStatus,
    Persistence,
    Severity,
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


_FIELDS = (("severity", SEVERITIES), ("persistence", PERSISTENCES),
           ("status", STATUSES))


def _check_enum_bytes(data: bytes) -> None:
    """Raise MalformedMessageError when a severity, persistence or status
    byte of the 7-byte entries in `data` is outside its enum.

    Each field is one column of the entries (every 7th byte), so a valid
    body costs three C-level `max` scans. On the error path the message
    names the first bad entry, and within it the first bad field in
    (severity, persistence, status) order: the minimum entry index over
    the columns, not the first column that fails.
    """
    bad = None
    for offset, (name, table) in enumerate(_FIELDS, 4):
        column = data[offset::RM_ENTRY_SIZE]
        if max(column, default=0) >= len(table):
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
        self._update(module_id, Severity(severity),
                     Persistence(persistence), ModuleStatus(status))

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
        with the same maxima as the arrivals would one by one.

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
                fold(module.parent.id, capped, pers, _PROPAGATED)
                work.append((module.parent.id, capped, pers, follow_deps))
            if follow_deps:
                for dep in module.dependencies:
                    capped = min(sev, dep.severity)
                    if capped:
                        fold(dep.dependent.id, capped, pers, _PROPAGATED)
                        work.append((dep.dependent.id, capped, pers, False))

    # -- maintenance -------------------------------------------------------

    def set_maintenance(self, module_id: int, on: bool) -> None:
        """Mark or clear maintenance for a module and all its descendants.

        Clearing folds each affected entry's own maxima back in by the
        rule `init_resource_map` uses, so it gives the status a rebuild
        without that maintenance root would.
        """
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
    """Populate a fresh resource map: fold every faulty module's own worst
    values, then propagate from all of them in one walk; the result is
    independent of iteration order.
    """
    rm = ResourceMap(hm)
    roots = tuple(maintenance)
    if roots:
        rm._mark(hm.subtree_ids(*roots), True)
    work = []
    for module in hm.modules.values():
        faults = module.faults
        if not faults:
            continue
        severity, persistence = faults[0].severity, faults[0].persistence
        for f in faults:
            if f.severity > severity:
                severity = f.severity
            if f.persistence > persistence:
                persistence = f.persistence
        rm._fold(module.id, severity, persistence, _OWN)
        work.append((module.id, severity, persistence, True))
    rm._propagate(work)
    return rm


def render_table(rm: ResourceMap, sidecar) -> str:
    """Four-column text table, rows sorted by dotted module name."""
    rows = []
    for mid, e in rm.entries.items():
        name = sidecar.name_for_id(mid)
        if name is None:
            raise MissingSymbolError(f"no symbol for module id {mid}")
        rows.append((name, e.severity.name, e.persistence.name,
                     e.status.label))
    rows.sort(key=lambda r: r[0])
    header = ("Module name", "Worst severity", "Worst persistence", "Status")
    widths = [max(len(r[i]) for r in [header] + rows) for i in range(3)]
    lines = []
    for row in [header] + rows:
        cells = [row[i].ljust(widths[i]) for i in range(3)] + [row[3]]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines)
