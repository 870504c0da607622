"""Per-module health summary and the propagation procedures that fill it.

A resource map is its RMS1 entry table: one `bytearray` of 7-byte entries
(id u32, worst severity u8, worst persistence u8, status u8), one per
module in `hm.modules` order, exactly the bytes a summary message carries.
A dict maps each module id to the offset of its entry's severity byte. So a
rebuild packs the id column in one call and builds no per-module object,
the fold and the propagation walk read and write bytes, and `encode` is one
copy. Severity propagates from child to parent capped by the child's
criticality (min), persistence propagates uncapped, and dependency edges
forward a fault to the dependent module capped by the dependency severity,
a single hop only.

Levels become enum members at the API. A value is checked where it enters,
by its `model.FIELDS` row at the public entry points (`HealthMap.add_fault`
and `add_fault_with_detection`, `faultmgr.record_event`,
`update_single_fault`, the `RmEntry` setters) or by the codec's byte
tables, so only a level's byte is ever stored. An `RmEntry` is a view of
one entry of a table: its `severity`, `persistence` and `status` read
members through `SEVERITIES` / `PERSISTENCES` / `STATUSES`, and a write
goes through to the table.
"""

from __future__ import annotations

import struct
from operator import itemgetter
from typing import Iterable

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
    Module,
    ModuleStatus,
    Persistence,
    Severity,
    check_field,
    worst_faults,
)

RM_ENTRY = struct.Struct("<IBBB")
RM_ENTRY_SIZE = RM_ENTRY.size  # 7
_ID = struct.Struct("<I")

_OWN = ModuleStatus.OWN_FAULT
_PROPAGATED = ModuleStatus.PROPAGATED_FAULT
_MAINTENANCE = ModuleStatus.MAINTENANCE

# the status is no record field, but is checked as a level is
_STATUS_ROW = (STATUSES, "module status")
# (field name, its `check_field` row, the bytes that are members), in
# entry order from the severity byte on; a row's limit is the field's
# byte -> member table
_FIELDS = tuple((name, row, bytes(range(len(row[0]))))
                for name, row in (("severity", FIELDS[Fault]["severity"]),
                                  ("persistence",
                                   FIELDS[Fault]["persistence"]),
                                  ("status", _STATUS_ROW)))


class RmEntry:
    """One resource map entry: a view of the 7 bytes of a table whose
    severity byte is at `_at`. `RmEntry(module_id, severity, persistence,
    status)` builds a standalone entry over a table of its own; views of a
    map's table come from `ResourceMap.entry` and `.entries`, and of a
    decoded body from `decode_entries`. A level setter checks its value by
    the field's row and raises the row's `FieldRangeError`."""

    __slots__ = ("_table", "_at")

    def __init__(self, module_id: int, severity: Severity = Severity.ZERO,
                 persistence: Persistence = Persistence.ZERO,
                 status: ModuleStatus = ModuleStatus.AVAILABLE) -> None:
        self._table = bytearray(RM_ENTRY_SIZE)
        self._at = 4
        _ID.pack_into(self._table, 0,
                      check_field(module_id, FIELDS[Module]["id"]))
        self.severity, self.persistence, self.status = (severity,
                                                        persistence, status)

    @property
    def module_id(self) -> int:
        return _ID.unpack_from(self._table, self._at - 4)[0]

    def __eq__(self, other):
        if type(other) is not RmEntry:
            return NotImplemented
        return (self._table[self._at - 4:self._at + 3]
                == other._table[other._at - 4:other._at + 3])

    __hash__ = None

    def __repr__(self) -> str:
        return (f"RmEntry(module_id={self.module_id}, "
                f"severity={self.severity!r}, "
                f"persistence={self.persistence!r}, status={self.status!r})")


def _level(at: int, row: tuple) -> property:
    members = row[0]

    def get(self):
        return members[self._table[self._at + at]]

    def put(self, value) -> None:
        self._table[self._at + at] = check_field(value, row)

    return property(get, put)


for _i, (_name, _row, _members) in enumerate(_FIELDS):
    setattr(RmEntry, _name, _level(_i, _row))
del _i, _name, _row, _members


def _view(table: bytearray, at: int) -> RmEntry:
    """The entry of `table` whose severity byte is at `at`."""
    entry = object.__new__(RmEntry)
    entry._table, entry._at = table, at
    return entry


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
    for offset, (name, _row, members) in enumerate(_FIELDS, 4):
        column = data[offset::RM_ENTRY_SIZE]
        if column.translate(None, members):
            i = next(i for i, v in enumerate(column) if v >= len(members))
            if bad is None or i < bad[0]:
                bad = i, name, column[i]
    if bad is not None:
        raise MalformedMessageError(
            f"entry {bad[0]}: {bad[1]} byte {bad[2]} out of range")


def decode_entries(data: bytes) -> list[RmEntry]:
    """Views of consecutive 7-byte entries over one copy of `data`.

    Raises MalformedMessageError when len(data) is not a multiple of 7 or
    a severity, persistence or status byte is outside its enum.
    """
    if len(data) % RM_ENTRY_SIZE:
        raise MalformedMessageError(
            f"entry table of {len(data)} bytes, not a multiple of "
            f"{RM_ENTRY_SIZE}")
    _check_enum_bytes(data)
    table = bytearray(data)
    return [_view(table, at) for at in range(4, len(table), RM_ENTRY_SIZE)]


class ResourceMap:
    """Snapshot summary over one health map: its RMS1 entry table, one
    entry per module of `hm.modules` at build time, in that order."""

    def __init__(self, hm: HealthMap) -> None:
        self._hm = hm
        ids = hm.modules
        # the ids packed as one u32 column, then spread over the entries
        # byte by byte: a format of one code per entry would stay cached
        # in `struct`, as large as the table
        packed = struct.pack(f"<{len(ids)}I", *ids)
        table = self._table = bytearray(RM_ENTRY_SIZE * len(ids))
        for k in range(4):
            table[k::RM_ENTRY_SIZE] = packed[k::4]
        # module id -> the offset of its entry's severity byte
        self._offsets = dict(zip(ids, range(4, len(self._table),
                                            RM_ENTRY_SIZE)))

    def entry(self, module_id: int) -> RmEntry:
        at = self._offsets.get(module_id)
        if at is None:
            raise UnknownModuleError(f"module {module_id} has no entry")
        return _view(self._table, at)

    @property
    def entries(self) -> dict[int, RmEntry]:
        """A view of each entry by module id, in table order; a write to
        one changes the table."""
        table = self._table
        return {mid: _view(table, at) for mid, at in self._offsets.items()}

    def _admits(self, module_id: int, max_severity: int,
                max_persistence: int) -> bool:
        """Whether the entry's bytes are out of maintenance and within both
        maxima (`affinity.compute_affinity`): a PROPAGATED_FAULT entry
        counts by its levels only."""
        at = self._offsets.get(module_id)
        if at is None:
            raise UnknownModuleError(f"module {module_id} has no entry")
        table = self._table
        return (table[at + 2] != _MAINTENANCE and table[at] <= max_severity
                and table[at + 1] <= max_persistence)

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
                     check_field(status, _STATUS_ROW))

    def _update(self, module_id: int, severity: Severity,
                persistence: Persistence, status: ModuleStatus) -> None:
        """update_single_fault for checked levels; in-package callers that
        hold members call it directly."""
        # Forward the *incoming* values, not the stored maxima: the entry's
        # maxima may include contributions whose dependency hop was already
        # spent, and forwarding those across a fresh dependency edge would
        # over-propagate.
        self._propagate([(module_id, severity, persistence, True, status)])

    def _propagate(self, work: list[tuple[int, Severity, Persistence, bool,
                                          ModuleStatus]]) -> None:
        """Fold every (module, severity, persistence, dependency hop still
        allowed, status) source in `work` into its entry, then walk from
        it, folding each contribution it carries into the entries it
        reaches as PROPAGATED_FAULT.

        The fold keeps the worst values (max). A source's status is taken
        when its severity is not ZERO: OWN_FAULT replaces anything but
        MAINTENANCE, and PROPAGATED_FAULT replaces AVAILABLE only; any
        other status changes nothing. Every arrival is folded as it leaves
        the worklist, in this one place, on the entry's bytes.

        One worklist replaces recursion, so parent chains of any depth
        work. `best[hop][module]` is the highest (severity, persistence)
        that has walked on from that module in that hop state. An arrival
        that raises neither is dropped; one that raises either walks on
        with the merged values. That is exact: every fold takes maxima and
        every cap is a min, so the merged values reach the same entries
        with the same maxima as the arrivals would one by one. An arrival
        is dropped before it is queued when its target has already walked
        on with values as high in the same hop state: each of those values
        was folded into the target's entry when it left the worklist, so
        its fold would change nothing.

        A ZERO severity is tested by truth (ZERO is 0), not compared with
        Severity.ZERO: most walks are a few steps long, so their fixed cost
        counts.
        """
        modules, offsets, table = (self._hm.modules, self._offsets,
                                   self._table)
        best: tuple[dict[int, tuple[Severity, Persistence]], ...] = ({}, {})
        while work:
            mid, sev, pers, follow_deps, status = work.pop()
            try:
                at = offsets[mid]
            except KeyError:
                raise UnknownModuleError(
                    f"module {mid} has no entry") from None
            if sev > table[at]:
                table[at] = sev
            if pers > table[at + 1]:
                table[at + 1] = pers
            if not sev:
                continue
            if status is _PROPAGATED:
                if not table[at + 2]:       # AVAILABLE
                    table[at + 2] = _PROPAGATED
            elif status is _OWN and table[at + 2] != _MAINTENANCE:
                table[at + 2] = _OWN
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
                    work.append((to, capped, pers, follow_deps, _PROPAGATED))
            if follow_deps:
                after = best[False]
                for dep in module.dependencies:
                    capped = min(sev, dep.severity)
                    if capped:
                        to = dep.dependent.id
                        walked = after.get(to)
                        if (walked is None or capped > walked[0]
                                or pers > walked[1]):
                            work.append((to, capped, pers, False,
                                         _PROPAGATED))

    # -- encoding -----------------------------------------------------------

    def encode(self) -> bytes:
        """The entry table: 7 bytes per module, in module order."""
        return bytes(self._table)


def init_resource_map(
        hm: HealthMap, maintenance: Iterable[int] = (),
        worst: Iterable[tuple[int, Severity, Persistence]] | None = None
) -> ResourceMap:
    """Populate a fresh resource map: fold each faulty module's own worst
    values, the (id, severity, persistence) triples `worst` if given (those
    an image check keeps, `codec._check`) or else `model.worst_faults` of
    the map's faults, as OWN_FAULT and propagate from all of them, in one
    walk; the result is independent of iteration order. Each module of a
    `maintenance` root's subtree is marked MAINTENANCE first, a status the
    walk keeps. Without `worst`, a map whose load built the faults of some
    modules only is refused.
    """
    if worst is None:
        hm.require_whole("build a resource map of")
        worst = worst_faults(hm.modules.values())
    rm = ResourceMap(hm)
    roots = tuple(maintenance)
    if roots:
        table, offsets = rm._table, rm._offsets
        for mid in hm.subtree_ids(*roots):
            table[offsets[mid] + 2] = _MAINTENANCE
    rm._propagate([(mid, severity, persistence, True, _OWN)
                   for mid, severity, persistence in worst])
    return rm


# the table's text of each level byte
_SEVERITY_NAMES = tuple(member.name for member in SEVERITIES)
_PERSISTENCE_NAMES = tuple(member.name for member in PERSISTENCES)
_STATUS_LABELS = tuple(member.label for member in STATUSES)


def render_table(rm: ResourceMap, sidecar) -> str:
    """Four-column text table, rows sorted by dotted module name."""
    rows = []
    name_for_id = sidecar.name_for_id
    table = rm._table
    for mid, sev, pers, status in zip(rm._offsets, table[4::RM_ENTRY_SIZE],
                                      table[5::RM_ENTRY_SIZE],
                                      table[6::RM_ENTRY_SIZE]):
        name = name_for_id(mid)
        if name is None:
            raise MissingSymbolError(f"no symbol for module id {mid}")
        rows.append((name, _SEVERITY_NAMES[sev], _PERSISTENCE_NAMES[pers],
                     _STATUS_LABELS[status]))
    rows.sort(key=itemgetter(0))
    header = ("Module name", "Worst severity", "Worst persistence", "Status")
    widths = [max(len(r[i]) for r in [header] + rows) for i in range(3)]
    lines = []
    for row in [header] + rows:
        cells = [row[i].ljust(widths[i]) for i in range(3)] + [row[3]]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines)
