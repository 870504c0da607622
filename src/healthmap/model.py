"""In-memory health map: hardware modules, diagnostic resources,
dependencies, faults and fault detections, plus the structural rules
connecting them.

All entity lists keep insertion order; the binary codec relies on that
order when laying out linked records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Iterable, Iterator, Optional

from .errors import (
    ClassificationRangeError,
    DuplicateIdError,
    FaultsNotBuiltError,
    FieldRangeError,
    HealthMapError,
    SelfDependencyError,
    UnknownDetectorError,
    UnknownModuleError,
    UnknownParentError,
    ZeroSeverityError,
)

U32_MAX = 0xFFFFFFFF
U64_MAX = 0xFFFFFFFFFFFFFFFF

# FaultDetection.flags bit 0: the detection represents several merged events.
FLAG_MERGED = 0x01


class Severity(IntEnum):
    """Fault impact level, totally ordered. ZERO means no fault."""

    ZERO = 0
    LOW = 1
    MEDIUM = 2
    HIGH = 3


class Persistence(IntEnum):
    """Fault recurrence class, totally ordered."""

    ZERO = 0
    TRANSIENT = 1
    INTERMITTENT = 2
    PERMANENT = 3


class ModuleStatus(IntEnum):
    AVAILABLE = 0
    OWN_FAULT = 1
    PROPAGATED_FAULT = 2
    MAINTENANCE = 3

    @property
    def label(self) -> str:
        return self.name.replace("_", " ")


# Byte -> member tables for decoding images and messages: each enum's values
# run 0..n-1, so TABLE[byte] is the member for a byte, and a byte past the
# end raises IndexError.
SEVERITIES = tuple(Severity)
PERSISTENCES = tuple(Persistence)
STATUSES = tuple(ModuleStatus)


QUOTED_CHARS = 40    # an error quotes at most this much of a token
QUOTED_PATH_CHARS = 100    # and at most this much of a path's tail
# an error describes a longer integer by its bit length: CPython may refuse
# str() of one past 640 digits (sys.set_int_max_str_digits)
DESCRIBED_BITS = 2048


def quote_token(token: str) -> str:
    """`token` quoted for an error line; a longer one by its first
    QUOTED_CHARS characters and its length, so hostile input stays out of
    logs."""
    if len(token) <= QUOTED_CHARS:
        return repr(token)
    return f"{token[:QUOTED_CHARS]!r}... ({len(token)} characters)"


def quote_path(path, show=str) -> str:
    """`show(str(path))` for an error line; a longer path by "...", then
    its last QUOTED_PATH_CHARS characters, which keep its file name, shown
    so, then its length."""
    text = str(path)
    if len(text) <= QUOTED_PATH_CHARS:
        return show(text)
    return f"...{show(text[-QUOTED_PATH_CHARS:])} ({len(text)} characters)"


def quote_int(value: int) -> str:
    """`value` in decimal for an error line; one of more than QUOTED_CHARS
    digits quoted by `quote_token`, and one of more than DESCRIBED_BITS
    bits by its bit length, never calling str() on it."""
    if value.bit_length() > DESCRIBED_BITS:
        return f"{'-' * (value < 0)}<{value.bit_length()}-bit integer>"
    digits = str(value)
    return digits if len(digits) <= QUOTED_CHARS else quote_token(digits)


def check_field(value, row: tuple):
    """`value` if `row` (limit, label[, error]) accepts it: an integer in
    0..limit or, when `limit` is a level's byte -> member table, its member.
    Else raise the row's error, FieldRangeError unless it names one, with
    the integer quoted by `quote_int`."""
    limit = row[0]
    if isinstance(value, int):
        if type(limit) is tuple:
            if 0 <= value < len(limit):
                return limit[value]
            limit = len(limit) - 1
        elif 0 <= value <= limit:
            return value
        message = f"{row[1]} {quote_int(value)} outside 0..{limit}"
    else:
        message = f"{row[1]} {value!r} is not an integer"
    raise (row[2] if len(row) > 2 else FieldRangeError)(message)


def int_token(token: str, what: str, error: type[HealthMapError],
              maximum: Optional[int] = None) -> int:
    """A decimal integer token of a text line, in 0..maximum if given. An
    error quotes the token by `quote_token`."""
    try:
        value = int(token)
    except ValueError:
        raise error(f"bad {what} {quote_token(token)}: not an integer") \
            from None
    if maximum is None:
        return value
    if len(token) > QUOTED_CHARS and not 0 <= value <= maximum:
        raise error(f"{what} {quote_token(token)} outside 0..{maximum}")
    return check_field(value, (maximum, what, error))


def check_path(path) -> None:
    """Raise a HealthMapError naming `path` (`quote_path`) when it holds a
    NUL byte, which every file call would refuse with a ValueError."""
    if "\0" in str(path):
        raise HealthMapError(
            f"{quote_path(path, repr)}: a path cannot hold a NUL byte")


def read_bytes(path) -> bytes:
    """The bytes of the file at `path`; a HealthMapError naming it when its
    path holds a NUL byte."""
    check_path(path)
    with open(path, "rb") as file:
        return file.read()


def read_text(path) -> str:
    """The text of the UTF-8 file at `path`; a HealthMapError naming the
    file when its path holds a NUL byte or its bytes are not UTF-8."""
    check_path(path)
    try:
        with open(path, encoding="utf-8") as file:
            return file.read()
    except UnicodeDecodeError as exc:
        raise HealthMapError(
            f"{quote_path(path)}: not UTF-8 text (byte {exc.start})") \
            from None


def text_lines(text: str):
    """(line number, stripped line) for each non-blank, non-"#" text line."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


# Records are slot-backed: a load builds thousands of them, and slots make
# construction and attribute access cheaper than a per-instance dict. The
# load and the HealthMap constructors build them positionally, which costs
# half what keywords do.
@dataclass(eq=False, slots=True)
class Module:
    id: int
    parent: Optional["Module"] = None
    criticality: Severity = Severity.ZERO
    diag_resources: list["DiagResource"] = field(default_factory=list)
    dependencies: list["Dependency"] = field(default_factory=list)
    faults: list["Fault"] = field(default_factory=list)
    # byte offset of this record in the image it was deserialized from or
    # last serialized to
    shm_offset: Optional[int] = None


@dataclass(eq=False, slots=True)
class DiagResource:
    id: int
    owner: Module
    kind: int = 0
    shm_offset: Optional[int] = None


@dataclass(eq=False, slots=True)
class Dependency:
    provider: Module
    dependent: Module
    severity: Severity
    shm_offset: Optional[int] = None


@dataclass(eq=False, slots=True)
class Fault:
    owner: Module
    severity: Severity
    persistence: Persistence
    classification: int
    detections: list["FaultDetection"] = field(default_factory=list)
    shm_offset: Optional[int] = None
    # creation order; append_changes lays out the records that have no
    # shm_offset yet by it, so loaded records keep the default
    seq: int = 0


@dataclass(eq=False, slots=True)
class FaultDetection:
    detector: DiagResource
    timestamp: int
    counter: int = 1
    payload: int = 0
    flags: int = 0
    shm_offset: Optional[int] = None
    seq: int = 0


# The one table of record fields: the `check_field` row of each field that
# a value may put outside the image, by record type and attribute. Entry
# points and both image writers check a value by its row; the links, which
# the writers compute, are not fields here.
FIELDS = {
    Module: {"id": (U32_MAX, "module id"),
             "criticality": (SEVERITIES, "module criticality")},
    DiagResource: {"id": (U32_MAX, "diag resource id"),
                   "kind": (0xFF, "diag resource kind")},
    Dependency: {"severity": (SEVERITIES, "dependency severity")},
    Fault: {"severity": (SEVERITIES, "fault severity"),
            "persistence": (PERSISTENCES, "fault persistence"),
            "classification": (0xFF, "fault classification",
                               ClassificationRangeError)},
    FaultDetection: {"timestamp": (U64_MAX, "detection timestamp"),
                     "counter": (U32_MAX, "detection counter"),
                     "payload": (U32_MAX, "detection payload"),
                     "flags": (0xFF, "detection flags")},
}

def worst_faults(
        modules: Iterable[Module]) -> Iterator[tuple[int, Severity,
                                                     Persistence]]:
    """(id, worst severity, worst persistence) of each of `modules` that
    holds a fault, in the given order: what a module's own faults put into
    its resource map entry. The check of an image load keeps the same
    triples without building a fault (`codec._check`)."""
    for module in modules:
        faults = module.faults
        if faults:
            severity, persistence = faults[0].severity, faults[0].persistence
            for fault in faults:
                if fault.severity > severity:
                    severity = fault.severity
                if fault.persistence > persistence:
                    persistence = fault.persistence
            yield module.id, severity, persistence


@dataclass(frozen=True)
class Violation:
    kind: str
    entity_id: Optional[int]
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}({self.entity_id}): {self.detail}"


def parent_verdicts(
        modules: dict[int, Module]) -> dict[int, Optional[tuple[str, ...]]]:
    """Each module's parent-chain verdict by id(module): None for a chain
    to a root, else ("ParentCycle", at) or ("DanglingParent", at, child)
    for a missing parent `at` of record `child`. Linear time: a module
    takes its parent's verdict unless the chain comes back to its own id (a
    cycle through it, or a dangling parent with its id); one filed under
    another id's key always takes it."""
    verdicts: dict[int, Optional[tuple[str, ...]]] = {}
    get = modules.get
    for m in modules.values():
        path: list[Module] = []
        while id(m) not in verdicts:
            verdicts[id(m)] = None
            path.append(m)
            p = m.parent
            if p is None or get(p.id) is not p:
                break
            m = p
        else:
            if m in path:   # the climb closed a cycle
                cut = path.index(m)
                for member in path[cut:]:
                    verdicts[id(member)] = ("ParentCycle", member.id)
                del path[cut:]
            elif verdicts[id(m)] is None:
                continue   # it joined a chain that ends at a root
        for m in reversed(path):
            p = m.parent
            if p is None:
                continue   # a root: its verdict None stands
            verdict = (verdicts[id(p)] if get(p.id) is p
                       else ("DanglingParent", p.id, m.id))
            if verdict and verdict[:2] == ("DanglingParent", m.id):
                verdict = ("ParentCycle", m.id)
            verdicts[id(m)] = verdict
    return verdicts


class HealthMap:
    """Mutable graph of modules, diagnostic resources, dependencies and
    fault history. Single-writer: mutate from one logical thread at a time.

    A dropped map frees itself: its records point at each other (a module
    holds its faults, diag resources and dependencies, and each of those
    points back at its module), but no record points at the map, so when
    the last reference to the map goes `__del__` empties every module's
    three lists and reference counting frees every record at once, without
    waiting for a collection. A record kept after its map is gone keeps
    its own fields (a fault its owner and detections, a module its parent),
    but its module's lists are empty.
    """

    def __init__(self) -> None:
        self.modules: dict[int, Module] = {}
        self.diag_resources: dict[int, DiagResource] = {}
        self.dependencies: list[Dependency] = []
        self.faults: list[Fault] = []
        self.detections: list[FaultDetection] = []
        self._seq = 0
        # (module id, classification) -> the last such fault in
        # module.faults order; kept by _file_fault and reindex_faults
        self._fault_index: dict[tuple[int, int], Fault] = {}
        # ids of the modules whose diag resources, faults and detections an
        # image load built (the codec's `_Reader`: its check builds none);
        # None when the map holds every record
        self._built: Optional[set[int]] = None
        # subtree_ids' tree index: (the modules dict it was built from, its
        # length, key -> position, id -> child ids in insertion order)
        self._tree: Optional[tuple[dict, int, dict[int, int],
                                   dict[int, list[int]]]] = None

    def __del__(self) -> None:
        # breaks the owner and provider cycles, the map's only ones; the
        # lists are emptied in place, so this allocates nothing per module
        for module in self.modules.values():
            module.diag_resources.clear()
            module.dependencies.clear()
            module.faults.clear()

    def require_whole(self, action: str) -> None:
        """Raise FaultsNotBuiltError, naming `action`, when a load built
        the lists of some modules only, or of none (`_built`): a reader of
        every list would take the part for the whole."""
        if self._built is not None:
            raise FaultsNotBuiltError(
                f"cannot {action} a map loaded without all its faults")

    # -- construction --------------------------------------------------

    def next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def add_module(
        self,
        module_id: int,
        parent_id: Optional[int] = None,
        criticality: Severity = Severity.ZERO,
    ) -> Module:
        check_field(module_id, FIELDS[Module]["id"])
        criticality = check_field(criticality, FIELDS[Module]["criticality"])
        if module_id in self.modules:
            raise DuplicateIdError(f"module id {module_id} already present")
        parent = None
        if parent_id is not None:
            parent = self.modules.get(parent_id)
            if parent is None:
                raise UnknownParentError(f"parent module {parent_id} not found")
        module = Module(module_id, parent, criticality)
        self.modules[module_id] = module
        return module

    def add_diag_resource(self, res_id: int, owner_id: int, kind: int = 0) -> DiagResource:
        check_field(res_id, FIELDS[DiagResource]["id"])
        check_field(kind, FIELDS[DiagResource]["kind"])
        if res_id in self.diag_resources:
            raise DuplicateIdError(f"diag resource id {res_id} already present")
        owner = self._module(owner_id)
        res = DiagResource(res_id, owner, kind)
        self.diag_resources[res_id] = res
        owner.diag_resources.append(res)
        return res

    def add_dependency(self, provider_id: int, dependent_id: int,
                       severity: Severity) -> Dependency:
        severity = check_field(severity, FIELDS[Dependency]["severity"])
        provider = self._module(provider_id)
        dependent = self._module(dependent_id)
        if provider is dependent:
            raise SelfDependencyError(
                f"module {provider_id} cannot depend on itself")
        dep = Dependency(provider, dependent, severity)
        provider.dependencies.append(dep)
        self.dependencies.append(dep)
        return dep

    def add_fault(self, module_id: int, severity: Severity,
                  persistence: Persistence, classification: int) -> Fault:
        return self._file_fault(self._new_fault(module_id, severity,
                                                persistence, classification))

    def _new_fault(self, module_id: int, severity: Severity,
                   persistence: Persistence, classification: int) -> Fault:
        """A fault with checked fields, not yet in the map."""
        owner = self._module(module_id)
        severity = check_field(severity, FIELDS[Fault]["severity"])
        persistence = check_field(persistence, FIELDS[Fault]["persistence"])
        if not (severity and persistence):
            raise ZeroSeverityError(
                "fault severity and persistence must be above ZERO")
        check_field(classification, FIELDS[Fault]["classification"])
        return Fault(owner, severity, persistence, classification, [])

    def _file_fault(self, fault: Fault) -> Fault:
        fault.seq = self.next_seq()
        fault.owner.faults.append(fault)
        self.faults.append(fault)
        self._fault_index[fault.owner.id, fault.classification] = fault
        return fault

    def add_detection(self, fault: Fault, detector_id: int, timestamp: int,
                      payload: int = 0, counter: int = 1,
                      flags: int = 0) -> FaultDetection:
        detector = self.diag_resources.get(detector_id)
        if detector is None:
            raise UnknownDetectorError(f"diag resource {detector_id} not found")
        check_field(timestamp, FIELDS[FaultDetection]["timestamp"])
        check_field(payload, FIELDS[FaultDetection]["payload"])
        if not isinstance(counter, int):
            check_field(counter, FIELDS[FaultDetection]["counter"])   # raises
        elif not 1 <= counter <= U32_MAX:   # a detection is at least one event
            raise FieldRangeError(
                f"detection counter {counter} outside 1..{U32_MAX}")
        check_field(flags, FIELDS[FaultDetection]["flags"])
        det = FaultDetection(detector, timestamp, counter, payload, flags,
                             None, self.next_seq())
        fault.detections.append(det)
        self.detections.append(det)
        return det

    def add_fault_with_detection(
        self,
        module_id: int,
        severity: Severity,
        persistence: Persistence,
        classification: int,
        detector_id: int,
        timestamp: int,
        payload: int = 0,
    ) -> Fault:
        """Add a fault and its first detection, one event. Every field of
        both is checked before either is added, so a refusal adds
        nothing: the detector, then add_fault's checks, then the
        timestamp and payload."""
        detector = self.diag_resources.get(detector_id)
        if detector is None:
            raise UnknownDetectorError(f"diag resource {detector_id} not found")
        fault = self._new_fault(module_id, severity, persistence,
                                classification)
        check_field(timestamp, FIELDS[FaultDetection]["timestamp"])
        check_field(payload, FIELDS[FaultDetection]["payload"])
        self._file_fault(fault)
        det = FaultDetection(detector, timestamp, 1, payload, 0, None,
                             self.next_seq())
        fault.detections.append(det)
        self.detections.append(det)
        return fault

    def reindex_faults(self) -> None:
        """Rebuild the fault index after module.faults lists were filled or
        edited other than through add_fault or add_fault_with_detection."""
        self._fault_index = {(m.id, f.classification): f
                             for m in self.modules.values() for f in m.faults}

    def _module(self, module_id: int) -> Module:
        module = self.modules.get(module_id)
        if module is None:
            raise UnknownModuleError(f"module {module_id} not found")
        return module

    # -- queries --------------------------------------------------------

    def find_fault(self, module_id: int,
                   classification: int) -> Optional[Fault]:
        """The fault identified by (module, classification), or None. When a
        module holds several, the last one in module.faults order wins."""
        return self._fault_index.get((module_id, classification))

    def subtree_ids(self, *module_ids: int) -> list[int]:
        """The given modules and all their descendants, in insertion
        order; several roots give the union in one pass.

        The first call indexes the tree (each module's position and child
        ids), and later calls reuse the index while `self.modules` is the
        same dict with the same length: `add_module`, a direct insert and
        a replaced dict are seen. A direct edit of a `Module.parent`, or
        an entry replaced in place, after the first call is not; as
        `reindex_faults` is for fault lists, `self.modules =
        dict(self.modules)` after such an edit makes it seen."""
        selected = {self._module(mid).id for mid in module_ids}
        modules, tree = self.modules, self._tree
        if tree is None or tree[0] is not modules or tree[1] != len(modules):
            # deserialized maps keep the serialized order, so a child may
            # come before its parent: index every module before any walk
            children: dict[int, list[int]] = {}
            for m in modules.values():
                if m.parent is not None:
                    children.setdefault(m.parent.id, []).append(m.id)
            position = dict(zip(modules, range(len(modules))))
            tree = self._tree = (modules, len(modules), position, children)
        _, _, position, children = tree
        stack = list(selected)
        while stack:
            for child in children.get(stack.pop(), ()):
                if child not in selected:
                    selected.add(child)
                    stack.append(child)
        # the selected keys of self.modules, in insertion order
        return sorted(position.keys() & selected, key=position.__getitem__)

    # -- validation ------------------------------------------------------

    def validate_structure(self) -> list[Violation]:
        """Check every structural invariant; returns violations, never raises."""
        out: list[Violation] = []
        verdicts = parent_verdicts(self.modules)
        for mid, m in self.modules.items():
            if m.id != mid:
                out.append(Violation("IdMismatch", mid, "key differs from module id"))
            if verdicts[id(m)] is not None:
                kind, at = verdicts[id(m)][:2]
                out.append(Violation(kind, m.id, (
                    f"cycle through module {at}" if kind == "ParentCycle"
                    else f"parent {at} not in map")))
        for rid, res in self.diag_resources.items():
            if self.modules.get(res.owner.id) is not res.owner:
                out.append(Violation("DanglingOwner", rid,
                                     f"owner {res.owner.id} not in map"))
        for dep in self.dependencies:
            if dep.provider is dep.dependent:
                out.append(Violation("SelfDependency", dep.provider.id,
                                     "module depends on itself"))
            for end in (dep.provider, dep.dependent):
                if self.modules.get(end.id) is not end:
                    out.append(Violation("DanglingDependency", end.id,
                                         "dependency endpoint not in map"))
        for fault in self.faults:
            if self.modules.get(fault.owner.id) is not fault.owner:
                out.append(Violation("DanglingFaultOwner", fault.owner.id,
                                     "fault owner not in map"))
            if fault.severity == Severity.ZERO:
                out.append(Violation("ZeroSeverity", fault.owner.id,
                                     "fault with ZERO severity"))
            if fault.persistence == Persistence.ZERO:
                out.append(Violation("ZeroPersistence", fault.owner.id,
                                     "fault with ZERO persistence"))
            for det in fault.detections:
                if isinstance(det.counter, int) and det.counter < 1:
                    out.append(Violation("BadCounter", fault.owner.id,
                                         "detection counter below 1"))
                if self.diag_resources.get(det.detector.id) is not det.detector:
                    out.append(Violation("DanglingDetector", det.detector.id,
                                         "detection references unknown detector"))
        return out

    # -- structural snapshot ----------------------------------------------

    def snapshot(self):
        """Canonical nested-tuple view used for structural equality."""
        det_index = {id(d): i for i, d in enumerate(self.detections)}
        fault_index = {id(f): i for i, f in enumerate(self.faults)}
        dep_index = {id(d): i for i, d in enumerate(self.dependencies)}
        modules = tuple(
            (
                m.id,
                m.parent.id if m.parent else None,
                int(m.criticality),
                tuple(r.id for r in m.diag_resources),
                tuple(dep_index[id(d)] for d in m.dependencies),
                tuple(fault_index[id(f)] for f in m.faults),
            )
            for m in self.modules.values()
        )
        resources = tuple(
            (r.id, r.owner.id, r.kind) for r in self.diag_resources.values()
        )
        deps = tuple(
            (d.provider.id, d.dependent.id, int(d.severity))
            for d in self.dependencies
        )
        faults = tuple(
            (
                f.owner.id,
                int(f.severity),
                int(f.persistence),
                f.classification,
                tuple(det_index[id(d)] for d in f.detections),
            )
            for f in self.faults
        )
        detections = tuple(
            (d.detector.id, d.timestamp, d.counter, d.payload, d.flags)
            for d in self.detections
        )
        return (modules, resources, deps, faults, detections)

    def equivalent(self, other: "HealthMap") -> bool:
        return self.snapshot() == other.snapshot()
