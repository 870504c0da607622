"""In-memory health map: hardware modules, diagnostic resources,
dependencies, faults and fault detections, plus the structural rules
connecting them.

All entity lists keep insertion order; the binary codec relies on that
order when laying out linked records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Optional

from .errors import (
    ClassificationRangeError,
    DuplicateIdError,
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

# Fault.classification is stored in one byte of the image.
CLASS_MAX = 0xFF

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


def check_field(value: int, maximum: int, what: str,
                error: type[HealthMapError] = FieldRangeError) -> int:
    """Return `value` if it fits an unsigned image field 0..maximum, else
    raise `error`."""
    if not 0 <= value <= maximum:
        raise error(f"{what} {value} outside 0..{maximum}")
    return value


def int_token(token: str, what: str, error: type[HealthMapError],
              maximum: Optional[int] = None) -> int:
    """A decimal integer token of a text line, in 0..maximum if given."""
    try:
        value = int(token)
    except ValueError:
        raise error(f"bad {what} {token!r}: not an integer") from None
    return value if maximum is None else check_field(value, maximum, what,
                                                     error)


def text_lines(text: str):
    """(line number, stripped line) for each non-blank, non-"#" text line."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def check_classification(classification: int) -> int:
    """Return `classification` if it fits the image's u8 field, else raise."""
    return check_field(classification, CLASS_MAX, "fault classification",
                       ClassificationRangeError)


# Records are slot-backed: a load builds thousands of them, and slots make
# construction and attribute access cheaper than a per-instance dict.
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


@dataclass(frozen=True)
class Violation:
    kind: str
    entity_id: Optional[int]
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}({self.entity_id}): {self.detail}"


class HealthMap:
    """Mutable graph of modules, diagnostic resources, dependencies and
    fault history. Single-writer: mutate from one logical thread at a time.
    """

    def __init__(self) -> None:
        self.modules: dict[int, Module] = {}
        self.diag_resources: dict[int, DiagResource] = {}
        self.dependencies: list[Dependency] = []
        self.faults: list[Fault] = []
        self.detections: list[FaultDetection] = []
        self._seq = 0
        # (module id, classification) -> the last such fault in
        # module.faults order; kept by add_fault and reindex_faults
        self._fault_index: dict[tuple[int, int], Fault] = {}
        # ids of the modules whose detections a partial image load built
        # (the codec's `_load`); None when the map holds every record
        self._built: Optional[set[int]] = None

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
        check_field(module_id, U32_MAX, "module id")
        if module_id in self.modules:
            raise DuplicateIdError(f"module id {module_id} already present")
        parent = None
        if parent_id is not None:
            parent = self.modules.get(parent_id)
            if parent is None:
                raise UnknownParentError(f"parent module {parent_id} not found")
        module = Module(id=module_id, parent=parent,
                        criticality=Severity(criticality))
        self.modules[module_id] = module
        return module

    def add_diag_resource(self, res_id: int, owner_id: int, kind: int = 0) -> DiagResource:
        check_field(res_id, U32_MAX, "diag resource id")
        check_field(kind, 0xFF, "diag resource kind")
        if res_id in self.diag_resources:
            raise DuplicateIdError(f"diag resource id {res_id} already present")
        owner = self._module(owner_id)
        res = DiagResource(id=res_id, owner=owner, kind=kind)
        self.diag_resources[res_id] = res
        owner.diag_resources.append(res)
        return res

    def add_dependency(self, provider_id: int, dependent_id: int,
                       severity: Severity) -> Dependency:
        provider = self._module(provider_id)
        dependent = self._module(dependent_id)
        if provider is dependent:
            raise SelfDependencyError(
                f"module {provider_id} cannot depend on itself")
        dep = Dependency(provider=provider, dependent=dependent,
                         severity=Severity(severity))
        provider.dependencies.append(dep)
        self.dependencies.append(dep)
        return dep

    def add_fault(self, module_id: int, severity: Severity,
                  persistence: Persistence, classification: int) -> Fault:
        owner = self._module(module_id)
        severity = Severity(severity)
        if not severity:
            raise ZeroSeverityError("fault severity must be above ZERO")
        fault = Fault(owner=owner, severity=severity,
                      persistence=Persistence(persistence),
                      classification=check_classification(classification),
                      seq=self.next_seq())
        owner.faults.append(fault)
        self.faults.append(fault)
        self._fault_index[owner.id, fault.classification] = fault
        return fault

    def add_detection(self, fault: Fault, detector_id: int, timestamp: int,
                      payload: int = 0, counter: int = 1,
                      flags: int = 0) -> FaultDetection:
        detector = self.diag_resources.get(detector_id)
        if detector is None:
            raise UnknownDetectorError(f"diag resource {detector_id} not found")
        check_field(timestamp, U64_MAX, "detection timestamp")
        check_field(payload, U32_MAX, "detection payload")
        check_field(counter, U32_MAX, "detection counter")
        check_field(flags, 0xFF, "detection flags")
        det = FaultDetection(detector=detector, timestamp=timestamp,
                             counter=counter, payload=payload, flags=flags,
                             seq=self.next_seq())
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
        if detector_id not in self.diag_resources:
            raise UnknownDetectorError(f"diag resource {detector_id} not found")
        fault = self.add_fault(module_id, severity, persistence, classification)
        self.add_detection(fault, detector_id, timestamp, payload)
        return fault

    def reindex_faults(self) -> None:
        """Rebuild the fault index after module.faults lists were filled or
        edited other than through add_fault."""
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
        order; several roots give the union in one pass."""
        selected = {self._module(mid).id for mid in module_ids}
        # deserialized maps keep the serialized order, so a child may come
        # before its parent: index children first, then walk down once
        children: dict[int, list[int]] = {}
        for m in self.modules.values():
            if m.parent is not None:
                children.setdefault(m.parent.id, []).append(m.id)
        stack = list(selected)
        while stack:
            for child in children.get(stack.pop(), ()):
                if child not in selected:
                    selected.add(child)
                    stack.append(child)
        return [mid for mid in self.modules if mid in selected]

    # -- validation ------------------------------------------------------

    def validate_structure(self) -> list[Violation]:
        """Check every structural invariant; returns violations, never raises."""
        out: list[Violation] = []
        # Parent chains in linear time: a module takes its parent's verdict
        # unless the chain comes back to its own id (a cycle through it, or
        # a dangling parent with its id); one filed under another id's key
        # always takes it.
        modules = self.modules
        verdicts: dict[int, Optional[tuple[str, int]]] = {}   # by id(module)
        for m in modules.values():
            path: list[Module] = []
            while id(m) not in verdicts:
                verdicts[id(m)] = None
                path.append(m)
                p = m.parent
                if p is None or modules.get(p.id) is not p:
                    break
                m = p
            else:
                if m in path:   # the climb closed a cycle
                    cut = path.index(m)
                    for member in path[cut:]:
                        verdicts[id(member)] = ("ParentCycle", member.id)
                    del path[cut:]
            for m in reversed(path):
                p = m.parent
                if p is None:
                    continue   # a root: its verdict None stands
                verdict = (verdicts[id(p)] if modules.get(p.id) is p
                           else ("DanglingParent", p.id))
                if verdict == ("DanglingParent", m.id):
                    verdict = ("ParentCycle", m.id)
                verdicts[id(m)] = verdict
        for mid, m in modules.items():
            if m.id != mid:
                out.append(Violation("IdMismatch", mid, "key differs from module id"))
            if verdicts[id(m)] is not None:
                kind, at = verdicts[id(m)]
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
                if det.counter < 1:
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
