"""Run-time fault ingestion: match detection reports to faults, classify
persistence from occurrence history, merge near-duplicate events and prune
accumulated records during idle time.

A fault is identified by (owner module, classification); one fault may be
detected many times, potentially by different diagnostic resources, so the
detector is not part of the identity. `record_event` is the one rule that
records an event, for sensor reports and roll-up summaries alike.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .errors import ScenarioError, UnknownDetectorError, ZeroSeverityError
from .model import (
    FLAG_MERGED,
    U32_MAX,
    U64_MAX,
    Fault,
    HealthMap,
    ModuleStatus,
    Persistence,
    Severity,
    check_classification,
    check_field,
)

DEFAULT_MERGE_WINDOW_US = 1_000_000


@dataclass
class DetectionReport:
    """One event arriving from a diagnostic resource."""

    detector_id: int
    severity: Severity
    classification: int
    timestamp: int
    payload: int = 0

    def __post_init__(self) -> None:
        self.severity = Severity(self.severity)
        if self.severity == Severity.ZERO:
            raise ZeroSeverityError("detection report severity must be "
                                    "above ZERO")
        check_classification(self.classification)
        check_field(self.timestamp, U64_MAX, "detection timestamp")
        check_field(self.payload, U32_MAX, "detection payload")


@dataclass
class ClassifierConfig:
    """History-based persistence classification thresholds.

    A fault starts TRANSIENT; once the total event count (sum of detection
    counters) reaches intermittent_threshold it becomes INTERMITTENT, and
    at permanent_threshold PERMANENT.
    """

    merge_window_us: int = DEFAULT_MERGE_WINDOW_US
    intermittent_threshold: int = 3
    permanent_threshold: int = 10

    def __post_init__(self) -> None:
        if not (0 < self.intermittent_threshold
                <= self.permanent_threshold):
            raise ValueError("need 0 < intermittent_threshold <= "
                             "permanent_threshold")

    def classify(self, total_events: int) -> Persistence:
        if total_events >= self.permanent_threshold:
            return Persistence.PERMANENT
        if total_events >= self.intermittent_threshold:
            return Persistence.INTERMITTENT
        return Persistence.TRANSIENT


def record_event(hm: HealthMap, module_id: int, classification: int,
                 severity: Severity, persistence: Persistence,
                 detector_id: int, timestamp: int, payload: int,
                 window_us: int) -> tuple[Fault, bool]:
    """Record one event of fault (module, classification) seen by
    `detector_id`; returns (fault, created).

    The fault is found or created, and its severity and persistence rise
    to the given ones (max). The event merges into the fault's latest
    detection (counter + 1, MERGED flag) if that is from the same detector,
    at most `window_us` away and its counter has room; otherwise it is a
    new detection. So the sum of the fault's counters rises by exactly one.
    A severity or persistence is converted to its member where it is
    stored, so the fault never holds a plain int; roll-up ingest records
    dozens of events per summary, mostly raising nothing, so the common
    case pays no enum call.
    """
    fault = hm.find_fault(module_id, classification)
    created = fault is None
    if created:
        fault = hm.add_fault(module_id, severity, persistence, classification)
    else:
        if severity > fault.severity:
            fault.severity = Severity(severity)
        if persistence > fault.persistence:
            fault.persistence = Persistence(persistence)
    latest = fault.detections[-1] if fault.detections else None
    if (latest is not None and latest.detector.id == detector_id
            and abs(timestamp - latest.timestamp) <= window_us
            and latest.counter < U32_MAX):
        latest.counter += 1
        latest.flags |= FLAG_MERGED
    else:
        hm.add_detection(fault, detector_id, timestamp, payload=payload)
    return fault, created


def report_detection(hm: HealthMap, report: DetectionReport,
                     config: Optional[ClassifierConfig] = None,
                     rm=None) -> tuple[Fault, bool]:
    """Ingest one report; returns (fault, created).

    If `rm` (a ResourceMap) is given, the fault's current severity and
    persistence are folded into it via update_single_fault.
    """
    config = config or ClassifierConfig()
    detector = hm.diag_resources.get(report.detector_id)
    if detector is None:
        raise UnknownDetectorError(
            f"diag resource {report.detector_id} not found")
    owner = detector.owner
    fault, created = record_event(
        hm, owner.id, report.classification, report.severity,
        Persistence.TRANSIENT, report.detector_id, report.timestamp,
        report.payload, config.merge_window_us)
    total = sum(d.counter for d in fault.detections)
    fault.persistence = max(fault.persistence, config.classify(total))
    if rm is not None:
        rm._update(owner.id, fault.severity, fault.persistence,
                   ModuleStatus.OWN_FAULT)
    return fault, created


def prune(hm: HealthMap) -> int:
    """Merge duplicate records; returns the number of records removed.

    Detections of the same fault from the same detector collapse into one
    (counters summed, earliest timestamp kept, MERGED flag set); then
    faults of one module with identical (severity, persistence,
    classification) collapse with their detection lists concatenated. The
    total event count and the resulting resource map are unchanged.
    """
    removed: list = []

    for fault in hm.faults:
        by_detector: dict[int, list] = {}
        for det in fault.detections:
            by_detector.setdefault(det.detector.id, []).append(det)
        for group in by_detector.values():
            if len(group) < 2:
                continue
            keeper = group[0]
            keeper.counter = sum(d.counter for d in group)
            keeper.timestamp = min(d.timestamp for d in group)
            keeper.flags |= FLAG_MERGED
            for extra in group[1:]:
                fault.detections.remove(extra)
                removed.append(extra)

    for module in hm.modules.values():
        by_key: dict[tuple, Fault] = {}
        for fault in list(module.faults):
            key = (fault.severity, fault.persistence, fault.classification)
            keeper = by_key.get(key)
            if keeper is None:
                by_key[key] = fault
                continue
            keeper.detections.extend(fault.detections)
            module.faults.remove(fault)
            removed.append(fault)

    if removed:
        dead = {id(r) for r in removed}
        hm.detections = [d for d in hm.detections if id(d) not in dead]
        hm.faults = [f for f in hm.faults if id(f) not in dead]
        hm.reindex_faults()
    return len(removed)


_REPORT_RE = re.compile(
    r"^detect\s+(?P<det>\d+)\s+sev=(?P<sev>\w+)\s+class=(?P<cls>\d+)"
    r"(?:\s+t=(?P<t>\d+))?(?:\s+payload=(?P<payload>[0-9a-fA-Fx]+))?\s*$")


def parse_report_line(line: str,
                      default_timestamp: Optional[int] = None
                      ) -> DetectionReport:
    """Parse `detect <id> sev=<SEV> class=<n> t=<µs> [payload=<hex>]`.

    The timestamp may be omitted when the caller supplies one (scenario
    event lines carry the time in their `at` prefix).
    """
    match = _REPORT_RE.match(line.strip())
    if not match:
        raise ScenarioError(f"bad detection report line: {line!r}")
    try:
        severity = Severity[match.group("sev")]
    except KeyError:
        raise ScenarioError(
            f"bad severity {match.group('sev')!r} in: {line!r}") from None
    timestamp = match.group("t")
    if timestamp is None and default_timestamp is None:
        raise ScenarioError(f"detection report line missing t=: {line!r}")
    payload = match.group("payload")
    return DetectionReport(
        detector_id=int(match.group("det")),
        severity=severity,
        classification=int(match.group("cls")),
        timestamp=int(timestamp) if timestamp is not None
        else default_timestamp,
        payload=int(payload, 16) if payload else 0,
    )
