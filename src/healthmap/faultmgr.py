"""Run-time fault ingestion: match detection reports to faults, classify
persistence from occurrence history, merge near-duplicate events and prune
accumulated records during idle time.

A fault is identified by (owner module, classification); one fault may be
detected many times, potentially by different diagnostic resources, so the
detector is not part of the identity. `record_event` is the one rule that
records an event, for sensor reports and roll-up summaries alike.

It is the one reader of a report's fields, for `hm inject`'s flags and a
`detect` line alike: decimals as `int()` reads them, the payload by
`hexadecimal`; `DetectionReport` range-checks all five fields.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import attrgetter
from typing import Optional

from .errors import ScenarioError, UnknownDetectorError, ZeroSeverityError
from .model import (
    FIELDS,
    FLAG_MERGED,
    U32_MAX,
    Fault,
    FaultDetection,
    HealthMap,
    ModuleStatus,
    Persistence,
    Severity,
    check_field,
    quote_token,
)

DEFAULT_MERGE_WINDOW_US = 1_000_000
INTERMITTENT_EVENTS = 3
PERMANENT_EVENTS = 10


@dataclass
class DetectionReport:
    """One event arriving from a diagnostic resource."""

    detector_id: int
    severity: Severity
    classification: int
    timestamp: int
    payload: int = 0

    def __post_init__(self) -> None:
        check_field(self.detector_id, (U32_MAX, "detector id"))
        self.severity = check_field(self.severity, FIELDS[Fault]["severity"])
        if self.severity == Severity.ZERO:
            raise ZeroSeverityError("detection report severity must be "
                                    "above ZERO")
        check_field(self.classification, FIELDS[Fault]["classification"])
        check_field(self.timestamp, FIELDS[FaultDetection]["timestamp"])
        check_field(self.payload, FIELDS[FaultDetection]["payload"])


def record_event(hm: HealthMap, module_id: int, classification: int,
                 severity: Severity, persistence: Persistence,
                 detector_id: int, timestamp: int,
                 payload: int) -> tuple[Fault, bool]:
    """Record one event of fault (module, classification) seen by
    `detector_id`; returns (fault, created).

    A missing fault is created, with this event as its first detection,
    only by `HealthMap.add_fault_with_detection`, which checks every field
    before it adds anything. An existing fault's severity and persistence
    rise to the given ones (max), and the event merges into its latest
    detection (counter + 1, MERGED flag) if that is from the same detector,
    at most DEFAULT_MERGE_WINDOW_US away and its counter is below the u32
    ceiling; otherwise it is a new detection. So the sum of the fault's
    counters rises by exactly one.
    A raise checks both levels by their `model.FIELDS` rows before it
    stores either member, so the fault never holds a plain int, and a
    level the comparison cannot order gets its row's error; roll-up ingest
    records dozens of events per summary, mostly raising nothing, so the
    common case only compares.
    """
    fault = hm.find_fault(module_id, classification)
    if fault is None:
        return hm.add_fault_with_detection(
            module_id, severity, persistence, classification, detector_id,
            timestamp, payload), True
    try:
        rises = severity > fault.severity or persistence > fault.persistence
    except TypeError:   # not a level: its row names it
        rises = True
    if rises:
        severity = check_field(severity, FIELDS[Fault]["severity"])
        persistence = check_field(persistence, FIELDS[Fault]["persistence"])
        fault.severity = max(fault.severity, severity)
        fault.persistence = max(fault.persistence, persistence)
    latest = fault.detections[-1] if fault.detections else None
    if (latest is not None and latest.detector.id == detector_id
            and abs(timestamp - latest.timestamp) <= DEFAULT_MERGE_WINDOW_US
            and latest.counter < U32_MAX):
        latest.counter += 1
        latest.flags |= FLAG_MERGED
    else:
        hm.add_detection(fault, detector_id, timestamp, payload=payload)
    return fault, False


def report_detection(hm: HealthMap, report: DetectionReport, *,
                     rm=None) -> tuple[Fault, bool]:
    """Ingest one report; returns (fault, created).

    Persistence is classified from history: a fault starts TRANSIENT; once
    its total event count (the sum of its detection counters) reaches
    INTERMITTENT_EVENTS it becomes INTERMITTENT, and at PERMANENT_EVENTS
    PERMANENT. It never falls.

    If `rm` (a ResourceMap) is given, the fault's current severity and
    persistence are folded into it by `ResourceMap._update`, the body of
    update_single_fault for values that are already members.
    """
    detector = hm.diag_resources.get(report.detector_id)
    if detector is None:
        raise UnknownDetectorError(
            f"diag resource {report.detector_id} not found")
    owner = detector.owner
    fault, created = record_event(
        hm, owner.id, report.classification, report.severity,
        Persistence.TRANSIENT, report.detector_id, report.timestamp,
        report.payload)
    total = sum(d.counter for d in fault.detections)
    classified = (Persistence.PERMANENT if total >= PERMANENT_EVENTS else
                  Persistence.INTERMITTENT if total >= INTERMITTENT_EVENTS
                  else Persistence.TRANSIENT)
    fault.persistence = max(fault.persistence, classified)
    if rm is not None:
        rm._update(owner.id, fault.severity, fault.persistence,
                   ModuleStatus.OWN_FAULT)
    return fault, created


def prune(hm: HealthMap) -> int:
    """Merge duplicate records; returns the number of records removed.

    One pass over the modules. First a module's faults with identical
    (severity, persistence, classification) collapse into the first of
    them, their detection lists concatenated in module.faults order. Then
    each surviving fault's detections from one detector collapse under
    `record_event`'s u32 counter ceiling: a keeper absorbs a later one
    (counters summed, earliest timestamp kept, MERGED flag set) only while
    its counter stays <= U32_MAX, otherwise that detection becomes the
    next keeper. So a second `prune` removes nothing. `hm.faults` keeps
    its order and `hm.detections` becomes the fault lists in that order,
    so `serialize` writes every detection link forward. The total event
    count and the resulting resource map are unchanged, and the cost is
    linear in the number of records.
    """
    hm.require_whole("prune")
    records = len(hm.faults) + len(hm.detections)
    key = attrgetter("owner", "severity", "persistence", "classification")
    keepers: dict[tuple, Fault] = {}
    for module in hm.modules.values():
        for fault in module.faults:
            keeper = keepers.setdefault(key(fault), fault)
            if keeper is not fault:
                keeper.detections += fault.detections
        module.faults[:] = [f for f in module.faults if keepers[key(f)] is f]
        for fault in module.faults:
            by_detector: dict[int, FaultDetection] = {}
            kept = []
            for det in fault.detections:
                keeper = by_detector.get(det.detector.id)
                if (keeper is not None
                        and keeper.counter + det.counter <= U32_MAX):
                    keeper.counter += det.counter
                    keeper.timestamp = min(keeper.timestamp, det.timestamp)
                    keeper.flags |= FLAG_MERGED
                else:
                    by_detector[det.detector.id] = det
                    kept.append(det)
            fault.detections[:] = kept
    hm.faults = [f for f in hm.faults if keepers.get(key(f), f) is f]
    hm.detections = [d for f in hm.faults for d in f.detections]
    hm.reindex_faults()
    return records - len(hm.faults) - len(hm.detections)


def hexadecimal(text: str) -> int:
    """A report's payload, read as `int(text, 16)` reads it; also
    `--payload`'s argparse type, so a usage error names it."""
    return int(text, 16)


_REPORT_RE = re.compile(
    r"detect\s+(\S+)\s+sev=(\S+)\s+class=(\S+)"
    r"(?:\s+t=(\S+))?(?:\s+payload=(\S+))?")


def parse_report_line(line: str,
                      default_timestamp: Optional[int] = None
                      ) -> DetectionReport:
    """Parse `detect <id> sev=<SEV> class=<n> t=<µs> [payload=<hex>]`.

    Each field is read by the rule its `hm inject` flag is read by, so
    `1_0`, `+5` and `payload=1_f` read as the flags read them; a token
    that rule refuses makes the line bad. The timestamp may be omitted
    when the caller supplies one (scenario event lines carry the time in
    their `at` prefix).
    """
    match = _REPORT_RE.fullmatch(line.strip())
    if not match:
        raise ScenarioError(f"bad detection report line: {quote_token(line)}")
    det, sev, cls, t, payload = match.groups()
    if sev not in Severity.__members__:
        raise ScenarioError(f"bad severity {quote_token(sev)} in: "
                            f"{quote_token(line)}")
    if t is None and default_timestamp is None:
        raise ScenarioError(f"detection report line missing t=: "
                            f"{quote_token(line)}")
    try:
        return DetectionReport(int(det), Severity[sev], int(cls),
                               default_timestamp if t is None else int(t),
                               hexadecimal(payload) if payload else 0)
    except ValueError:    # a token its flag's rule refuses
        raise ScenarioError(
            f"bad detection report line: {quote_token(line)}") from None
