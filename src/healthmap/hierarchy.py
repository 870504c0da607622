"""Hierarchical roll-up: resource map summaries travel up a tree of nodes
as checksummed wire messages and feed the parent node's health map through
a per-child virtual "downlink" diagnostic resource.

Message format (little-endian):

    magic "RMS1" | version u16 | nodeId u32 | entryCount u16 |
    entryCount x 7-byte entry | crc32 u32 over all preceding bytes

A parent checks a summary once, header, length and CRC and then every
enum byte, so a malformed message records nothing. It then ingests the raw
entry tuples in one pass. Healthy (ZERO severity) entries, most of a
summary, build nothing. Each faulty entry routed to a parent module is
recorded there by `faultmgr.record_event`, the rule sensor reports follow,
so a steady child fault merges into one parent detection per merge window.
The parent's resource map is updated once per parent module touched, with
the maxima over that module's faults, rather than once per entry. Both
give the same map: propagation keeps maxima and caps severity only with
min, and max_i min(s_i, c) = min(max_i s_i, c).

The simulator is single-threaded discrete-event; the wire format is the
contract a networked deployment would reuse.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from . import compiler
from .codec import crc32
from .errors import (
    CrcMismatchError,
    HealthMapError,
    MalformedMessageError,
    ScenarioError,
    TooManyEntriesError,
    UnknownDetectorError,
    UnknownNodeError,
)
from .faultmgr import (
    DEFAULT_MERGE_WINDOW_US,
    DetectionReport,
    parse_report_line,
    record_event,
    report_detection,
)
from .model import (PERSISTENCES, SEVERITIES, U32_MAX, HealthMap,
                    ModuleStatus, Persistence, Severity, int_token,
                    text_lines)
from .resourcemap import (
    RM_ENTRY,
    RM_ENTRY_SIZE,
    ResourceMap,
    RmEntry,
    _check_enum_bytes,
    decode_entries,
    init_resource_map,
)

RMS_MAGIC = b"RMS1"
RMS_VERSION = 1
_RMS_HEAD = struct.Struct("<4sHIH")


def encode_summary(node_id: int, rm: ResourceMap) -> bytes:
    """Serialize a resource map for uplink; decode(encode(x)) == x."""
    entries = rm.encode()
    count = len(entries) // RM_ENTRY_SIZE
    if count > 0xFFFF:
        raise TooManyEntriesError(f"{count} entries exceed the u16 count")
    head = _RMS_HEAD.pack(RMS_MAGIC, RMS_VERSION, node_id, count)
    body = head + entries
    return body + struct.pack("<I", crc32(body))


def _check_message(data: bytes) -> tuple[int, bytes]:
    """Check one summary's header, length and CRC; returns (node id, the
    entry bytes). Raises MessageError subclasses on a short, over-long,
    foreign or corrupt message."""
    if len(data) < _RMS_HEAD.size + 4:
        raise MalformedMessageError("message shorter than minimum")
    magic, version, node_id, count = _RMS_HEAD.unpack_from(data, 0)
    if magic != RMS_MAGIC:
        raise MalformedMessageError(f"bad magic {magic!r}")
    if version != RMS_VERSION:
        raise MalformedMessageError(f"unsupported version {version}")
    expected = _RMS_HEAD.size + RM_ENTRY_SIZE * count + 4
    if len(data) != expected:
        raise MalformedMessageError(
            f"message length {len(data)}, expected {expected}")
    (stored,) = struct.unpack_from("<I", data, expected - 4)
    if crc32(data[:expected - 4]) != stored:
        raise CrcMismatchError("summary message checksum mismatch")
    return node_id, data[_RMS_HEAD.size:expected - 4]


def decode_summary(data: bytes) -> tuple[int, list[RmEntry]]:
    """Check and unpack one summary message; raises MessageError subclasses
    on a short, over-long, foreign or corrupt message."""
    node_id, body = _check_message(data)
    return node_id, decode_entries(body)


@dataclass
class ChildMapping:
    """Routes (child node, child module) pairs onto parent modules and
    names the downlink diagnostic resource representing each child node.

    File format, one association per line:

        child <nodeId> <childModuleId> -> <parentModuleId>
        downlink <nodeId> <diagResourceId>
    """

    routes: dict[tuple[int, int], int] = field(default_factory=dict)
    downlinks: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # routes are fixed once the mapping is built
        self._routed_nodes = {nid for nid, _ in self.routes}

    def knows_node(self, node_id: int) -> bool:
        return node_id in self.downlinks or node_id in self._routed_nodes

    @classmethod
    def parse(cls, text: str) -> "ChildMapping":
        routes: dict[tuple[int, int], int] = {}
        downlinks: dict[int, int] = {}
        for lineno, line in text_lines(text):
            parts = line.split()
            try:
                if (parts[0] == "child" and len(parts) == 5
                        and parts[3] == "->"):
                    key = (int_token(parts[1], "node id", ScenarioError),
                           int_token(parts[2], "child module id",
                                     ScenarioError))
                    if key in routes:
                        raise ScenarioError(f"duplicate route for {key}")
                    routes[key] = int_token(parts[4], "parent module id",
                                            ScenarioError)
                elif parts[0] == "downlink" and len(parts) == 3:
                    node_id = int_token(parts[1], "node id", ScenarioError)
                    downlinks[node_id] = int_token(
                        parts[2], "diag resource id", ScenarioError)
                else:
                    raise ScenarioError(f"bad syntax {line!r}")
            except ScenarioError as exc:
                raise ScenarioError(f"mapping line {lineno}: {exc}") \
                    from None
        return cls(routes, downlinks)


def ingest_summary(parent_hm: HealthMap, parent_rm: ResourceMap,
                   message: bytes, mapping: ChildMapping,
                   timestamp: int) -> int:
    """Fold a child summary into the parent node's state.

    Every faulty entry routed to a parent module P is recorded at P by
    `record_event` with DEFAULT_MERGE_WINDOW_US, as sensor reports are: an
    event of the child's downlink detector, with persistence taken from
    the entry, classification the low byte of the child module id and
    payload the id. The parent resource map is updated once per parent
    module touched, with the maxima of its faults seen in this summary;
    that equals one own-fault update per entry, because propagation keeps
    maxima and only caps severity with min, and the max of min(s_i, c) is
    min(max s_i, c). Returns the number of faulty entries skipped because
    they were unmapped.
    """
    node_id, body = _check_message(message)
    _check_enum_bytes(body)
    if not mapping.knows_node(node_id):
        raise UnknownNodeError(f"summary from unmapped node {node_id}")
    detector_id = mapping.downlinks.get(node_id)
    has_detector = (detector_id is not None
                    and detector_id in parent_hm.diag_resources)
    routes = mapping.routes
    transient = Persistence.TRANSIENT
    worst: dict[int, tuple[Severity, Persistence]] = {}
    skipped = 0
    try:
        for child_module, sev, pers, _status in RM_ENTRY.iter_unpack(body):
            if not sev:
                continue
            parent_module = routes.get((node_id, child_module))
            if parent_module is None:
                skipped += 1
                continue
            if not has_detector:
                raise UnknownDetectorError(
                    f"no downlink diag resource for node {node_id}")
            fault, _created = record_event(
                parent_hm, parent_module, child_module & 0xFF,
                SEVERITIES[sev],
                PERSISTENCES[pers] if pers else transient,
                detector_id, timestamp, child_module,
                DEFAULT_MERGE_WINDOW_US)
            severity, persistence = fault.severity, fault.persistence
            seen = worst.get(parent_module)
            if seen is None:
                worst[parent_module] = severity, persistence
            elif severity > seen[0] or persistence > seen[1]:
                worst[parent_module] = (max(severity, seen[0]),
                                        max(persistence, seen[1]))
    finally:
        # also on error, so the map reflects every fault already recorded
        for module_id, (sev, pers) in worst.items():
            parent_rm._update(module_id, sev, pers, ModuleStatus.OWN_FAULT)
    return skipped


# --------------------------------------------------------------------------
# scenario simulation


@dataclass
class NodeSpec:
    node_id: int
    hm_path: Path
    map_path: Optional[Path]
    period_us: int
    parent_id: Optional[int]


@dataclass
class ScheduledDetection:
    time_us: int
    node_id: int
    report: DetectionReport
    seq: int


@dataclass
class Scenario:
    """Node tree, timed detection events and the simulated duration.

    File format:

        duration <µs>
        node <id> hm=<xml> map=<file|none> period=<µs> parent=<id|none>
        at <µs> node <id> detect <detectorId> sev=<SEV> class=<n>
    """

    nodes: dict[int, NodeSpec] = field(default_factory=dict)
    events: list[ScheduledDetection] = field(default_factory=list)
    duration_us: int = 0

    @classmethod
    def parse(cls, text: str, base_dir: Path) -> "Scenario":
        scenario = cls()
        for lineno, line in text_lines(text):
            parts = line.split()
            try:
                if parts[0] == "duration" and len(parts) == 2:
                    scenario.duration_us = int_token(parts[1], "duration",
                                                     ScenarioError)
                elif parts[0] == "node":
                    scenario._parse_node(parts, base_dir)
                elif parts[0] == "at":
                    scenario._parse_event(parts, line)
                else:
                    raise ScenarioError(f"bad directive {parts[0]!r}")
            except HealthMapError as exc:
                # any error of the line's own checks (a report's field
                # ranges, say) keeps its class and gains the line number
                exc.args = (f"scenario line {lineno}: {exc}",)
                raise
        scenario._validate()
        return scenario

    def _parse_node(self, parts: list[str], base_dir: Path) -> None:
        if len(parts) != 6:
            raise ScenarioError("node line needs id, hm=, map=, period=, "
                                "parent=")
        node_id = int_token(parts[1], "node id", ScenarioError, U32_MAX)
        if node_id in self.nodes:
            raise ScenarioError(f"duplicate node id {node_id}")
        kv = {}
        for part in parts[2:]:
            key, _, value = part.partition("=")
            kv[key] = value
        for key in ("hm", "map", "period", "parent"):
            if key not in kv:
                raise ScenarioError(f"node line missing {key}=")
        self.nodes[node_id] = NodeSpec(
            node_id=node_id,
            hm_path=base_dir / kv["hm"],
            map_path=None if kv["map"] == "none" else base_dir / kv["map"],
            period_us=int_token(kv["period"], "period", ScenarioError),
            parent_id=(None if kv["parent"] == "none"
                       else int_token(kv["parent"], "parent node id",
                                      ScenarioError)),
        )

    def _parse_event(self, parts: list[str], line: str) -> None:
        if len(parts) < 5 or parts[2] != "node":
            raise ScenarioError(f"bad event line {line!r}")
        time_us = int_token(parts[1], "event time", ScenarioError)
        node_id = int_token(parts[3], "node id", ScenarioError)
        report = parse_report_line(" ".join(parts[4:]),
                                   default_timestamp=time_us)
        self.events.append(ScheduledDetection(
            time_us=time_us,
            node_id=node_id,
            report=report,
            seq=len(self.events),
        ))

    def _validate(self) -> None:
        if self.duration_us <= 0:
            raise ScenarioError("scenario needs a positive duration")
        # Parent chains in linear time: each node's chain verdict (None, or
        # the message of the error its climb to a root meets) is its
        # parent's, unless the node is on a cycle or its parent is unknown.
        # So a cycle message names the first node of the cycle that the
        # climb reaches, itself if it is on one.
        nodes = self.nodes
        verdicts: dict[int, Optional[str]] = {}
        for spec in nodes.values():
            if spec.period_us <= 0:
                # the emission schedule steps by the period
                raise ScenarioError(
                    f"node {spec.node_id} needs a positive period")
            climb: list[int] = []
            nid = spec.node_id
            while nid not in verdicts:
                verdicts[nid] = None
                climb.append(nid)
                nid = nodes[nid].parent_id
                if nid is None or nid not in nodes:
                    break
            else:
                if nid in climb:   # the climb closed a cycle
                    cut = climb.index(nid)
                    for member in climb[cut:]:
                        verdicts[member] = (
                            f"node tree cycle through node {member}")
                    del climb[cut:]
            for nid in reversed(climb):
                parent = nodes[nid].parent_id
                if parent is not None:
                    verdicts[nid] = (
                        verdicts[parent] if parent in nodes
                        else f"node {nid} references unknown parent {parent}")
            if verdicts[spec.node_id] is not None:
                raise ScenarioError(verdicts[spec.node_id])
        for event in self.events:
            if event.node_id not in self.nodes:
                raise ScenarioError(
                    f"event references unknown node {event.node_id}")


@dataclass
class _LiveNode:
    spec: NodeSpec
    hm: HealthMap
    sidecar: compiler.Sidecar
    rm: ResourceMap
    mapping: Optional[ChildMapping]


@dataclass
class SimulationResult:
    message_log: list[str]
    rm_log: list[str]
    final_rms: dict[int, ResourceMap]
    nodes: dict[int, "_LiveNode"]
    # parent node id -> faulty child entries it received without a route
    skipped: dict[int, int]

    def message_text(self) -> str:
        return "\n".join(self.message_log) + "\n"

    def rm_text(self) -> str:
        return "\n".join(self.rm_log) + "\n"


def simulate(scenario: Scenario) -> SimulationResult:
    """Discrete-event run: detections apply at their timestamps, each node
    emits a summary every period, parents ingest in timestamp order.
    Deterministic: ties break on (time, node id, event kind, sequence).
    """
    nodes: dict[int, _LiveNode] = {}
    for node_id, spec in sorted(scenario.nodes.items()):
        description = compiler.parse_description(
            spec.hm_path.read_text())
        hm, sidecar = compiler.build_map(description)
        mapping = None
        if spec.map_path is not None:
            mapping = ChildMapping.parse(spec.map_path.read_text())
        nodes[node_id] = _LiveNode(spec=spec, hm=hm, sidecar=sidecar,
                                   rm=init_resource_map(hm), mapping=mapping)

    # event tuples: (time, node_id, kind, seq, payload); detections (kind 0)
    # apply before emissions (kind 1) at the same instant
    events: list[tuple] = []
    for det in scenario.events:
        events.append((det.time_us, det.node_id, 0, det.seq, det.report))
    for node_id, spec in scenario.nodes.items():
        k = 1
        while k * spec.period_us <= scenario.duration_us:
            events.append((k * spec.period_us, node_id, 1, k, None))
            k += 1
    events.sort(key=lambda e: e[:4])

    message_log: list[str] = []
    rm_log: list[str] = []
    skipped: dict[int, int] = {}
    for time_us, node_id, kind, _seq, payload in events:
        node = nodes[node_id]
        if kind == 0:
            report_detection(node.hm, payload, rm=node.rm)
            continue
        parent_id = node.spec.parent_id
        if parent_id is None:
            rm_log.append(f"at {time_us} node {node_id} rm "
                          f"{node.rm.encode().hex()}")
            continue
        # the summary carries the entries verbatim: encode the map once
        message = encode_summary(node_id, node.rm)
        rm_log.append(f"at {time_us} node {node_id} rm "
                      f"{message[_RMS_HEAD.size:-4].hex()}")
        message_log.append(f"at {time_us} node {node_id} -> {parent_id} "
                           f"{message.hex()}")
        parent = nodes[parent_id]
        if parent.mapping is None:
            raise ScenarioError(
                f"node {parent_id} receives summaries but has no mapping")
        skipped[parent_id] = skipped.get(parent_id, 0) + ingest_summary(
            parent.hm, parent.rm, message, parent.mapping, time_us)

    return SimulationResult(
        message_log=message_log,
        rm_log=rm_log,
        final_rms={nid: node.rm for nid, node in nodes.items()},
        nodes=nodes,
        skipped=skipped,
    )
