"""Hierarchical roll-up: resource map summaries travel up a tree of nodes
as checksummed wire messages and feed the parent node's health map through
a per-child virtual "downlink" diagnostic resource.

Message format (little-endian):

    magic "RMS1" | version u16 | nodeId u32 | entryCount u16 |
    entryCount x 7-byte entry | crc32 u32 over all preceding bytes

A parent checks a summary once, header, length and CRC and then every
enum byte, so a malformed message records nothing. These checks are C-level
scans of the whole message (the CRC over a view of it, one
`bytes.translate` per enum column), and the faulty entries are then picked
out by their severity bytes, so healthy (ZERO severity) entries, most of a
summary, are never unpacked and an ingest costs Python work per faulty
entry, not per entry. Each faulty entry routed to a parent module (looked up
in the mapping's per-node route index) is recorded there by
`faultmgr.record_event`, the rule sensor reports follow,
so a steady child fault merges into one parent detection per merge window
(`faultmgr.DEFAULT_MERGE_WINDOW_US`, 1 s).
The parent's resource map is updated once per parent module touched, with
the maxima over that module's faults, rather than once per entry. Both
give the same map: propagation keeps maxima and caps severity only with
min, and max_i min(s_i, c) = min(max_i s_i, c).

A summary carries fault history, not availability. The parent records
only entries of nonzero severity and never acts on an entry's status byte
(it only checks that the byte is a status), so a child module in
MAINTENANCE with no fault shows AVAILABLE at the parent.

The simulator is single-threaded discrete-event; the wire format is the
contract a networked deployment would reuse.
"""

from __future__ import annotations

import heapq
import struct
from dataclasses import dataclass, field
from itertools import compress
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
    DetectionReport,
    parse_report_line,
    record_event,
    report_detection,
)
from .model import (PERSISTENCES, SEVERITIES, U32_MAX, HealthMap, Module,
                    ModuleStatus, Persistence, Severity, int_token,
                    parent_verdicts, quote_int, quote_path, quote_token,
                    read_text, text_lines)
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
# persistence byte -> the persistence of a downlink event: a child entry
# with ZERO persistence records a TRANSIENT event
_EVENT_PERSISTENCES = (Persistence.TRANSIENT,) + PERSISTENCES[1:]


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
    if crc32(memoryview(data)[:expected - 4]) != stored:
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

    Every id is a u32, as the node, module and diag resource ids it names
    are. Routes are held by node, {node: {child module: parent module}},
    so an ingest resolves its node once and each entry by child module.
    """

    routes: dict[int, dict[int, int]] = field(default_factory=dict)
    downlinks: dict[int, int] = field(default_factory=dict)

    def knows_node(self, node_id: int) -> bool:
        return node_id in self.downlinks or node_id in self.routes

    @classmethod
    def parse(cls, text: str) -> "ChildMapping":
        routes: dict[int, dict[int, int]] = {}
        downlinks: dict[int, int] = {}
        for lineno, line in text_lines(text):
            parts = line.split()
            try:
                if (parts[0] == "child" and len(parts) == 5
                        and parts[3] == "->"):
                    node_id = int_token(parts[1], "node id", ScenarioError,
                                        U32_MAX)
                    child = int_token(parts[2], "child module id",
                                      ScenarioError, U32_MAX)
                    node_routes = routes.setdefault(node_id, {})
                    if child in node_routes:
                        raise ScenarioError(
                            f"duplicate route for {(node_id, child)}")
                    node_routes[child] = int_token(
                        parts[4], "parent module id", ScenarioError, U32_MAX)
                elif parts[0] == "downlink" and len(parts) == 3:
                    node_id = int_token(parts[1], "node id", ScenarioError,
                                        U32_MAX)
                    if node_id in downlinks:
                        raise ScenarioError(
                            f"duplicate downlink for node {node_id}")
                    downlinks[node_id] = int_token(
                        parts[2], "diag resource id", ScenarioError, U32_MAX)
                else:
                    raise ScenarioError(f"bad syntax {quote_token(line)}")
            except ScenarioError as exc:
                raise ScenarioError(f"mapping line {lineno}: {exc}") \
                    from None
        return cls(routes, downlinks)


def ingest_summary(parent_hm: HealthMap, parent_rm: ResourceMap,
                   message: bytes, mapping: ChildMapping,
                   timestamp: int) -> int:
    """Fold a child summary into the parent node's state.

    Every faulty entry routed to a parent module P is recorded at P by
    `record_event`, in the one merge window sensor reports use: an
    event of the child's downlink detector, with persistence taken from
    the entry (ZERO read as TRANSIENT), classification the low byte of the
    child module id and payload the id. The parent resource map is updated
    once per parent module touched, with the maxima of its faults seen in
    this summary; that equals one own-fault update per entry, because
    propagation keeps maxima and only caps severity with min, and the max
    of min(s_i, c) is min(max s_i, c). Returns the number of faulty entries
    skipped because they were unmapped.

    The cost follows the faulty entries, not the summary's length: the
    whole message is checked by C-level scans (CRC, one `translate` per
    enum column), the faulty entries are picked out by their severity
    bytes, and only those are unpacked.
    """
    node_id, body = _check_message(message)
    _check_enum_bytes(body)
    if not mapping.knows_node(node_id):
        raise UnknownNodeError(f"summary from unmapped node {node_id}")
    routes = mapping.routes.get(node_id, {})
    detector_id = mapping.downlinks.get(node_id)
    has_detector = (detector_id is not None
                    and detector_id in parent_hm.diag_resources)
    unpack = RM_ENTRY.unpack_from
    worst: dict[int, tuple[Severity, Persistence]] = {}
    skipped = 0
    try:
        # a nonzero severity byte marks a faulty entry
        for offset in compress(range(0, len(body), RM_ENTRY_SIZE),
                               body[4::RM_ENTRY_SIZE]):
            child_module, sev, pers, _status = unpack(body, offset)
            parent_module = routes.get(child_module)
            if parent_module is None:
                skipped += 1
                continue
            if not has_detector:
                raise UnknownDetectorError(
                    f"no downlink diag resource for node {node_id}")
            fault, _created = record_event(
                parent_hm, parent_module, child_module & 0xFF,
                SEVERITIES[sev], _EVENT_PERSISTENCES[pers],
                detector_id, timestamp, child_module)
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


# The most summary emissions (Σ duration // period over the nodes) one
# scenario may ask for: the cap bounds a run's time.
MAX_EMISSIONS = 1_000_000


@dataclass
class Scenario:
    """Node tree, timed detection events and the simulated duration.

    File format:

        duration <µs>
        node <id> hm=<xml> map=<file|none> period=<µs> parent=<id|none>
        at <µs> node <id> detect <detectorId> sev=<SEV> class=<n>
            [t=<µs>] [payload=<hex>]

    An event may come at any time up to `duration` (at it too), so every
    detection applies before the run's last emission; a later one is
    refused. Its detection is timestamped with its `at` time, which a
    `t=` may repeat but not contradict. Each detection is kept as the event
    `simulate` merges: (time, node id, 0, sequence, report).
    """

    nodes: dict[int, NodeSpec] = field(default_factory=dict)
    events: list[tuple[int, int, int, int, DetectionReport]] = field(
        default_factory=list)
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
                    raise ScenarioError(
                        f"bad directive {quote_token(parts[0])}")
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
                                      ScenarioError, U32_MAX)),
        )

    def _parse_event(self, parts: list[str], line: str) -> None:
        if len(parts) < 5 or parts[2] != "node":
            raise ScenarioError(f"bad event line {quote_token(line)}")
        time_us = int_token(parts[1], "event time", ScenarioError)
        node_id = int_token(parts[3], "node id", ScenarioError, U32_MAX)
        report = parse_report_line(" ".join(parts[4:]),
                                   default_timestamp=time_us)
        if report.timestamp != time_us:
            # one clock: the run applies the event at its `at` time
            raise ScenarioError(
                f"event t={quote_int(report.timestamp)} is not the line's "
                f"at time {quote_int(time_us)}")
        self.events.append((time_us, node_id, 0, len(self.events), report))

    def _validate(self) -> None:
        if self.duration_us <= 0:
            raise ScenarioError("scenario needs a positive duration")
        # a record per node; an unknown parent id gets a record outside the map
        tree = {nid: Module(nid) for nid in self.nodes}
        for nid, spec in self.nodes.items():
            if (parent := spec.parent_id) is not None:
                tree[nid].parent = tree.get(parent) or Module(parent)
        verdicts = parent_verdicts(tree)
        for nid, spec in self.nodes.items():
            if spec.period_us <= 0:
                # the emission schedule steps by the period
                raise ScenarioError(f"node {nid} needs a positive period")
            if verdicts[id(tree[nid])] is not None:
                _kind, at, *child = verdicts[id(tree[nid])]
                raise ScenarioError(
                    f"node {child[0]} references unknown parent {at}"
                    if child else f"node tree cycle through node {at}")
        emissions = sum(self.duration_us // spec.period_us
                        for spec in self.nodes.values())
        if emissions > MAX_EMISSIONS:
            raise ScenarioError(f"scenario makes {quote_int(emissions)} "
                                f"summary emissions, above the cap of "
                                f"{MAX_EMISSIONS}")
        for time_us, node_id, *_ in self.events:
            if node_id not in self.nodes:
                raise ScenarioError(
                    f"event references unknown node {node_id}")
            if time_us > self.duration_us:
                raise ScenarioError(
                    f"event at {quote_int(time_us)} µs is after the "
                    f"duration of {quote_int(self.duration_us)} µs")


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


def _parse_file(path: Path, parse):
    """`parse` of the text of a node's file; its error, of the same class,
    names the file (read_text's own error already does)."""
    text = read_text(path)
    try:
        return parse(text)
    except HealthMapError as exc:
        exc.args = (f"{quote_path(path)}: {exc}",)
        raise


def _emissions(spec: NodeSpec, duration_us: int):
    """A node's emission events, in time order, up to `duration_us`."""
    for k in range(1, duration_us // spec.period_us + 1):
        yield k * spec.period_us, spec.node_id, 1, k, None


def simulate(scenario: Scenario) -> SimulationResult:
    """Discrete-event run: detections apply at their timestamps, each node
    emits a summary every period, parents ingest in timestamp order.
    Deterministic: ties break on (time, node id, event kind, sequence).
    """
    nodes: dict[int, _LiveNode] = {}
    for node_id, spec in sorted(scenario.nodes.items()):
        hm, sidecar = _parse_file(spec.hm_path, lambda text: (
            compiler.build_map(compiler.parse_description(text))))
        mapping = None
        if spec.map_path is not None:
            mapping = _parse_file(spec.map_path, ChildMapping.parse)
        nodes[node_id] = _LiveNode(spec=spec, hm=hm, sidecar=sidecar,
                                   rm=init_resource_map(hm), mapping=mapping)

    # events (time, node id, kind, seq, payload), merged lazily: detections
    # (kind 0) apply before emissions (kind 1) at the same instant, and the
    # first four fields are unique, so a payload is never compared
    duration_us = scenario.duration_us
    events = heapq.merge(sorted(scenario.events), *(
        _emissions(spec, duration_us) for spec in scenario.nodes.values()
        if spec.period_us <= duration_us))
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
