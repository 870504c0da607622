import gc
import hashlib
import struct
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from healthmap import (
    ChildMapping,
    DetectionReport,
    HealthMap,
    ModuleStatus,
    Persistence,
    Scenario,
    Severity,
    compile_xml,
    decode_summary,
    encode_summary,
    ingest_summary,
    init_resource_map,
    report_detection,
    simulate,
)
from healthmap import faultmgr, hierarchy
from healthmap.hierarchy import NodeSpec
from healthmap.resourcemap import ResourceMap
from healthmap.compiler import build_map, parse_description
from healthmap.codec import crc32
from healthmap.faultmgr import DEFAULT_MERGE_WINDOW_US
from healthmap.model import FLAG_MERGED
from healthmap.errors import (
    ClassificationRangeError,
    CrcMismatchError,
    FieldRangeError,
    MalformedMessageError,
    ScenarioError,
    TooManyEntriesError,
    UnknownDetectorError,
    UnknownModuleError,
    UnknownNodeError,
)

import golden
from conftest import DATA_DIR, FPU_C0_INSTRUMENT
from helpers import (
    oracle_resource_map,
    oracle_scenario_error,
    reference_decode_summary,
    reference_ingest_summary,
    rm_state,
)

DEMO_DATA = Path(__file__).parent.parent / "demo" / "data"

PARENT_XML = """<healthmap version="1">
  <module id="1" name="BOARD" criticality="ZERO">
    <module id="2" name="NODE1" criticality="LOW">
      <instrument id="5" kind="7"/>
    </module>
  </module>
</healthmap>"""

MAPPING_TEXT = """# child node 1
downlink 1 5
child 1 12 -> 2
"""


def parent_state():
    hm, sidecar = build_map(parse_description(PARENT_XML))
    return hm, sidecar, init_resource_map(hm)


def child_summary(table1_map, severity=Severity.HIGH):
    report_detection(table1_map,
                     DetectionReport(FPU_C0_INSTRUMENT, severity, 1, 0))
    return encode_summary(1, init_resource_map(table1_map))


# -- wire format --------------------------------------------------------------

def test_summary_sizes(table1_map):
    rm = init_resource_map(table1_map)
    assert len(encode_summary(1, rm)) == 12 + 9 * 7 + 4 == 79

    from healthmap import HealthMap
    empty = init_resource_map(HealthMap())
    assert len(encode_summary(1, empty)) == 16


def test_summary_round_trip(table1_map):
    rm = init_resource_map(table1_map)
    rm.update_single_fault(12, Severity.HIGH, Persistence.INTERMITTENT,
                           ModuleStatus.OWN_FAULT)
    node_id, entries = decode_summary(encode_summary(7, rm))
    assert node_id == 7
    assert [e.module_id for e in entries] == list(table1_map.modules)
    by_id = {e.module_id: e for e in entries}
    assert by_id[12].severity == Severity.HIGH
    assert by_id[12].status == ModuleStatus.OWN_FAULT


def test_summary_single_byte_corruption_detected(table1_map):
    message = bytearray(encode_summary(1, init_resource_map(table1_map)))
    message[20] ^= 0x40
    with pytest.raises(CrcMismatchError):
        decode_summary(bytes(message))


def test_summary_malformed_rejected(table1_map):
    good = encode_summary(1, init_resource_map(table1_map))
    with pytest.raises(MalformedMessageError):
        decode_summary(good[:10])
    with pytest.raises(MalformedMessageError):
        decode_summary(good + b"\x00")
    with pytest.raises(MalformedMessageError):
        decode_summary(b"XXXX" + good[4:])


@pytest.mark.parametrize("field_offset", [4, 5, 6],
                         ids=["severity", "persistence", "status"])
def test_summary_enum_byte_out_of_range_rejected(table1_map, field_offset):
    message = bytearray(encode_summary(1, init_resource_map(table1_map)))
    message[12 + 7 * 2 + field_offset] = 9          # third entry
    message[-4:] = crc32(bytes(message[:-4])).to_bytes(4, "little")
    with pytest.raises(MalformedMessageError, match="entry 2"):
        decode_summary(bytes(message))


def test_summary_entry_count_limit():
    class HugeRm:
        def encode(self):
            return bytes(7 * 65536)

    with pytest.raises(TooManyEntriesError):
        encode_summary(1, HugeRm())


# -- ingest -------------------------------------------------------------------

def test_ingest_routes_child_fault_to_parent_module(table1_map):
    hm, _sidecar, rm = parent_state()
    mapping = ChildMapping.parse(MAPPING_TEXT)
    skipped = ingest_summary(hm, rm, child_summary(table1_map), mapping,
                             timestamp=5000)
    # child modules CPU, CPU.C0 carry propagated severities with no route
    assert skipped == 2
    faults = hm.modules[2].faults
    assert len(faults) == 1
    assert faults[0].severity == Severity.HIGH
    assert faults[0].classification == 12
    assert faults[0].detections[0].detector.id == 5
    assert rm.entry(2).status == ModuleStatus.OWN_FAULT
    # board row is capped by NODE1's LOW criticality
    assert rm.entry(1).severity == Severity.LOW
    assert rm.entry(1).status == ModuleStatus.PROPAGATED_FAULT


def test_ingest_all_zero_summary_is_noop(table1_map):
    hm, _sidecar, rm = parent_state()
    mapping = ChildMapping.parse(MAPPING_TEXT)
    message = encode_summary(1, init_resource_map(table1_map))
    assert ingest_summary(hm, rm, message, mapping, 0) == 0
    assert hm.faults == []
    assert rm.entry(1).status == ModuleStatus.AVAILABLE


def test_ingest_unknown_node_rejected(table1_map):
    hm, _sidecar, rm = parent_state()
    mapping = ChildMapping.parse(MAPPING_TEXT)
    message = encode_summary(9, init_resource_map(table1_map))
    with pytest.raises(UnknownNodeError):
        ingest_summary(hm, rm, message, mapping, 0)


def test_ingest_without_downlink_detector_rejected(table1_map):
    hm, _sidecar, rm = parent_state()
    mapping = ChildMapping.parse("child 1 12 -> 2\n")
    quiet = encode_summary(1, init_resource_map(table1_map))
    assert ingest_summary(hm, rm, quiet, mapping, 0) == 0
    with pytest.raises(UnknownDetectorError):
        ingest_summary(hm, rm, child_summary(table1_map), mapping, 0)
    assert hm.faults == []


def test_ingest_route_to_missing_module_keeps_map_in_step(table1_map):
    hm, _sidecar, rm = parent_state()
    # CPU (module 1) comes before CPU.C0 (module 10) in the summary
    mapping = ChildMapping.parse("downlink 1 5\nchild 1 1 -> 2\n"
                                 "child 1 10 -> 99\n")
    with pytest.raises(UnknownModuleError):
        ingest_summary(hm, rm, child_summary(table1_map), mapping, 0)
    assert len(hm.faults) == 1
    assert rm_state(rm) == oracle_resource_map(hm)


def test_mapping_built_directly_knows_its_nodes():
    mapping = ChildMapping(routes={3: {12: 2}}, downlinks={4: 5})
    assert mapping.knows_node(3) and mapping.knows_node(4)
    assert not mapping.knows_node(12)


def test_repeated_ingest_merges_into_counter(table1_map):
    hm, _sidecar, rm = parent_state()
    mapping = ChildMapping.parse(MAPPING_TEXT)
    message = child_summary(table1_map)
    ingest_summary(hm, rm, message, mapping, timestamp=5000)
    ingest_summary(hm, rm, message, mapping, timestamp=5000)
    ingest_summary(hm, rm, message, mapping, timestamp=10000)
    fault = hm.modules[2].faults[0]
    assert [d.counter for d in fault.detections] == [3]
    # the window runs from the detection's first event
    ingest_summary(hm, rm, message, mapping,
                   timestamp=5000 + DEFAULT_MERGE_WINDOW_US + 1)
    assert [d.counter for d in fault.detections] == [3, 1]
    assert fault.detections[0].flags & FLAG_MERGED


# -- ingest against the entry-object reference -------------------------------

DOWNLINK = 99
SEVERITIES = st.sampled_from(list(Severity))
PERSISTENCES = st.sampled_from(list(Persistence))
# 1, 257 and 513 share a low byte, so they may share a parent fault
CHILD_MODULES = [1, 2, 3, 257, 513, 70_000]
MISSING_MODULE = 50                      # a route target the parent lacks
ENUM_SIZES = (len(Severity), len(Persistence), len(ModuleStatus))


@st.composite
def summary_messages(draw):
    """One RMS1 message from node 1, 2 or the unmapped node 3: 0..6
    mostly faulty entries, or a few hundred mostly healthy ones with 0..6
    faulty among them. It may carry out-of-range enum bytes (CRC
    re-stamped) in 1-3 columns of one entry and in up to 2 more entries,
    a broken CRC, a wrong length or entry count, or a foreign header."""
    node = draw(st.sampled_from([1, 1, 1, 2, 3]))
    rows = draw(st.lists(st.tuples(
        st.sampled_from(CHILD_MODULES),
        st.sampled_from([*range(1, ENUM_SIZES[0]), 0]),   # mostly faulty
        st.integers(0, ENUM_SIZES[1] - 1),
        st.integers(0, ENUM_SIZES[2] - 1)), max_size=6))
    if draw(st.booleans()):
        # healthy entries (severity 0, any persistence and status, routed
        # ids or not) with the drawn rows at drawn places among them
        ids = CHILD_MODULES + [4, 600]
        healthy = [(ids[i % len(ids)], 0, i % ENUM_SIZES[1],
                    i % ENUM_SIZES[2])
                   for i in range(draw(st.integers(200, 400)) - len(rows))]
        for row in rows:
            healthy.insert(draw(st.integers(0, len(healthy))), row)
        rows = healthy
    body = bytearray(b"".join(struct.pack("<IBBB", *row) for row in rows))
    kinds = ["good"] * 8 + ["crc", "length", "count", "header"]
    kind = draw(st.sampled_from(kinds + ["enum"] * 3 if rows else kinds))
    if kind == "enum":
        entry = st.integers(0, len(rows) - 1)
        first = draw(entry)
        bad = [(first, field) for field in draw(st.lists(
            st.integers(0, 2), min_size=1, max_size=3, unique=True))]
        bad += draw(st.lists(st.tuples(entry, st.integers(0, 2)),
                             max_size=2))
        for at, field in bad:
            body[7 * at + 4 + field] = draw(
                st.integers(ENUM_SIZES[field], 255))
    count = len(rows) + (draw(st.sampled_from([-1, 1]))
                         if kind == "count" and rows else 0)
    magic, version = b"RMS1", 1
    if kind == "header":
        magic, version = draw(st.sampled_from([(b"RMS2", 1), (b"RMS1", 2)]))
    message = struct.pack("<4sHIH", magic, version, node, count) + body
    message += crc32(message).to_bytes(4, "little")
    if kind == "crc":
        at = draw(st.integers(0, len(message) - 1))
        message = (message[:at] + bytes([message[at] ^ draw(
            st.integers(1, 255))]) + message[at + 1:])
    elif kind == "length":
        message = draw(st.sampled_from([message[:-1], message + b"\0",
                                        message[:draw(st.integers(0, 15))]]))
    return bytes(message)


@st.composite
def ingest_cases(draw):
    """A parent forest of modules 1..n with some dependencies, the downlink
    instrument on module 1 or absent, downlinks for node 1 and maybe node
    2, routes from child modules to parent modules, to a missing module or
    nowhere (a child above 255 may take the route of the child with its
    low byte, so both file events under one parent fault), and a few
    messages at non-decreasing times."""
    n = draw(st.integers(1, 5))
    modules = [(i, draw(st.one_of(st.none(), st.integers(1, i - 1)))
                if i > 1 else None, draw(SEVERITIES))
               for i in range(1, n + 1)]
    ids = st.integers(1, n)
    deps = [(p, d, sev) for p, d, sev in draw(st.lists(
        st.tuples(ids, ids, SEVERITIES), max_size=n)) if p != d]
    downlink_present = draw(st.sampled_from([True, True, True, False]))
    downlinks = {node: DOWNLINK for node in
                 draw(st.sampled_from([(1, 2), (1, 2), (1,)]))}
    targets = st.sampled_from([None, MISSING_MODULE] + [*range(1, n + 1)] * 3)
    routes = {}
    for node in (1, 2):
        for child in CHILD_MODULES:   # ascending, so a low byte comes first
            parent = draw(targets)
            if child > 0xFF and draw(st.booleans()):
                parent = routes.get(node, {}).get(child & 0xFF)
            if parent is not None:
                routes.setdefault(node, {})[child] = parent
    gaps = st.integers(0, 3 * DEFAULT_MERGE_WINDOW_US // 2)
    steps = draw(st.lists(st.tuples(gaps, summary_messages()),
                          min_size=1, max_size=4))
    return modules, deps, downlink_present, downlinks, routes, steps


def ingest_parent(case):
    modules, deps, downlink_present, _downlinks, _routes, _steps = case
    hm = HealthMap()
    for mid, parent, crit in modules:
        hm.add_module(mid, parent, crit)
    if downlink_present:
        hm.add_diag_resource(DOWNLINK, 1)
    for provider, dependent, sev in deps:
        hm.add_dependency(provider, dependent, sev)
    return hm, init_resource_map(hm)


def outcome(call, *args):
    try:
        return call(*args)
    except Exception as exc:  # compared with the reference's, whatever it is
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(ingest_cases())
def test_ingest_matches_entry_object_reference(case):
    *_, downlinks, routes, steps = case
    mapping = ChildMapping(routes=routes, downlinks=downlinks)
    hm, rm = ingest_parent(case)
    ref_hm, ref_rm = ingest_parent(case)
    now = 0
    for gap, message in steps:
        now += gap
        assert (outcome(decode_summary, message)
                == outcome(reference_decode_summary, message))
        got = outcome(ingest_summary, hm, rm, message, mapping, now)
        want = outcome(reference_ingest_summary, ref_hm, ref_rm, message,
                       mapping, now)
        assert got == want
        assert hm.snapshot() == ref_hm.snapshot()
        assert rm_state(rm) == rm_state(ref_rm)
        assert all(type(e.severity) is Severity
                   and type(e.persistence) is Persistence
                   and type(e.status) is ModuleStatus
                   for e in rm.entries.values())


def test_demo_rollup_output_is_pinned(monkeypatch):
    scenario = Scenario.parse((DEMO_DATA / "board.scn").read_text(),
                              DEMO_DATA)
    result = simulate(scenario)
    text = result.message_text() + result.rm_text()
    # `hm simulate demo/data/board.scn` stdout, pinned in tests/golden.py
    assert hashlib.sha256(text.encode()).hexdigest() == golden.ROLLUP
    monkeypatch.setattr(hierarchy, "ingest_summary", reference_ingest_summary)
    reference = simulate(scenario)
    assert result.nodes[0].hm.snapshot() == reference.nodes[0].hm.snapshot()
    assert rm_state(result.nodes[0].rm) == rm_state(reference.nodes[0].rm)


def test_simulate_leaves_no_cyclic_garbage(paused_collector):
    # every node's description is parsed inside simulate; each parse must
    # be freed by reference counting, so `hm simulate` needs no collection
    scenario = Scenario.parse((DEMO_DATA / "board.scn").read_text(),
                              DEMO_DATA)
    gc.collect()
    result = simulate(scenario)
    assert gc.collect() == 0
    assert result.nodes


# -- one recording rule, whatever the merge window ---------------------------

@st.composite
def recording_cases(draw):
    """A parent forest of modules 1..n (instrument 100 + i on each, the
    downlink on module 1, some dependencies), routes for child node 1's
    modules 1..4, and a sequence of reports and summaries at
    non-decreasing times."""
    n = draw(st.integers(1, 6))
    modules = [(i, draw(st.one_of(st.none(), st.integers(1, i - 1)))
                if i > 1 else None, draw(SEVERITIES))
               for i in range(1, n + 1)]
    ids = st.integers(1, n)
    deps = [(p, d, sev) for p, d, sev in draw(st.lists(
        st.tuples(ids, ids, SEVERITIES), max_size=n)) if p != d]
    routes = {1: {child: parent for child, parent in enumerate(
        draw(st.lists(st.one_of(st.none(), ids), min_size=4, max_size=4)),
        1) if parent is not None}}
    gaps = st.integers(0, 3 * DEFAULT_MERGE_WINDOW_US // 2)
    steps = draw(st.lists(st.one_of(
        st.tuples(st.just("report"), gaps, ids,
                  st.sampled_from(list(Severity)[1:]), st.integers(0, 4)),
        st.tuples(st.just("summary"), gaps, st.lists(
            st.tuples(SEVERITIES, PERSISTENCES), min_size=4, max_size=4))),
        max_size=25))
    return modules, deps, routes, steps


def replay(case, window):
    """Run a recording case with the one merge window set to `window`; returns
    each fault's (severity, persistence, event total), the resource map and
    the number of detections."""
    modules, deps, routes, steps = case
    hm = HealthMap()
    for mid, parent, crit in modules:
        hm.add_module(mid, parent, crit)
        hm.add_diag_resource(100 + mid, mid)
    hm.add_diag_resource(DOWNLINK, 1)
    for provider, dependent, sev in deps:
        hm.add_dependency(provider, dependent, sev)
    rm = init_resource_map(hm)
    child = HealthMap()
    for mid in range(1, 5):
        child.add_module(mid)
    mapping = ChildMapping(routes=routes, downlinks={1: DOWNLINK})
    now = 0
    with mock.patch.object(faultmgr, "DEFAULT_MERGE_WINDOW_US", window):
        for kind, gap, *args in steps:
            now += gap
            if kind == "report":
                mid, sev, cls = args
                report_detection(hm, DetectionReport(100 + mid, sev, cls, now),
                                 rm=rm)
                continue
            child_rm = ResourceMap(child)
            for entry, (sev, pers) in zip(child_rm.entries.values(), args[0]):
                entry.severity, entry.persistence = sev, pers
            ingest_summary(hm, rm, encode_summary(1, child_rm), mapping, now)
    assert rm_state(rm) == oracle_resource_map(hm)
    faults = {(f.owner.id, f.classification): (
        f.severity, f.persistence, sum(d.counter for d in f.detections))
        for f in hm.faults}
    return faults, rm_state(rm), len(hm.detections)


@settings(max_examples=150, deadline=None)
@given(recording_cases())
def test_merge_window_changes_only_detection_lists(case):
    narrow, default, wide = (replay(case, window) for window in
                             (0, DEFAULT_MERGE_WINDOW_US, 2**64))
    assert narrow[:2] == default[:2] == wide[:2]
    assert narrow[2] >= default[2] >= wide[2]


def detections_per_pair():
    """Two sensor reports 1 us apart at parent module 1, then two summaries
    1 us apart of one faulty child entry routed to module 2; returns the
    number of detections each pair made."""
    hm = HealthMap()
    hm.add_module(1)
    hm.add_module(2)
    hm.add_diag_resource(101, 1)
    hm.add_diag_resource(DOWNLINK, 2)
    rm = init_resource_map(hm)
    for t in (0, 1):
        report_detection(hm, DetectionReport(101, Severity.LOW, 1, t), rm=rm)
    child = HealthMap()
    child.add_module(1)
    child_rm = ResourceMap(child)
    child_rm.entries[1].severity = Severity.HIGH
    child_rm.entries[1].persistence = Persistence.TRANSIENT
    summary = encode_summary(1, child_rm)
    mapping = ChildMapping(routes={1: {1: 2}}, downlinks={1: DOWNLINK})
    for t in (0, 1):
        ingest_summary(hm, rm, summary, mapping, t)
    return [len(hm.modules[mid].faults[0].detections) for mid in (1, 2)]


def test_one_merge_window_serves_reports_and_summaries():
    assert detections_per_pair() == [1, 1]
    with mock.patch.object(faultmgr, "DEFAULT_MERGE_WINDOW_US", 0):
        assert detections_per_pair() == [2, 2]


def test_mapping_parse_errors():
    with pytest.raises(ScenarioError):
        ChildMapping.parse("child 1 12 2\n")
    with pytest.raises(ScenarioError, match=(
            r"^mapping line 2: duplicate route for \(1, 12\)$")):
        ChildMapping.parse("child 1 12 -> 2\nchild 1 12 -> 3\n")
    with pytest.raises(ScenarioError, match="mapping line 2: bad diag"):
        ChildMapping.parse("child 1 12 -> 2\ndownlink 1 five\n")


def test_mapping_holds_routes_by_node():
    # one child module id on two nodes is two routes
    mapping = ChildMapping.parse("child 1 12 -> 2\nchild 2 12 -> 3\n"
                                 "child 1 13 -> 2\n")
    assert mapping.routes == {1: {12: 2, 13: 2}, 2: {12: 3}}


def test_mapping_duplicate_downlink_names_its_line():
    # as a duplicate route does: a second downlink would replace the first
    with pytest.raises(ScenarioError, match=(
            "^mapping line 3: duplicate downlink for node 1$")):
        ChildMapping.parse("downlink 1 5\nchild 1 12 -> 2\ndownlink 1 6\n")


@pytest.mark.parametrize("line, what", [
    ("child 4294967296 5 -> 2", "node id 4294967296"),
    ("child 1 4294967296 -> 2", "child module id 4294967296"),
    ("child 1 5 -> 4294967296", "parent module id 4294967296"),
    ("downlink 99999999999999 10", "node id 99999999999999"),
    ("downlink 1 4294967296", "diag resource id 4294967296"),
], ids=["child-node", "child-module", "parent-module", "downlink-node",
        "downlink-resource"])
def test_mapping_ids_are_u32(line, what):
    # an id no node, module or diag resource can have is refused, as a node
    # line's id is, rather than kept as a route that never matches
    with pytest.raises(ScenarioError, match=(
            f"^mapping line 2: {what} outside 0[.][.]4294967295$")):
        ChildMapping.parse(f"child 7 7 -> 7\n{line}\n")
    # the largest id is kept
    top = line.replace(what.split()[-1], str(2**32 - 1))
    ChildMapping.parse(f"child 7 7 -> 7\n{top}\n")


# -- scenario + simulation -----------------------------------------------------

def write_scenario(tmp_path, table1_xml, events, duration=10000,
                   child_period=5000):
    (tmp_path / "child.xml").write_text(table1_xml)
    (tmp_path / "parent.xml").write_text(PARENT_XML)
    (tmp_path / "parent.map").write_text(MAPPING_TEXT)
    lines = [f"duration {duration}",
             f"node 0 hm=parent.xml map=parent.map period={duration} "
             "parent=none",
             f"node 1 hm=child.xml map=none period={child_period} parent=0"]
    lines += events
    (tmp_path / "run.scn").write_text("\n".join(lines) + "\n")
    return Scenario.parse((tmp_path / "run.scn").read_text(), tmp_path)


def test_scenario_parse_validations(tmp_path, table1_xml):
    with pytest.raises(ScenarioError):
        Scenario.parse("node 0 hm=a map=none period=1 parent=none\n",
                       tmp_path)  # no duration
    with pytest.raises(ScenarioError):
        Scenario.parse("duration 5\n"
                       "node 0 hm=a map=none period=1 parent=7\n", tmp_path)
    with pytest.raises(ScenarioError):
        Scenario.parse("duration 5\n"
                       "node 0 hm=a map=none period=1 parent=1\n"
                       "node 1 hm=a map=none period=1 parent=0\n", tmp_path)
    with pytest.raises(ScenarioError):
        Scenario.parse("duration 5\n"
                       "at 1 node 3 detect 12 sev=HIGH class=1\n", tmp_path)
    with pytest.raises(ScenarioError, match="scenario line 2: bad period"):
        Scenario.parse("duration 5\n"
                       "node 0 hm=a map=none period=1ms parent=none\n",
                       tmp_path)


@pytest.mark.parametrize("fields, error", [
    ("class=300", ClassificationRangeError),
    ("class=1 payload=1ffffffff", FieldRangeError),
])
def test_scenario_report_error_keeps_class_and_names_line(tmp_path, fields,
                                                          error):
    with pytest.raises(error, match="^scenario line 3: .* outside 0[.][.]"):
        Scenario.parse("duration 5\n"
                       "node 0 hm=a map=none period=1 parent=none\n"
                       f"at 1 node 0 detect 12 sev=HIGH {fields}\n",
                       tmp_path)


@pytest.mark.parametrize("period", [0, -5])
def test_scenario_rejects_non_positive_period(tmp_path, period):
    # the emission schedule steps by the period, so it must advance
    with pytest.raises(ScenarioError, match="positive period"):
        Scenario.parse("duration 5\n"
                       f"node 0 hm=a map=none period={period} parent=none\n",
                       tmp_path)


NODE_LINE = "node 0 hm=a map=none period=1 parent=none"


@pytest.mark.parametrize("lines, message", [
    (["bogus 1"], "scenario line 2: bad directive 'bogus'"),
    (["node 0 hm=a map=none period=1"],
     "scenario line 2: node line needs id, hm=, map=, period=, parent="),
    ([NODE_LINE, NODE_LINE], "scenario line 3: duplicate node id 0"),
    (["node 0 hm=a map=none period=1 parnt=none"],
     "scenario line 2: node line missing parent="),
    ([NODE_LINE.replace("parent=none", "parent=4294967296")],
     "scenario line 2: parent node id 4294967296 outside 0..4294967295"),
    ([NODE_LINE, "at 1 node 4294967296 detect 12 sev=HIGH class=1"],
     "scenario line 3: node id 4294967296 outside 0..4294967295"),
    # an event applies at its `at` time, so a `t=` may only repeat it
    ([NODE_LINE, "at 1 node 0 detect 12 sev=HIGH class=1 t=99999999"],
     "scenario line 3: event t=99999999 is not the line's at time 1"),
], ids=["directive", "node-arity", "duplicate-node", "missing-key",
        "parent-past-u32", "event-node-past-u32", "event-t-not-at"])
def test_scenario_line_refusal_names_its_line(tmp_path, lines, message):
    with pytest.raises(ScenarioError) as exc:
        Scenario.parse("\n".join(["duration 5", *lines]) + "\n", tmp_path)
    assert str(exc.value) == message


# -- node-tree validation -----------------------------------------------------

def scenario_text(nodes) -> str:
    return "duration 5\n" + "".join(
        f"node {n.node_id} hm=a map=none period={n.period_us} "
        f"parent={'none' if n.parent_id is None else n.parent_id}\n"
        for n in nodes.values())


@st.composite
def node_forests(draw):
    """Nodes in random line order whose parents are none, another node or
    themselves (so cycles and tails into them), or an unknown id; now and
    then a period of 0."""
    ids = draw(st.lists(st.integers(0, 20), min_size=1, max_size=12,
                        unique=True))
    nodes = {}
    for nid in ids:
        parent = draw(st.one_of(st.none(), st.sampled_from(ids),
                                st.integers(0, 24)))
        period = draw(st.sampled_from([1, 1, 1, 1, 1, 0]))
        nodes[nid] = NodeSpec(nid, Path("a"), None, period, parent)
    return nodes


@settings(max_examples=300, deadline=None)
@given(node_forests())
def test_node_tree_check_matches_full_chain_walk(nodes):
    try:
        Scenario.parse(scenario_text(nodes), Path("."))
        got = None
    except ScenarioError as exc:
        got = str(exc)
    assert got == oracle_scenario_error(nodes)


@pytest.mark.parametrize("parents, through", [
    ({5: 5}, 5),                    # a node that is its own parent
    ({4: 2, 1: 3, 2: 1, 3: 2}, 2),  # a tail first: the climb enters at 2
    ({1: 3, 2: 1, 3: 2, 4: 2}, 1),  # a cycle member first: it names itself
])
def test_node_tree_cycle_names_the_node_the_climb_returns_to(parents,
                                                             through):
    nodes = {nid: NodeSpec(nid, Path("a"), None, 1, parent)
             for nid, parent in parents.items()}
    with pytest.raises(ScenarioError,
                       match=f"^node tree cycle through node {through}$"):
        Scenario.parse(scenario_text(nodes), Path("."))


def test_node_tree_unknown_parent_of_a_later_node_is_a_scenario_error():
    # node 1 is judged first; its climb meets node 2's unknown parent
    nodes = {1: NodeSpec(1, Path("a"), None, 1, 2),
             2: NodeSpec(2, Path("a"), None, 1, 99)}
    with pytest.raises(ScenarioError,
                       match="^node 2 references unknown parent 99$"):
        Scenario.parse(scenario_text(nodes), Path("."))


def test_node_tree_check_on_twenty_thousand_node_chain():
    n = 20_000
    # children before their parents, so every climb runs to the root
    nodes = {nid: NodeSpec(nid, Path("a"), None, 1, nid - 1 if nid else None)
             for nid in range(n - 1, -1, -1)}
    assert len(Scenario.parse(scenario_text(nodes), Path(".")).nodes) == n
    nodes[0].parent_id = n - 1
    with pytest.raises(ScenarioError,
                       match=f"^node tree cycle through node {n - 1}$"):
        Scenario.parse(scenario_text(nodes), Path("."))


def test_simulate_quiet_scenario_stays_available(tmp_path, table1_xml):
    scenario = write_scenario(tmp_path, table1_xml, [])
    result = simulate(scenario)
    assert all(not node.hm.faults for node in result.nodes.values())
    for rm in result.final_rms.values():
        assert all(e.severity == Severity.ZERO for e in rm.entries.values())
    # child emits at 5000 and 10000, parent at 10000
    assert len(result.message_log) == 2
    assert len(result.rm_log) == 3
    assert result.skipped == {0: 0}


def test_simulate_counts_unmapped_faulty_entries(tmp_path, table1_xml):
    scenario = write_scenario(
        tmp_path, table1_xml,
        ["at 1000 node 1 detect 12 sev=HIGH class=1"])
    result = simulate(scenario)
    # both summaries carry CPU and CPU.C0 faulty (propagated) with no route
    assert result.skipped == {0: 4}
    assert len(result.message_log) == 2
    assert len(result.rm_log) == 3


def test_simulate_two_level_rollup(tmp_path, table1_xml):
    scenario = write_scenario(
        tmp_path, table1_xml,
        ["at 1000 node 1 detect 12 sev=HIGH class=1"])
    result = simulate(scenario)
    parent_rm = result.final_rms[0]
    assert parent_rm.entry(2).status == ModuleStatus.OWN_FAULT
    assert parent_rm.entry(2).severity == Severity.HIGH
    assert parent_rm.entry(1).severity == Severity.LOW
    assert parent_rm.entry(1).status == ModuleStatus.PROPAGATED_FAULT
    child_rm = result.final_rms[1]
    assert child_rm.entry(12).status == ModuleStatus.OWN_FAULT


def test_simulate_is_deterministic(tmp_path, table1_xml):
    scenario_text_events = [
        "at 1000 node 1 detect 12 sev=HIGH class=1",
        "at 1000 node 1 detect 22 sev=LOW class=0",
        "at 7000 node 1 detect 12 sev=LOW class=1",
    ]
    runs = [simulate(write_scenario(tmp_path, table1_xml,
                                    scenario_text_events))
            for _ in range(2)]
    assert runs[0].message_text() == runs[1].message_text()
    assert runs[0].rm_text() == runs[1].rm_text()
    # logged uplink bytes decode to the final child summary
    last = runs[0].message_log[-1].split()[-1]
    node_id, entries = decode_summary(bytes.fromhex(last))
    assert node_id == 1
    assert {e.module_id: (e.severity, e.persistence, e.status)
            for e in entries} == {
        mid: (e.severity, e.persistence, e.status)
        for mid, e in runs[0].final_rms[1].entries.items()}


def test_simulate_encodes_each_emission_once(tmp_path, table1_xml,
                                             monkeypatch):
    scenario = write_scenario(
        tmp_path, table1_xml,
        ["at 1000 node 1 detect 12 sev=HIGH class=1"])
    calls = []
    encode = ResourceMap.encode

    def counted(self):
        calls.append(self)
        return encode(self)

    monkeypatch.setattr(ResourceMap, "encode", counted)
    result = simulate(scenario)
    assert len(calls) == len(result.rm_log) == 3
    # each child rm.log line carries its uplink message's entry bytes
    child_rms = [line for line in result.rm_log if " node 1 " in line]
    assert len(child_rms) == len(result.message_log) == 2
    for rm_line, message_line in zip(child_rms, result.message_log):
        message = bytes.fromhex(message_line.split()[-1])
        assert bytes.fromhex(rm_line.split()[-1]) == message[12:-4]


def test_simulate_parent_detections_grow_with_windows_not_summaries(
        tmp_path, table1_xml):
    duration = 10_000_000
    scenario = write_scenario(
        tmp_path, table1_xml, ["at 1000 node 1 detect 12 sev=HIGH class=1"],
        duration=duration, child_period=1000)
    result = simulate(scenario)
    assert len(result.message_log) == duration // 1000
    parent = result.nodes[0].hm
    windows = duration // DEFAULT_MERGE_WINDOW_US + 1
    assert 0 < len(parent.detections) <= len(parent.faults) * windows
    # every summary from the fault's detection on is still counted
    assert sum(d.counter for d in parent.detections) == duration // 1000


def test_scenario_emission_count_is_capped():
    # the count is the sum of duration // period over the nodes; a scenario
    # above the cap is refused at parse time, before any node is compiled
    at_cap = ("duration 1000000\n"
              "node 0 hm=missing.xml map=none period=2 parent=none\n"
              "node 1 hm=missing.xml map=none period=2 parent=0\n")
    assert hierarchy.MAX_EMISSIONS == 1_000_000
    assert len(Scenario.parse(at_cap, Path(".")).nodes) == 2
    with pytest.raises(ScenarioError, match="^scenario makes 1000002 summary "
                       "emissions, above the cap of 1000000$"):
        Scenario.parse(at_cap.replace("duration 1000000",
                                      "duration 1000002"), Path("."))
    with pytest.raises(ScenarioError, match="^scenario makes 42884901888 "
                       "summary emissions, above the cap of 1000000$"):
        Scenario.parse("duration 142949672960000\n"
                       "node 0 hm=a map=b period=10000 parent=none\n"
                       "node 1 hm=c map=none period=5000 parent=0\n",
                       Path("."))


def test_scenario_refuses_an_event_after_its_duration():
    # an event at the duration applies before the last emission; a later
    # one would apply after every emission, and no log would show it
    head = "duration 10000\nnode 1 hm=a map=none period=5000 parent=none\n"
    event = "at {} node {} detect 12 sev=HIGH class=1\n"
    scenario = Scenario.parse(head + event.format(10000, 1), Path("."))
    assert [e[0] for e in scenario.events] == [10000]
    # a `t=` equal to the `at` time is the same event
    again = Scenario.parse(head + event.format(10000, 1).replace(
        "\n", " t=10000\n"), Path("."))
    assert again.events == scenario.events
    with pytest.raises(ScenarioError, match="^event at 10001 µs is after the "
                       "duration of 10000 µs$"):
        Scenario.parse(head + event.format(10001, 1), Path("."))
    # events are checked in line order, each for its node first
    for events, message in (
            ([(1, 2), (10001, 1)], "^event references unknown node 2$"),
            ([(10001, 1), (1, 2)], "^event at 10001 µs"),
            ([(10001, 2)], "^event references unknown node 2$")):
        with pytest.raises(ScenarioError, match=message):
            Scenario.parse(head + "".join(event.format(*e) for e in events),
                           Path("."))


def test_simulate_refuses_a_summary_to_a_parent_without_mapping(
        tmp_path, table1_xml):
    write_scenario(tmp_path, table1_xml, [])
    text = (tmp_path / "run.scn").read_text().replace("map=parent.map",
                                                      "map=none")
    scenario = Scenario.parse(text, tmp_path)
    with pytest.raises(ScenarioError, match=(
            "^node 0 receives summaries but has no mapping$")):
        simulate(scenario)


def test_simulate_holds_no_schedule():
    # board.scn run for about 20 000 emissions: the run's peak memory is
    # what its result still holds (the logs), not a list of every event
    text = (DEMO_DATA / "board.scn").read_text()
    assert "duration 10000\n" in text
    scenario = Scenario.parse(text.replace("duration 10000\n",
                                           "duration 66665000\n"), DEMO_DATA)
    tracemalloc.start()
    try:
        result = simulate(scenario)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result.message_log) + len(result.rm_log) == 33332
    assert peak <= 1.1 * held, (peak, held)


@st.composite
def rollup_scenarios(draw):
    """A root node over one to four children, each with a drawn period,
    and detections at drawn times; periods and times share factors, so
    events of several nodes and kinds meet at one instant."""
    ids = draw(st.lists(st.integers(0, 9), min_size=2, max_size=5,
                        unique=True))
    root, children = ids[0], ids[1:]
    duration = draw(st.integers(1, 8)) * 1000
    periods = st.sampled_from([500, 1000, 2000, 3000, 10_000])
    lines = [f"duration {duration}",
             f"node {root} hm=parent.xml map=parent.map "
             f"period={draw(periods)} parent=none"]
    lines += [f"node {c} hm=child.xml map=none period={draw(periods)} "
              f"parent={root}" for c in children]
    for _ in range(draw(st.integers(0, 6))):
        node = draw(st.sampled_from(ids))
        detector = 5 if node == root else draw(st.sampled_from([12, 22]))
        sev = draw(st.sampled_from(["LOW", "HIGH"]))
        lines.append(f"at {draw(st.integers(0, duration // 500)) * 500} "
                     f"node {node} detect {detector} sev={sev} "
                     f"class={draw(st.integers(0, 2))}")
    mapping = "".join(f"downlink {c} 5\nchild {c} 12 -> 2\n"
                      for c in children)
    return "\n".join(lines) + "\n", mapping


def sorted_merge(*iterables):
    """The reference schedule: every event in one list, sorted on (time,
    node id, kind, sequence)."""
    return iter(sorted((e for it in iterables for e in it),
                       key=lambda e: e[:4]))


@settings(max_examples=40, deadline=None)
@given(rollup_scenarios())
def test_lazy_merge_runs_the_sorted_schedule(tmp_path_factory, case):
    text, mapping = case
    work = tmp_path_factory.mktemp("rollup")
    (work / "child.xml").write_text((DATA_DIR / "table1.xml").read_text())
    (work / "parent.xml").write_text(PARENT_XML)
    (work / "parent.map").write_text(mapping)
    scenario = Scenario.parse(text, work)
    lazy = simulate(scenario)
    with mock.patch.object(hierarchy.heapq, "merge", sorted_merge):
        eager = simulate(scenario)
    assert lazy.message_log == eager.message_log
    assert lazy.rm_log == eager.rm_log
    assert lazy.skipped == eager.skipped
    for nid, node in lazy.nodes.items():
        assert node.hm.snapshot() == eager.nodes[nid].hm.snapshot()
