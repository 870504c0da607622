import hashlib
import struct
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from healthmap import (
    ChildMapping,
    ClassifierConfig,
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
from healthmap import hierarchy
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
    mapping = ChildMapping(routes={(3, 12): 2}, downlinks={4: 5})
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
CHILD_MODULES = [1, 2, 3, 257, 70_000]   # 1 and 257 share a low byte
MISSING_MODULE = 50                      # a route target the parent lacks
ENUM_SIZES = (len(Severity), len(Persistence), len(ModuleStatus))


@st.composite
def summary_messages(draw):
    """One RMS1 message from node 1, 2 or the unmapped node 3 with 0..6
    entries; it may carry 1-3 out-of-range enum bytes (CRC re-stamped), a
    broken CRC, a wrong length or entry count, or a foreign header."""
    node = draw(st.sampled_from([1, 1, 1, 2, 3]))
    rows = draw(st.lists(st.tuples(
        st.sampled_from(CHILD_MODULES),
        st.sampled_from([*range(1, ENUM_SIZES[0]), 0]),   # mostly faulty
        st.integers(0, ENUM_SIZES[1] - 1),
        st.integers(0, ENUM_SIZES[2] - 1)), max_size=6))
    body = bytearray(b"".join(struct.pack("<IBBB", *row) for row in rows))
    kinds = ["good"] * 8 + ["crc", "length", "count", "header"]
    kind = draw(st.sampled_from(kinds + ["enum"] * 3 if rows else kinds))
    if kind == "enum":
        for _ in range(draw(st.integers(1, 3))):
            entry = draw(st.integers(0, len(rows) - 1))
            field = draw(st.integers(0, 2))
            body[7 * entry + 4 + field] = draw(
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
    nowhere, and a few messages at non-decreasing times."""
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
    routes = {(node, child): parent
              for node in (1, 2) for child in CHILD_MODULES
              for parent in [draw(targets)] if parent is not None}
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
    # `hm simulate demo/data/board.scn` stdout; CI checks the same digest
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "bd35a98e30032dc2ea9b552feb9aa397dd40558d2ee29d083a390f9cd9d708b7")
    monkeypatch.setattr(hierarchy, "ingest_summary", reference_ingest_summary)
    reference = simulate(scenario)
    assert result.nodes[0].hm.snapshot() == reference.nodes[0].hm.snapshot()
    assert rm_state(result.nodes[0].rm) == rm_state(reference.nodes[0].rm)


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
    routes = {(1, child): parent for child, parent in enumerate(
        draw(st.lists(st.one_of(st.none(), ids), min_size=4, max_size=4)),
        1) if parent is not None}
    gaps = st.integers(0, 3 * DEFAULT_MERGE_WINDOW_US // 2)
    steps = draw(st.lists(st.one_of(
        st.tuples(st.just("report"), gaps, ids,
                  st.sampled_from(list(Severity)[1:]), st.integers(0, 4)),
        st.tuples(st.just("summary"), gaps, st.lists(
            st.tuples(SEVERITIES, PERSISTENCES), min_size=4, max_size=4))),
        max_size=25))
    return modules, deps, routes, steps


def replay(case, window):
    """Run a recording case with both merge windows set to `window`; returns
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
    config = ClassifierConfig(merge_window_us=window)
    now = 0
    with mock.patch.object(hierarchy, "DEFAULT_MERGE_WINDOW_US", window):
        for kind, gap, *args in steps:
            now += gap
            if kind == "report":
                mid, sev, cls = args
                report_detection(hm, DetectionReport(100 + mid, sev, cls, now),
                                 config, rm=rm)
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


def test_mapping_parse_errors():
    with pytest.raises(ScenarioError):
        ChildMapping.parse("child 1 12 2\n")
    with pytest.raises(ScenarioError):
        ChildMapping.parse("child 1 12 -> 2\nchild 1 12 -> 3\n")
    with pytest.raises(ScenarioError, match="mapping line 2: bad diag"):
        ChildMapping.parse("child 1 12 -> 2\ndownlink 1 five\n")


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
