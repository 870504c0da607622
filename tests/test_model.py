import gc
import random
from pathlib import Path

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
    codec,
    deserialize,
    encode_summary,
    ingest_summary,
    init_resource_map,
    prune,
    parse_description,
    report_detection,
    serialize,
    simulate,
    synthesize_map,
)
from healthmap.compiler import build_map
from healthmap.model import (
    PERSISTENCES,
    SEVERITIES,
    STATUSES,
    Dependency,
    DiagResource,
    Fault,
    FaultDetection,
    Module,
    DESCRIBED_BITS,
    QUOTED_CHARS,
    Violation,
    int_token,
)
from healthmap.resourcemap import RM_ENTRY
from healthmap.errors import (
    ClassificationRangeError,
    DuplicateIdError,
    FieldRangeError,
    SelfDependencyError,
    UnknownDetectorError,
    UnknownModuleError,
    UnknownParentError,
    ZeroSeverityError,
)

from helpers import (
    chain_subtree,
    oracle_parent_violations,
    oracle_resource_map,
    random_health_map,
    rm_state,
)


def test_add_module_into_empty_map():
    hm = HealthMap()
    root = hm.add_module(1)
    assert root.parent is None
    assert list(hm.modules) == [1]


def test_add_child_module():
    hm = HealthMap()
    hm.add_module(1)
    child = hm.add_module(2, parent_id=1, criticality=Severity.HIGH)
    assert child.parent is hm.modules[1]
    assert child.criticality == Severity.HIGH


def test_add_module_duplicate_id():
    hm = HealthMap()
    hm.add_module(1)
    with pytest.raises(DuplicateIdError):
        hm.add_module(1)


def test_add_module_unknown_parent():
    hm = HealthMap()
    with pytest.raises(UnknownParentError):
        hm.add_module(2, parent_id=99)


def test_add_fault_with_detection():
    hm = HealthMap()
    hm.add_module(1)
    hm.add_diag_resource(7, 1, kind=2)
    fault = hm.add_fault_with_detection(1, Severity.HIGH,
                                        Persistence.TRANSIENT, 3, 7, 1000)
    assert fault.owner is hm.modules[1]
    assert len(fault.detections) == 1
    assert fault.detections[0].counter == 1


def test_add_fault_zero_severity_rejected():
    hm = HealthMap()
    hm.add_module(1)
    hm.add_diag_resource(7, 1)
    for severity, persistence in ((Severity.ZERO, Persistence.TRANSIENT),
                                  (Severity.LOW, Persistence.ZERO)):
        with pytest.raises(ZeroSeverityError):
            hm.add_fault_with_detection(1, severity, persistence, 0, 7, 0)
    assert hm.faults == []


@pytest.mark.parametrize("classification", [-1, 256])
def test_add_fault_rejects_class_outside_u8(classification):
    hm = HealthMap()
    hm.add_module(1)
    with pytest.raises(ClassificationRangeError):
        hm.add_fault(1, Severity.LOW, Persistence.TRANSIENT, classification)
    assert hm.faults == []


def test_add_fault_unknown_detector():
    hm = HealthMap()
    hm.add_module(1)
    with pytest.raises(UnknownDetectorError):
        hm.add_fault_with_detection(1, Severity.LOW,
                                    Persistence.TRANSIENT, 0, 7, 0)


@pytest.mark.parametrize("add, error, message", [
    (lambda hm: hm.add_diag_resource(7, 1), DuplicateIdError,
     "^diag resource id 7 already present$"),
    (lambda hm: hm.add_dependency(1, 1, Severity.LOW), SelfDependencyError,
     "^module 1 cannot depend on itself$"),
    (lambda hm: hm.add_detection(hm.faults[0], 8, 0), UnknownDetectorError,
     "^diag resource 8 not found$"),
], ids=["duplicate-diag-resource", "self-dependency", "unknown-detector"])
def test_add_refuses_a_record_and_leaves_the_map(add, error, message):
    hm = HealthMap()
    hm.add_module(1)
    hm.add_diag_resource(7, 1)
    hm.add_fault(1, Severity.LOW, Persistence.TRANSIENT, 0)
    before = hm.snapshot()
    with pytest.raises(error, match=message):
        add(hm)
    assert hm.snapshot() == before


@pytest.mark.parametrize("field, value", [
    ("timestamp", 2**64),
    ("timestamp", -1),
    ("payload", 2**32),
    ("counter", 2**32),
    ("counter", 0),
    ("flags", 0x100),
])
def test_add_detection_rejects_value_outside_its_field(field, value):
    hm = HealthMap()
    hm.add_module(1)
    hm.add_diag_resource(7, 1)
    fault = hm.add_fault(1, Severity.LOW, Persistence.TRANSIENT, 0)
    values = {"timestamp": 0, field: value}
    with pytest.raises(FieldRangeError, match=f"detection {field}"):
        hm.add_detection(fault, 7, **values)
    assert fault.detections == [] and hm.detections == []
    # the largest values that fit are accepted
    hm.add_detection(fault, 7, 2**64 - 1, payload=2**32 - 1,
                     counter=2**32 - 1, flags=0xFF)


def test_distinct_classifications_make_distinct_faults():
    hm = HealthMap()
    hm.add_module(1)
    hm.add_diag_resource(7, 1)
    hm.add_fault_with_detection(1, Severity.LOW, Persistence.TRANSIENT,
                                0, 7, 0)
    hm.add_fault_with_detection(1, Severity.LOW, Persistence.TRANSIENT,
                                1, 7, 1)
    assert len(hm.modules[1].faults) == 2


def test_validate_clean_tree():
    hm = HealthMap()
    hm.add_module(1)
    hm.add_module(2, 1)
    hm.add_module(3, 1)
    assert hm.validate_structure() == []


def test_validate_reports_parent_cycle():
    hm = HealthMap()
    module = hm.add_module(1)
    module.parent = module
    kinds = {v.kind for v in hm.validate_structure()}
    assert "ParentCycle" in kinds


def test_validate_reports_bad_counter():
    hm = HealthMap()
    hm.add_module(1)
    hm.add_diag_resource(7, 1)
    fault = hm.add_fault_with_detection(1, Severity.LOW,
                                        Persistence.TRANSIENT, 0, 7, 0)
    fault.detections[0].counter = 0
    kinds = {v.kind for v in hm.validate_structure()}
    assert "BadCounter" in kinds


def test_insertion_order_is_preserved():
    hm = HealthMap()
    for mid in (5, 3, 9):
        hm.add_module(mid)
    hm.add_diag_resource(20, 3)
    hm.add_diag_resource(10, 9)
    assert list(hm.modules) == [5, 3, 9]
    assert list(hm.diag_resources) == [20, 10]


def test_random_constructions_always_validate_clean():
    rng = random.Random(1)
    for _ in range(50):
        hm = random_health_map(rng)
        assert hm.validate_structure() == []


def test_single_injected_violation_is_reported():
    rng = random.Random(2)
    for trial in range(30):
        hm = random_health_map(rng, with_faults=True)
        if not hm.faults:
            continue
        choice = trial % 3
        if choice == 0:
            hm.faults[0].severity = Severity.ZERO
        elif choice == 1:
            hm.faults[0].detections[0].counter = 0
        else:
            module = next(iter(hm.modules.values()))
            module.parent = module
        assert hm.validate_structure() != []


PARENT_KINDS = ("ParentCycle", "DanglingParent")


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**16), data=st.data())
def test_parent_chain_check_matches_full_chain_walk(seed, data):
    hm = random_health_map(random.Random(seed), max_modules=15,
                           with_faults=False)
    modules = list(hm.modules.values())
    foreign: list[Module] = []
    for _ in range(data.draw(st.integers(0, 4))):
        module = data.draw(st.sampled_from(modules))
        if data.draw(st.booleans()):
            # re-hang inside the map: may close a cycle
            module.parent = data.draw(st.sampled_from(modules))
        else:
            # a parent outside the map, possibly carrying an id in the map
            # (the module's own among them) and a parent of its own
            outside = Module(
                id=data.draw(st.sampled_from(
                    [module.id, 999_999, *(m.id for m in modules)])),
                parent=data.draw(st.sampled_from([None, *modules, *foreign])))
            foreign.append(outside)
            module.parent = outside
    found = [v for v in hm.validate_structure() if v.kind in PARENT_KINDS]
    assert found == oracle_parent_violations(hm)


def test_parent_chain_check_on_twenty_thousand_deep_chain():
    n = 20_000
    hm = HealthMap()
    hm.add_module(0)
    for mid in range(1, n):
        hm.add_module(mid, mid - 1)
    assert hm.validate_structure() == []
    hm.modules[0].parent = Module(id=n)
    assert hm.validate_structure() == [
        Violation("DanglingParent", mid, f"parent {n} not in map")
        for mid in range(n)]
    hm.modules[0].parent = hm.modules[n - 1]
    assert hm.validate_structure() == [
        Violation("ParentCycle", mid, f"cycle through module {mid}")
        for mid in range(n)]


def test_severity_order_algebra():
    values = list(Severity)
    for a in values:
        for b in values:
            assert max(a, b) == max(b, a)
            assert min(a, b) == min(b, a)
            assert max(a, a) == a
    assert Severity.ZERO < Severity.LOW < Severity.MEDIUM < Severity.HIGH
    assert (Persistence.ZERO < Persistence.TRANSIENT
            < Persistence.INTERMITTENT < Persistence.PERMANENT)


def test_subtree_ids_matches_parent_chain_walk_children_first():
    rng = random.Random(12)
    for _ in range(50):
        built = random_health_map(rng, max_modules=20, with_faults=False)
        # reversed insertion order puts children before their parents;
        # serialize keeps that order and deserialize restores it
        built.modules = dict(reversed(built.modules.items()))
        hm = deserialize(serialize(built))
        assert list(hm.modules) == list(built.modules)
        for root in hm.modules:
            assert hm.subtree_ids(root) == chain_subtree(hm, {root})


def test_subtree_ids_of_several_roots_is_their_union():
    rng = random.Random(13)
    for _ in range(50):
        hm = random_health_map(rng, max_modules=20, with_faults=False)
        hm.modules = dict(reversed(hm.modules.items()))
        roots = rng.sample(list(hm.modules), min(3, len(hm.modules)))
        union = {mid for root in roots for mid in hm.subtree_ids(root)}
        assert hm.subtree_ids(*roots) == [mid for mid in hm.modules
                                          if mid in union]
        assert hm.subtree_ids() == []
    with pytest.raises(UnknownModuleError):
        hm.subtree_ids(roots[0], 0)


def children_first_map(parents) -> HealthMap:
    """A map loaded from an image that lists every child before its
    parent: module i + 2's parent is one of modules 1..i + 1."""
    built = HealthMap()
    built.add_module(1)
    for i, pick in enumerate(parents):
        built.add_module(i + 2, pick % (i + 1) + 1)
    built.modules = dict(reversed(built.modules.items()))
    return deserialize(serialize(built))


# each step changes the module set (or not), then names up to three roots
# by their position in hm.modules
picks = st.lists(st.integers(0, 2**16), max_size=3)
subtree_steps = st.tuples(
    st.sampled_from(["add_module", "insert", "replace", "query"]),
    st.integers(0, 2**16), picks)


@settings(max_examples=150, deadline=None)
@given(parents=st.lists(st.integers(0, 2**16), min_size=1, max_size=10),
       steps=st.lists(subtree_steps, max_size=20))
def test_subtree_index_follows_every_change_of_the_module_set(parents, steps):
    hm = children_first_map(parents)
    assert list(hm.modules)[-2:] == [2, 1]
    for _ in range(2):   # the second query reuses the index
        for root in hm.modules:
            assert hm.subtree_ids(root) == chain_subtree(hm, {root})
    next_id = len(hm.modules) + 1
    for kind, pick, root_picks in steps:
        ids = list(hm.modules)
        parent = ids[pick % len(ids)]
        if kind == "add_module":
            hm.add_module(next_id, parent)
        elif kind == "insert":
            hm.modules[next_id] = Module(next_id, hm.modules[parent])
        elif kind == "replace":
            hm.modules = dict(reversed(hm.modules.items()))
        next_id += kind in ("add_module", "insert")
        ids = list(hm.modules)
        roots = [ids[p % len(ids)] for p in root_picks]
        assert hm.subtree_ids(*roots) == chain_subtree(hm, set(roots))
        rm = init_resource_map(hm, maintenance=roots)
        assert rm_state(rm) == oracle_resource_map(hm, roots)


def test_a_parent_edit_is_seen_once_the_modules_dict_is_replaced():
    hm = HealthMap()
    for mid, parent in ((1, None), (2, 1), (3, None), (4, 3)):
        hm.add_module(mid, parent)
    assert hm.subtree_ids(1) == [1, 2]
    hm.modules[4].parent = hm.modules[2]
    hm.modules = dict(hm.modules)
    assert hm.subtree_ids(1) == [1, 2, 4]
    assert hm.subtree_ids(3) == [3]


# -- (module, classification) fault index ------------------------------------

INDEX_MODULES = (1, 2, 3, 4)
INDEX_CLASSES = range(4)
INDEX_DETECTORS = (10, 11, 12, 13)
# child node 7; child modules 1 and 257 share class 1 on parent module 2,
# child module 9 is unmapped
INDEX_MAPPING = ChildMapping.parse(
    "downlink 7 13\nchild 7 1 -> 2\nchild 7 257 -> 2\n"
    "child 7 2 -> 2\nchild 7 3 -> 4\nchild 7 258 -> 3\n")
CHILD_MODULES = (1, 2, 3, 9, 257, 258)


def index_map():
    hm = HealthMap()
    hm.add_module(1)
    hm.add_module(2, 1, Severity.LOW)
    hm.add_module(3, 1, Severity.HIGH)
    hm.add_module(4, 3, Severity.MEDIUM)
    hm.add_dependency(2, 4, Severity.MEDIUM)
    for rid, owner in zip(INDEX_DETECTORS, (2, 3, 4, 1)):
        hm.add_diag_resource(rid, owner)
    return hm


class _Summary:
    def __init__(self, entries):
        self.entries = entries

    def encode(self):
        return b"".join(RM_ENTRY.pack(*e) for e in self.entries)


severities = st.sampled_from(list(Severity)[1:])
persistences = st.sampled_from(list(Persistence)[1:])
index_steps = st.one_of(
    st.tuples(st.just("add"), st.sampled_from(INDEX_MODULES),
              st.sampled_from(INDEX_CLASSES), severities, persistences),
    st.tuples(st.just("report"), st.sampled_from(INDEX_DETECTORS),
              st.sampled_from(INDEX_CLASSES), severities, st.integers(0, 3)),
    st.tuples(st.just("ingest"),
              st.lists(st.tuples(st.sampled_from(CHILD_MODULES),
                                 st.sampled_from(list(Severity)),
                                 st.sampled_from(list(Persistence)),
                                 st.sampled_from(list(ModuleStatus))),
                       max_size=8),
              st.integers(0, 3)),
    # a copy of an existing fault, which prune then merges away
    st.tuples(st.just("dup"), st.integers(0, 99)),
    st.tuples(st.just("reload")),
    st.tuples(st.just("prune")),
)


@settings(max_examples=80, deadline=None)
@given(st.lists(index_steps, max_size=25))
def test_fault_index_matches_last_match_scan(steps):
    hm = index_map()
    rm = init_resource_map(hm)
    for step in steps:
        kind = step[0]
        if kind == "add":
            _, mid, cls, sev, pers = step
            hm.add_fault(mid, sev, pers, cls)
            rm.update_single_fault(mid, sev, pers, ModuleStatus.OWN_FAULT)
        elif kind == "dup" and hm.faults:
            f = hm.faults[step[1] % len(hm.faults)]
            hm.add_fault(f.owner.id, f.severity, f.persistence,
                         f.classification)
        elif kind == "report":
            _, det, cls, sev, t = step
            report_detection(hm, DetectionReport(det, sev, cls, t), rm=rm)
        elif kind == "ingest":
            _, entries, t = step
            message = encode_summary(7, _Summary(entries))
            ingest_summary(hm, rm, message, INDEX_MAPPING, t)
        elif kind == "reload":
            hm = deserialize(serialize(hm))
            rm = init_resource_map(hm)
        elif kind == "prune":
            prune(hm)
        for mid in INDEX_MODULES:
            for cls in INDEX_CLASSES:
                scan = None
                for fault in hm.modules[mid].faults:
                    if fault.classification == cls:
                        scan = fault
                assert hm.find_fault(mid, cls) is scan
        assert rm_state(rm) == oracle_resource_map(hm)


@pytest.mark.parametrize("table, enum", [
    (SEVERITIES, Severity), (PERSISTENCES, Persistence),
    (STATUSES, ModuleStatus)])
def test_enum_tables_map_each_byte_to_its_member(table, enum):
    assert len(table) == len(enum)
    for byte, member in enumerate(table):
        assert member is enum(byte)


def test_records_are_slot_backed():
    module, other = Module(1), Module(2)
    res = DiagResource(3, module)
    records = (module, res, Dependency(module, other, Severity.LOW),
               Fault(module, Severity.LOW, Persistence.TRANSIENT, 0),
               FaultDetection(res, 0))
    for record in records:
        assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("token, message", [
    # a token of at most QUOTED_CHARS characters is quoted whole
    ("1x", "bad module id '1x': not an integer"),
    ("4294967296", "module id 4294967296 outside 0..4294967295"),
    ("9" * QUOTED_CHARS, f"module id {'9' * QUOTED_CHARS} outside "
                         f"0..4294967295"),
    # a longer one by its first QUOTED_CHARS characters and its length
    ("1" * 5000, f"bad module id '{'1' * QUOTED_CHARS}'... (5000 "
                 f"characters): not an integer"),
    ("9" * 41, f"module id '{'9' * QUOTED_CHARS}'... (41 characters) "
               f"outside 0..4294967295"),
    ("x" * 41, f"bad module id '{'x' * QUOTED_CHARS}'... (41 characters): "
               f"not an integer"),
])
def test_int_token_quotes_at_most_the_head_of_a_long_token(token, message):
    with pytest.raises(FieldRangeError) as info:
        int_token(token, "module id", FieldRangeError, 0xFFFFFFFF)
    assert str(info.value) == message


@pytest.mark.parametrize("value, shown", [
    (10**5000, "<16610-bit integer>"),
    (-10**5000, "-<16610-bit integer>"),
    (2**DESCRIBED_BITS, f"<{DESCRIBED_BITS + 1}-bit integer>"),
    (2**DESCRIBED_BITS - 1, f"'{str(2**DESCRIBED_BITS - 1)[:QUOTED_CHARS]}'"
                            f"... (617 characters)"),
], ids=["10**5000", "-10**5000", "2**DESCRIBED_BITS",
        "2**DESCRIBED_BITS - 1"])
def test_check_field_describes_a_huge_integer_by_its_bit_length(value,
                                                                 shown):
    # str() of an integer past CPython's digit limit raises ValueError
    with pytest.raises(FieldRangeError) as info:
        HealthMap().add_module(value)
    assert str(info.value) == f"module id {shown} outside 0..4294967295"
    assert len(str(info.value)) <= 200


def test_int_token_reads_a_long_token_in_range():
    assert int_token("0" * 100 + "7", "module id", FieldRangeError,
                     0xFFFFFFFF) == 7


# -- a dropped map frees itself ------------------------------------------------
# Each record points at its module, and each module at its faults, diag
# resources and dependencies; no record points at the map, whose finalizer
# empties the modules' lists, so reference counting frees a dropped map
# whole and the cyclic collector finds nothing.

DEMO_DATA = Path(__file__).parent.parent / "demo" / "data"


def _eight_core_image() -> bytes:
    return serialize(synthesize_map(8))


def _simulated():
    scenario = Scenario.parse((DEMO_DATA / "board.scn").read_text(),
                              DEMO_DATA)
    return simulate(scenario)


MAP_MAKERS = {
    "deserialize": lambda: deserialize(_eight_core_image()),
    "check": lambda: codec._check(_eight_core_image()),
    "load": lambda: codec._load(_eight_core_image(), 7),
    "build_map": lambda: build_map(parse_description(
        (DEMO_DATA / "cpu.xml").read_text())),
    "synthesize_map": lambda: synthesize_map(8),
    "simulate": _simulated,
}


@pytest.mark.parametrize("make", MAP_MAKERS.values(), ids=MAP_MAKERS)
def test_a_dropped_map_leaves_no_cyclic_garbage(paused_collector, make):
    gc.collect()
    made = make()
    del made
    assert gc.collect() == 0


def test_a_dropped_map_with_a_200_000_deep_parent_chain_frees_itself(
        paused_collector):
    # freeing the chain frees each module from its child's release, which
    # must not recurse once per level
    hm = HealthMap()
    for mid in range(200_000):
        hm.add_module(mid, mid - 1 if mid else None, Severity.LOW)
        hm.add_diag_resource(mid, mid)
        if mid:
            hm.add_dependency(mid, mid - 1, Severity.LOW)
    hm.add_fault_with_detection(199_999, Severity.HIGH,
                                Persistence.PERMANENT, 1, 199_999, 5)
    gc.collect()
    del hm
    assert gc.collect() == 0


def test_a_record_kept_after_its_map_keeps_its_fields_but_not_its_lists(
        paused_collector):
    image = _eight_core_image()
    gc.collect()
    hm = deserialize(image)
    fault = hm.modules[11].faults[1]
    resource, dependency = hm.diag_resources[32], hm.dependencies[0]
    del hm
    assert gc.collect() == 0
    assert (fault.owner.id, fault.classification, fault.severity) == (
        11, 1, Severity.LOW)
    assert [d.detector.id for d in fault.detections] == [31] * 10
    assert fault.owner.parent.id == 1
    assert (resource.id, resource.owner.id) == (32, 11)
    assert (dependency.provider.id, dependency.dependent.id) == (1, 2)
    for module in (fault.owner, resource.owner, dependency.provider,
                   dependency.dependent):
        assert (module.faults, module.diag_resources,
                module.dependencies) == ([], [], [])
