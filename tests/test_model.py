import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from healthmap import (
    ChildMapping,
    DetectionReport,
    HealthMap,
    ModuleStatus,
    Persistence,
    Severity,
    deserialize,
    encode_summary,
    ingest_summary,
    init_resource_map,
    prune,
    report_detection,
    serialize,
)
from healthmap.model import (
    PERSISTENCES,
    SEVERITIES,
    STATUSES,
    Dependency,
    DiagResource,
    Fault,
    FaultDetection,
    Module,
    Violation,
)
from healthmap.resourcemap import RM_ENTRY
from healthmap.errors import (
    ClassificationRangeError,
    DuplicateIdError,
    FieldRangeError,
    UnknownDetectorError,
    UnknownModuleError,
    UnknownParentError,
    ZeroSeverityError,
)

from helpers import (
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
    with pytest.raises(ZeroSeverityError):
        hm.add_fault_with_detection(1, Severity.ZERO,
                                    Persistence.TRANSIENT, 0, 7, 0)


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


@pytest.mark.parametrize("field, value", [
    ("timestamp", 2**64),
    ("timestamp", -1),
    ("payload", 2**32),
    ("counter", 2**32),
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

        def ancestors_or_self(module):
            while module is not None:
                yield module.id
                module = module.parent

        for root in hm.modules:
            expected = [mid for mid, m in hm.modules.items()
                        if root in ancestors_or_self(m)]
            assert hm.subtree_ids(root) == expected


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
