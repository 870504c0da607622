import random

import pytest

from healthmap import HealthMap, Persistence, Severity, deserialize, serialize
from healthmap.errors import (
    ClassificationRangeError,
    DuplicateIdError,
    UnknownDetectorError,
    UnknownParentError,
    ZeroSeverityError,
)

from helpers import random_health_map


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
