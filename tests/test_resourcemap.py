import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from healthmap import (
    DetectionReport,
    HealthMap,
    ModuleStatus,
    Persistence,
    ResourceMap,
    Severity,
    init_resource_map,
    render_table,
    report_detection,
)
from healthmap.errors import MissingSymbolError, UnknownModuleError
from healthmap.faultmgr import DEFAULT_MERGE_WINDOW_US, record_event
from healthmap.resourcemap import RM_ENTRY, RM_ENTRY_SIZE, decode_entries

from conftest import CPU_C3, FPU_C0_INSTRUMENT
from helpers import oracle_resource_map, random_health_map, rm_state

TABLE1_RENDERING = """\
Module name  Worst severity  Worst persistence  Status
CPU          LOW             TRANSIENT          PROPAGATED FAULT
CPU.C0       LOW             TRANSIENT          PROPAGATED FAULT
CPU.C0.FPU   HIGH            TRANSIENT          OWN FAULT
CPU.C1       ZERO            ZERO               AVAILABLE
CPU.C1.FPU   ZERO            ZERO               AVAILABLE
CPU.C2       ZERO            ZERO               AVAILABLE
CPU.C2.FPU   ZERO            ZERO               AVAILABLE
CPU.C3       ZERO            ZERO               MAINTENANCE
CPU.C3.FPU   ZERO            ZERO               MAINTENANCE"""


def table1_with_fault(table1_map):
    report_detection(table1_map,
                     DetectionReport(FPU_C0_INSTRUMENT, Severity.HIGH,
                                     1, 1000))
    return table1_map


def test_reference_table_rows(table1_map, table1_sidecar):
    hm = table1_with_fault(table1_map)
    rm = init_resource_map(hm, maintenance=[CPU_C3])
    state = {table1_sidecar.name_for_id(mid): v
             for mid, v in rm_state(rm).items()}
    assert state["CPU"] == (Severity.LOW, Persistence.TRANSIENT,
                            ModuleStatus.PROPAGATED_FAULT)
    assert state["CPU.C0"] == (Severity.LOW, Persistence.TRANSIENT,
                               ModuleStatus.PROPAGATED_FAULT)
    assert state["CPU.C0.FPU"] == (Severity.HIGH, Persistence.TRANSIENT,
                                   ModuleStatus.OWN_FAULT)
    for name in ("CPU.C1", "CPU.C1.FPU", "CPU.C2", "CPU.C2.FPU"):
        assert state[name] == (Severity.ZERO, Persistence.ZERO,
                               ModuleStatus.AVAILABLE)
    for name in ("CPU.C3", "CPU.C3.FPU"):
        assert state[name] == (Severity.ZERO, Persistence.ZERO,
                               ModuleStatus.MAINTENANCE)


def test_render_table_golden(table1_map, table1_sidecar):
    hm = table1_with_fault(table1_map)
    rm = init_resource_map(hm, maintenance=[CPU_C3])
    assert render_table(rm, table1_sidecar) == TABLE1_RENDERING


def test_render_empty_map_is_header_only():
    hm = HealthMap()
    rm = init_resource_map(hm)

    class EmptySidecar:
        def name_for_id(self, mid):
            return None

    out = render_table(rm, EmptySidecar())
    assert out.splitlines() == [
        "Module name  Worst severity  Worst persistence  Status"]


def test_render_missing_symbol(table1_map):
    rm = init_resource_map(table1_map)

    class NoNames:
        def name_for_id(self, mid):
            return None

    with pytest.raises(MissingSymbolError):
        render_table(rm, NoNames())


def test_zero_faults_all_available(table1_map):
    rm = init_resource_map(table1_map)
    assert all(v == (Severity.ZERO, Persistence.ZERO,
                     ModuleStatus.AVAILABLE)
               for v in rm_state(rm).values())


def test_update_single_fault_max_semantics(table1_map):
    rm = init_resource_map(table1_map)
    rm.update_single_fault(12, Severity.LOW, Persistence.TRANSIENT,
                           ModuleStatus.OWN_FAULT)
    rm.update_single_fault(12, Severity.HIGH, Persistence.TRANSIENT,
                           ModuleStatus.OWN_FAULT)
    assert rm.entry(12).severity == Severity.HIGH
    # dominated update changes nothing
    before = rm_state(rm)
    rm.update_single_fault(12, Severity.LOW, Persistence.TRANSIENT,
                           ModuleStatus.OWN_FAULT)
    assert rm_state(rm) == before


def test_update_unknown_module(table1_map):
    rm = init_resource_map(table1_map)
    with pytest.raises(UnknownModuleError):
        rm.update_single_fault(777, Severity.LOW, Persistence.TRANSIENT,
                               ModuleStatus.OWN_FAULT)


def test_propagation_zero_criticality_stops():
    hm = HealthMap()
    hm.add_module(1)
    hm.add_module(2, 1, criticality=Severity.ZERO)
    rm = ResourceMap(hm)
    rm.update_single_fault(2, Severity.HIGH, Persistence.PERMANENT,
                           ModuleStatus.OWN_FAULT)
    assert rm.entry(1).severity == Severity.ZERO
    assert rm.entry(1).status == ModuleStatus.AVAILABLE


def test_three_level_chain_min_capping():
    hm = HealthMap()
    hm.add_module(1)                                   # root
    hm.add_module(2, 1, criticality=Severity.LOW)      # mid
    hm.add_module(3, 2, criticality=Severity.HIGH)     # leaf
    rm = ResourceMap(hm)
    rm.update_single_fault(3, Severity.HIGH, Persistence.TRANSIENT,
                           ModuleStatus.OWN_FAULT)
    assert rm.entry(2).severity == Severity.HIGH   # min(HIGH, HIGH)
    assert rm.entry(1).severity == Severity.LOW    # min(HIGH, LOW)
    assert rm.entry(1).status == ModuleStatus.PROPAGATED_FAULT
    # persistence rides along uncapped
    assert rm.entry(1).persistence == Persistence.TRANSIENT


def test_own_fault_not_masked_by_propagation():
    hm = HealthMap()
    hm.add_module(1)
    hm.add_module(2, 1, criticality=Severity.HIGH)
    rm = ResourceMap(hm)
    rm.update_single_fault(1, Severity.LOW, Persistence.TRANSIENT,
                           ModuleStatus.OWN_FAULT)
    rm.update_single_fault(2, Severity.HIGH, Persistence.PERMANENT,
                           ModuleStatus.OWN_FAULT)
    assert rm.entry(1).status == ModuleStatus.OWN_FAULT
    assert rm.entry(1).severity == Severity.HIGH


def test_dependency_propagation_single_hop():
    hm = HealthMap()
    for mid in (1, 2, 3):
        hm.add_module(mid)
    hm.add_dependency(1, 2, Severity.LOW)
    hm.add_dependency(2, 3, Severity.HIGH)
    rm = ResourceMap(hm)
    rm.update_single_fault(1, Severity.HIGH, Persistence.PERMANENT,
                           ModuleStatus.OWN_FAULT)
    # one hop: 2 receives min(HIGH, LOW); the chain stops there
    assert rm.entry(2).severity == Severity.LOW
    assert rm.entry(2).status == ModuleStatus.PROPAGATED_FAULT
    assert rm.entry(3).severity == Severity.ZERO


def test_maintenance_marks_subtree(table1_map, table1_sidecar):
    rm = init_resource_map(table1_map)
    rm.set_maintenance(CPU_C3, True)
    assert rm.entry(CPU_C3).status == ModuleStatus.MAINTENANCE
    fpu_c3 = table1_sidecar.id_for_name("CPU.C3.FPU")
    assert rm.entry(fpu_c3).status == ModuleStatus.MAINTENANCE
    assert rm.entry(1).status == ModuleStatus.AVAILABLE


def test_unmark_fault_free_core(table1_map):
    rm = init_resource_map(table1_map)
    rm.set_maintenance(CPU_C3, True)
    rm.set_maintenance(CPU_C3, False)
    assert rm.entry(CPU_C3).status == ModuleStatus.AVAILABLE


def test_unmark_restores_own_fault(table1_map):
    hm = table1_map
    report_detection(hm, DetectionReport(FPU_C0_INSTRUMENT, Severity.HIGH,
                                         1, 0))
    rm = init_resource_map(hm, maintenance=[12])
    assert rm.entry(12).status == ModuleStatus.MAINTENANCE
    rm.set_maintenance(12, False)
    expected = oracle_resource_map(hm)
    assert rm_state(rm)[12] == expected[12]
    assert rm.entry(12).status == ModuleStatus.OWN_FAULT


def test_entry_encoding_is_seven_bytes(table1_map):
    rm = init_resource_map(table1_map)
    encoded = rm.encode()
    assert len(encoded) == RM_ENTRY_SIZE * len(table1_map.modules)
    first = decode_entries(encoded[:RM_ENTRY_SIZE])[0]
    assert first.module_id == 1


def test_encode_matches_entry_by_entry_encoding():
    rng = random.Random(12)
    for _ in range(50):
        hm = random_health_map(rng)
        rm = init_resource_map(hm)
        assert rm.encode() == b"".join(
            RM_ENTRY.pack(e.module_id, e.severity, e.persistence, e.status)
            for e in map(rm.entries.get, hm.modules))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.data())
def test_clearing_maintenance_matches_rebuild(seed, data):
    hm = random_health_map(random.Random(seed))
    # a loaded image may hold faults of severity ZERO (add_fault refuses
    # them); clearing maintenance must not count those as OWN FAULT
    for fault in hm.faults:
        if data.draw(st.booleans()):
            fault.severity = Severity.ZERO
    root = data.draw(st.sampled_from(list(hm.modules)))
    rm = init_resource_map(hm, maintenance=[root])
    rm.set_maintenance(root, False)
    assert rm_state(rm) == rm_state(init_resource_map(hm))


def test_init_matches_oracle_on_random_maps():
    rng = random.Random(9)
    for _ in range(200):
        hm = random_health_map(rng)
        assert rm_state(init_resource_map(hm)) == oracle_resource_map(hm)


def test_init_is_idempotent_and_order_free():
    rng = random.Random(10)
    for _ in range(50):
        hm = random_health_map(rng)
        state = rm_state(init_resource_map(hm))
        assert rm_state(init_resource_map(hm)) == state

        # replay faults in random order through the incremental path
        rm = ResourceMap(hm)
        faults = list(hm.faults)
        rng.shuffle(faults)
        for fault in faults:
            rm.update_single_fault(fault.owner.id, fault.severity,
                                   fault.persistence,
                                   ModuleStatus.OWN_FAULT)
        assert rm_state(rm) == state


def test_propagation_cap_property():
    rng = random.Random(11)
    for _ in range(50):
        hm = random_health_map(rng)
        rm = init_resource_map(hm)
        for module in hm.modules.values():
            if module.parent is None or not module.faults:
                continue
            own = max(f.severity for f in module.faults)
            # the contribution this child sends upward never exceeds its
            # criticality
            assert min(own, module.criticality) <= max(
                module.criticality, Severity.ZERO)
            if module.criticality == Severity.ZERO:
                continue
            capped = Severity(min(rm.entry(module.id).severity,
                                  module.criticality))
            assert capped <= module.criticality


def deep_chain(depth):
    """Modules 1..depth, each the parent of the next; module 2 has ZERO
    criticality (so the root sees nothing) and the leaf's parent feeds a
    dependency into the middle of the chain."""
    hm = HealthMap()
    for mid in range(1, depth + 1):
        crit = Severity.ZERO if mid == 2 else Severity(3 - mid % 2)
        hm.add_module(mid, mid - 1 if mid > 1 else None, crit)
    hm.add_dependency(depth - 1, depth // 2, Severity.HIGH)
    hm.add_diag_resource(1, depth)
    return hm


def test_deep_chain_propagates_without_recursion_limit():
    depth = 10_000
    hm = deep_chain(depth)
    rm = init_resource_map(hm)
    report_detection(hm, DetectionReport(1, Severity.HIGH, 0, 0), rm=rm)
    expected = oracle_resource_map(hm)
    assert rm_state(rm) == expected
    assert rm_state(init_resource_map(hm)) == expected
    assert expected[3][0] == Severity.MEDIUM
    assert expected[1][0] == Severity.ZERO


# -- one propagation walk for the rebuild and the incremental update ---------

SEVERITIES = st.sampled_from(list(Severity))
FAULT_SEVERITIES = st.sampled_from(list(Severity)[1:])
PERSISTENCES = st.sampled_from(list(Persistence)[1:])


@st.composite
def propagation_cases(draw):
    """A random forest with dependency fan-out (ZERO criticalities and ZERO
    dependency severities included), some faults, 0-3 maintenance roots
    and a sequence of incremental updates."""
    n = draw(st.integers(1, 10))
    hm = HealthMap()
    for i in range(1, n + 1):
        parent = draw(st.one_of(st.none(), st.integers(1, i - 1))) \
            if i > 1 else None
        hm.add_module(i, parent, draw(SEVERITIES))
        hm.add_diag_resource(100 + i, i)
    ids = st.integers(1, n)
    for provider, dependent, sev in draw(st.lists(
            st.tuples(ids, ids, SEVERITIES), max_size=2 * n)):
        if provider != dependent:
            hm.add_dependency(provider, dependent, sev)
    for mid, sev, pers, cls in draw(st.lists(
            st.tuples(ids, FAULT_SEVERITIES, PERSISTENCES,
                      st.integers(0, 3)), max_size=n)):
        hm.add_fault(mid, sev, pers, cls)
    if draw(st.booleans()):
        # children before parents, the order a deserialized map may keep
        hm.modules = dict(reversed(hm.modules.items()))
    roots = draw(st.lists(ids, max_size=3))
    steps = draw(st.lists(st.one_of(
        st.tuples(st.just("fault"), ids, FAULT_SEVERITIES, PERSISTENCES,
                  st.integers(0, 3)),
        st.tuples(st.just("report"), ids, FAULT_SEVERITIES,
                  st.integers(0, 3), st.integers(0, 3))), max_size=12))
    return hm, roots, steps


@settings(max_examples=200, deadline=None)
@given(propagation_cases())
def test_rebuild_and_incremental_match_oracle(case):
    hm, roots, steps = case

    def rebuilt():
        rm = init_resource_map(hm, maintenance=roots)
        assert list(rm.entries) == list(hm.modules)
        return rm

    rm = rebuilt()
    assert rm_state(rm) == oracle_resource_map(hm, roots)
    for step in steps:
        if step[0] == "fault":
            _, mid, sev, pers, cls = step
            hm.add_fault(mid, sev, pers, cls)
            rm.update_single_fault(mid, sev, pers, ModuleStatus.OWN_FAULT)
        else:
            _, mid, sev, cls, t = step
            report_detection(hm, DetectionReport(100 + mid, sev, cls, t),
                             rm=rm)
        expected = oracle_resource_map(hm, roots)
        assert rm_state(rm) == expected
        assert rm_state(rebuilt()) == expected


# -- every stored severity, persistence and status is an enum member ---------

def level(enum):
    """A non-ZERO member of `enum`, drawn as the member or as its plain
    int."""
    return st.tuples(st.integers(1, 3), st.booleans()).map(
        lambda t: enum(t[0]) if t[1] else t[0])


@st.composite
def member_cases(draw):
    """A random map with maintenance roots (from propagation_cases) and
    steps that hand severities, persistences and statuses to the public
    entry points as members or as plain ints."""
    hm, roots, _steps = draw(propagation_cases())
    ids = st.integers(1, len(hm.modules))
    classes = st.integers(0, 3)
    steps = draw(st.lists(st.one_of(
        st.tuples(st.just("record"), ids, classes, level(Severity),
                  level(Persistence), st.integers(0, 3)),
        st.tuples(st.just("report"), ids, classes, level(Severity),
                  st.integers(0, 3)),
        st.tuples(st.just("fault"), ids, classes, level(Severity),
                  level(Persistence), st.sampled_from(
                      [ModuleStatus.OWN_FAULT, int(ModuleStatus.OWN_FAULT)]))),
        max_size=12))
    return hm, roots, steps


def assert_members(hm, rm):
    for f in hm.faults:
        assert type(f.severity) is Severity
        assert type(f.persistence) is Persistence
    for e in rm.entries.values():
        assert type(e.severity) is Severity
        assert type(e.persistence) is Persistence
        assert type(e.status) is ModuleStatus


@settings(max_examples=200, deadline=None)
@given(member_cases())
def test_stored_levels_are_enum_members(case):
    hm, roots, steps = case

    class Names:
        def name_for_id(self, mid):
            return f"M{mid}"

    rm = init_resource_map(hm, maintenance=roots)
    for step in steps:
        kind, mid, cls = step[:3]
        if kind == "record":
            _, _, _, sev, pers, t = step
            fault, _created = record_event(hm, mid, cls, sev, pers, 100 + mid,
                                           t, 0, DEFAULT_MERGE_WINDOW_US)
            rm.update_single_fault(mid, int(fault.severity),
                                   int(fault.persistence),
                                   int(ModuleStatus.OWN_FAULT))
        elif kind == "report":
            _, _, _, sev, t = step
            report_detection(hm, DetectionReport(100 + mid, sev, cls, t),
                             rm=rm)
        else:
            _, _, _, sev, pers, status = step
            hm.add_fault(mid, sev, pers, cls)
            rm.update_single_fault(mid, sev, pers, status)
        rebuilt = init_resource_map(hm, maintenance=roots)
        for built in (rm, rebuilt):
            assert_members(hm, built)
            render_table(built, Names())
            assert rm_state(built) == oracle_resource_map(hm, roots)
