import gc
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from healthmap import (
    DetectionReport,
    HealthMap,
    ModuleStatus,
    Persistence,
    ResourceMap,
    RmEntry,
    Severity,
    TaskRequirement,
    compute_affinity,
    init_resource_map,
    render_table,
    report_detection,
)
from healthmap import resourcemap
from healthmap.compiler import Sidecar
from healthmap.errors import (FieldRangeError, MalformedMessageError,
                              MissingSymbolError, UnknownModuleError)
from healthmap.faultmgr import record_event
from healthmap.resourcemap import RM_ENTRY, RM_ENTRY_SIZE, decode_entries

from conftest import CPU_C3, FPU_C0_INSTRUMENT
from helpers import (
    oracle_resource_map,
    random_health_map,
    reference_affinity,
    reference_decode_entries,
    reference_encode,
    reference_render_table,
    rm_state,
)

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


def test_entry_of_unknown_module(table1_map):
    rm = init_resource_map(table1_map)
    with pytest.raises(UnknownModuleError, match="^module 999 has no entry$"):
        rm.entry(999)


def test_update_unknown_module(table1_map):
    rm = init_resource_map(table1_map)
    with pytest.raises(UnknownModuleError):
        rm.update_single_fault(777, Severity.LOW, Persistence.TRANSIENT,
                               ModuleStatus.OWN_FAULT)


@pytest.mark.parametrize("status, error", [
    (4, "module status 4 outside 0..3"),
    (-1, "module status -1 outside 0..3"),
    ("1", "module status '1' is not an integer"),
    (1.0, "module status 1.0 is not an integer"),
])
def test_update_refuses_a_status_outside_its_enum(table1_map, status, error):
    # the status is no record field, but is checked as a level is: by the
    # byte -> member table
    rm = init_resource_map(table1_map)
    before = rm_state(rm)
    with pytest.raises(FieldRangeError, match=f"^{re.escape(error)}$"):
        rm.update_single_fault(12, Severity.LOW, Persistence.TRANSIENT,
                               status)
    assert rm_state(rm) == before
    rm.update_single_fault(12, Severity.LOW, Persistence.TRANSIENT, 1)
    assert rm.entry(12).status is ModuleStatus.OWN_FAULT


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
    rm = init_resource_map(table1_map, maintenance=[CPU_C3])
    assert rm.entry(CPU_C3).status == ModuleStatus.MAINTENANCE
    fpu_c3 = table1_sidecar.id_for_name("CPU.C3.FPU")
    assert rm.entry(fpu_c3).status == ModuleStatus.MAINTENANCE
    assert rm.entry(1).status == ModuleStatus.AVAILABLE


@pytest.mark.parametrize("roots", [[1, 2], [2, 1], [2]])
def test_nested_maintenance_roots_match_the_oracle(roots):
    # a map under maintenance at 1 and at its child 2 that lets go of 1 is
    # the rebuild with root 2: modules 2 and 3 stay MAINTENANCE
    hm = HealthMap()
    hm.add_module(1)
    hm.add_module(2, 1, Severity.HIGH)
    hm.add_module(3, 2, Severity.HIGH)
    hm.add_fault(2, Severity.LOW, Persistence.TRANSIENT, 1)
    hm.add_fault(3, Severity.HIGH, Persistence.PERMANENT, 1)
    rm = init_resource_map(hm, maintenance=roots)
    assert rm_state(rm) == oracle_resource_map(hm, roots)
    assert {rm.entry(2).status, rm.entry(3).status} == {
        ModuleStatus.MAINTENANCE}
    assert rm.entry(1).status is (ModuleStatus.MAINTENANCE if 1 in roots
                                  else ModuleStatus.PROPAGATED_FAULT)


def test_entry_encoding_is_seven_bytes(table1_map):
    rm = init_resource_map(table1_map)
    encoded = rm.encode()
    assert len(encoded) == RM_ENTRY_SIZE * len(table1_map.modules)
    first = decode_entries(encoded[:RM_ENTRY_SIZE])[0]
    assert first.module_id == 1


@pytest.mark.parametrize("length", [1, 5, 6, 8, 13, 15])
def test_decode_entries_refuses_a_partial_entry(table1_map, length):
    encoded = (init_resource_map(table1_map).encode() * 2)[:length]
    with pytest.raises(MalformedMessageError,
                       match=f"^entry table of {length} bytes, not a "
                             f"multiple of 7$"):
        decode_entries(encoded)
    assert (outcome(decode_entries, encoded)
            == outcome(reference_decode_entries, encoded))


def test_encode_matches_entry_by_entry_encoding():
    rng = random.Random(12)
    for _ in range(50):
        hm = random_health_map(rng)
        rm = init_resource_map(hm)
        assert rm.encode() == b"".join(
            RM_ENTRY.pack(e.module_id, e.severity, e.persistence, e.status)
            for e in map(rm.entries.get, hm.modules))


def test_init_matches_oracle_on_random_maps():
    rng = random.Random(9)
    for _ in range(200):
        hm = random_health_map(rng)
        assert rm_state(init_resource_map(hm)) == oracle_resource_map(hm)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.data())
def test_init_matches_oracle_with_zero_severity_faults(seed, data):
    hm = random_health_map(random.Random(seed))
    # a direct edit can make a fault of severity ZERO (add_fault and every
    # load refuse one); it is no fault, but its persistence still counts
    for fault in hm.faults:
        if data.draw(st.booleans()):
            fault.severity = Severity.ZERO
    roots = data.draw(st.lists(st.sampled_from(list(hm.modules)),
                               max_size=2))
    assert (rm_state(init_resource_map(hm, roots))
            == oracle_resource_map(hm, roots))


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
                                           t, 0)
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


# -- the entry table -----------------------------------------------------------

def dotted(hm, mid):
    """A module's name by its parent chain: "M1.M4" for module 4 under 1."""
    module = hm.modules[mid]
    own = f"M{mid}"
    return own if module.parent is None else \
        f"{dotted(hm, module.parent.id)}.{own}"


@st.composite
def table_cases(draw):
    """propagation_cases with a sidecar naming each module by its parent
    chain, OS core ids for some modules, tasks whose required sub-modules
    are children of some core, and one write of all three levels of an
    entry."""
    hm, roots, steps = draw(propagation_cases())
    ids = list(hm.modules)
    cores = draw(st.lists(st.sampled_from(ids), min_size=1, unique=True))
    core_ids = draw(st.lists(st.integers(0, 15), min_size=len(cores),
                             max_size=len(cores), unique=True))
    core_of = dict(zip(cores, core_ids))
    sidecar = Sidecar()
    for mid in ids:
        sidecar.add(mid, dotted(hm, mid), core_of.get(mid))
    suffixes = sorted({f"M{m.id}" for m in hm.modules.values()
                       if m.parent is not None and m.parent.id in core_of})
    tasks = [TaskRequirement(f"t{i}", needs, sev, pers)
             for i, (needs, sev, pers) in enumerate(draw(st.lists(
                 st.tuples(st.lists(st.sampled_from(suffixes), max_size=2)
                           if suffixes else st.just([]),
                           SEVERITIES, st.sampled_from(list(Persistence))),
                 max_size=3)))]
    write = draw(st.tuples(st.sampled_from(ids), SEVERITIES,
                           st.sampled_from(list(Persistence)),
                           st.sampled_from(list(ModuleStatus))))
    return hm, roots, steps, sidecar, tasks, write


def outcome(call, *args):
    try:
        return call(*args)
    except Exception as exc:  # compared with the reference's, whatever it is
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(table_cases(), st.data())
def test_entry_table_matches_the_oracle(case, data):
    hm, roots, steps, sidecar, tasks, write = case

    def check(rm, rows):
        encoded = rm.encode()
        assert encoded == reference_encode(rows)
        assert render_table(rm, sidecar) == reference_render_table(rows,
                                                                   sidecar)
        assert [(m.task_name, m.mask, m.width) for m in compute_affinity(
            rm, sidecar, tasks)] == reference_affinity(rows, sidecar, tasks)
        assert decode_entries(encoded) == reference_decode_entries(encoded)
        # one byte rewritten, maybe to a value outside its field's enum
        body = bytearray(encoded)
        at = data.draw(st.integers(0, len(body) - 1), label="at")
        body[at] = data.draw(st.integers(0, 255), label="byte")
        assert (outcome(decode_entries, bytes(body))
                == outcome(reference_decode_entries, bytes(body)))

    rm = init_resource_map(hm, maintenance=roots)
    check(rm, oracle_resource_map(hm, roots))
    for step in steps:
        if step[0] == "fault":
            _, mid, sev, pers, cls = step
            hm.add_fault(mid, sev, pers, cls)
            rm.update_single_fault(mid, sev, pers, ModuleStatus.OWN_FAULT)
        else:
            _, mid, sev, cls, t = step
            report_detection(hm, DetectionReport(100 + mid, sev, cls, t),
                             rm=rm)
    rows = oracle_resource_map(hm, roots)
    check(rm, rows)
    # a write through a view changes what encode and affinity read
    mid, sev, pers, status = write
    entry = rm.entries[mid]
    entry.severity, entry.persistence, entry.status = sev, pers, status
    rows[mid] = (sev, pers, status)
    check(rm, rows)
    assert rm.entry(mid) == RmEntry(mid, sev, pers, status)


@pytest.mark.parametrize("name, label, too_high", [
    ("severity", "fault severity", 7),
    ("persistence", "fault persistence", 9),
    ("status", "module status", 4),
])
def test_entry_setter_checks_its_field(table1_map, name, label, too_high):
    # a level is checked by its row as update_single_fault checks it: the
    # row's FieldRangeError, never bytearray's ValueError or TypeError, and
    # nothing stored that would read back as IndexError
    rm = init_resource_map(table1_map)
    rm.update_single_fault(12, Severity.LOW, Persistence.TRANSIENT,
                           ModuleStatus.OWN_FAULT)
    before = rm.encode()
    for value, error in [
            (too_high, f"{label} {too_high} outside 0..3"),
            (256, f"{label} 256 outside 0..3"),
            (-1, f"{label} -1 outside 0..3"),
            ("1", f"{label} '1' is not an integer"),
            (1.0, f"{label} 1.0 is not an integer"),
            (None, f"{label} None is not an integer")]:
        with pytest.raises(FieldRangeError) as refused:
            setattr(rm.entries[12], name, value)
        assert type(refused.value) is FieldRangeError
        assert str(refused.value) == error
        assert rm.encode() == before
        with pytest.raises(FieldRangeError, match=f"^{re.escape(error)}$"):
            RmEntry(12, **{name: value})
    entry = rm.entry(12)
    setattr(entry, name, 2)
    assert getattr(entry, name) is getattr(rm.entry(12), name)
    assert int(getattr(rm.entry(12), name)) == 2
    assert type(getattr(rm.entry(12), name)) is {
        "severity": Severity, "persistence": Persistence,
        "status": ModuleStatus}[name]
    assert rm.encode() != before


def test_the_table_paths_make_no_entry_object(table1_map, table1_sidecar,
                                              monkeypatch):
    # a rebuild, an update, encode, render and affinity read and write the
    # table's bytes; only entry() and entries make per-entry views
    def refuse(*_args):
        raise AssertionError("an entry object was made")

    monkeypatch.setattr(resourcemap, "_view", refuse)
    monkeypatch.setattr(resourcemap.RmEntry, "__init__", refuse)
    hm = table1_with_fault(table1_map)
    rm = init_resource_map(hm, maintenance=[CPU_C3])
    rm.update_single_fault(12, Severity.MEDIUM, Persistence.PERMANENT,
                           ModuleStatus.OWN_FAULT)
    assert len(rm.encode()) == RM_ENTRY_SIZE * len(hm.modules)
    render_table(rm, table1_sidecar)
    compute_affinity(rm, table1_sidecar, [TaskRequirement("t", ["FPU"])])


def test_a_dropped_resource_map_leaves_no_memory_behind():
    # a map of 20 000 modules: the table is 140 KB, and nothing built for
    # it, such as a packing format cached in `struct`, may outlive it
    hm = HealthMap()
    for mid in range(1, 20_001):
        hm.add_module(mid)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rm = ResourceMap(hm)
        assert rm.entry(20_000).module_id == 20_000
        del rm
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 64 * 1024
