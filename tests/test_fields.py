"""The table of record fields (`model.FIELDS`): every entry point that sets
a record field checks the value by the field's row, and both image writers
refuse a value that a direct edit puts on a loaded record with the error
that entry point gives."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from healthmap import (
    DetectionReport,
    ModuleStatus,
    Persistence,
    Severity,
    append_changes,
    deserialize,
    init_resource_map,
    report_detection,
    serialize,
)
from healthmap.errors import (
    FieldRangeError,
    HealthMapError,
    ZeroSeverityError,
)
from healthmap.faultmgr import record_event
from healthmap.model import (
    FIELDS,
    U32_MAX,
    Dependency,
    DiagResource,
    Fault,
    FaultDetection,
    HealthMap,
    Module,
)

from helpers import rm_state

# module 1000 holds module 1001, which holds diag resource 2000, depends on
# 1000 and has one fault (LOW, TRANSIENT, class 100) detected once; no id
# or level is near a value drawn below
BASE = HealthMap()
BASE.add_module(1000, None, Severity.LOW)
BASE.add_module(1001, 1000, Severity.MEDIUM)
BASE.add_diag_resource(2000, 1001, 1)
BASE.add_dependency(1000, 1001, Severity.LOW)
BASE.add_fault_with_detection(1001, Severity.LOW, Persistence.TRANSIENT, 100,
                              2000, 1000)
BASE_IMAGE = serialize(BASE)


def report(hm, last=False, **fields):
    """The fault a report of detector 2000 with these fields files, or
    with `last` its last detection."""
    values = {"severity": Severity.HIGH, "classification": 7,
              "timestamp": 5000, "payload": 0, **fields}
    fault = report_detection(hm, DetectionReport(2000, **values))[0]
    return fault.detections[-1] if last else fault


def event(hm, **levels):
    """The fault, class 100, after record_event raises it to `levels`."""
    values = {"severity": Severity.LOW, "persistence": Persistence.TRANSIENT,
              **levels}
    return record_event(hm, 1001, 100, values["severity"],
                        values["persistence"], 2000, 5000, 0)[0]


def created(hm, entry, name, value):
    """The fault, class 7 unless `name` is the classification, that `entry`
    creates with its first detection, field `name` set to `value`; the
    detection for a detection field. record_event finds no such fault, so
    it creates one."""
    v = {"classification": 7, "severity": Severity.LOW,
         "persistence": Persistence.TRANSIENT, "timestamp": 5000,
         "payload": 0, name: value}
    if entry == "add_fault_with_detection":
        fault = hm.add_fault_with_detection(
            1001, v["severity"], v["persistence"], v["classification"], 2000,
            v["timestamp"], v["payload"])
    else:
        fault = record_event(hm, 1001, v["classification"], v["severity"],
                             v["persistence"], 2000, v["timestamp"],
                             v["payload"])[0]
    return fault.detections[-1] if name in FIELDS[FaultDetection] else fault


def rm_entry(hm, **levels):
    """The entry of module 1001 after update_single_fault folds `levels`."""
    rm = init_resource_map(hm)
    values = {"severity": Severity.LOW, "persistence": Persistence.TRANSIENT,
              **levels}
    rm.update_single_fault(1001, values["severity"], values["persistence"],
                           ModuleStatus.OWN_FAULT)
    return rm.entry(1001)


def new_detection(hm, **fields):
    values = {"timestamp": 5000, **fields}
    return hm.add_detection(hm.faults[0], 2000, **values)


# (record type, field) -> {entry point: set the field to v, return the
# object that stores it}. record_event on an existing fault and
# update_single_fault take int levels only here: a level below the stored
# one is compared, never checked, for speed (record_event's refusal of a
# level it cannot compare is tested below).
ENTRY_POINTS = {
    (Module, "id"): {"add_module": lambda hm, v: hm.add_module(v)},
    (Module, "criticality"): {
        "add_module": lambda hm, v: hm.add_module(3000, 1000, v)},
    (DiagResource, "id"): {
        "add_diag_resource": lambda hm, v: hm.add_diag_resource(v, 1001)},
    (DiagResource, "kind"): {
        "add_diag_resource": lambda hm, v: hm.add_diag_resource(3000, 1001,
                                                                v)},
    (Dependency, "severity"): {
        "add_dependency": lambda hm, v: hm.add_dependency(1001, 1000, v)},
    (Fault, "severity"): {
        "add_fault": lambda hm, v: hm.add_fault(1001, v,
                                                Persistence.TRANSIENT, 7),
        "DetectionReport": lambda hm, v: report(hm, severity=v),
        "record_event": lambda hm, v: event(hm, severity=v),
        "update_single_fault": lambda hm, v: rm_entry(hm, severity=v)},
    (Fault, "persistence"): {
        "add_fault": lambda hm, v: hm.add_fault(1001, Severity.LOW, v, 7),
        "record_event": lambda hm, v: event(hm, persistence=v),
        "update_single_fault": lambda hm, v: rm_entry(hm, persistence=v)},
    (Fault, "classification"): {
        "add_fault": lambda hm, v: hm.add_fault(1001, Severity.LOW,
                                                Persistence.TRANSIENT, v),
        "DetectionReport": lambda hm, v: report(hm, classification=v)},
    (FaultDetection, "timestamp"): {
        "add_detection": lambda hm, v: new_detection(hm, timestamp=v),
        "DetectionReport": lambda hm, v: report(hm, timestamp=v, last=True)},
    (FaultDetection, "counter"): {
        "add_detection": lambda hm, v: new_detection(hm, counter=v)},
    (FaultDetection, "payload"): {
        "add_detection": lambda hm, v: new_detection(hm, payload=v),
        "DetectionReport": lambda hm, v: report(hm, payload=v, last=True)},
    (FaultDetection, "flags"): {
        "add_detection": lambda hm, v: new_detection(hm, flags=v)},
}
# the two that create a fault with its first detection, checking every
# field of both before they add either
CREATES = ("add_fault_with_detection", "record_event (create)")
for _entry in CREATES:
    for _kind, _name in ((Fault, "severity"), (Fault, "persistence"),
                         (Fault, "classification"),
                         (FaultDetection, "timestamp"),
                         (FaultDetection, "payload")):
        ENTRY_POINTS[_kind, _name][_entry] = (
            lambda hm, v, e=_entry, n=_name: created(hm, e, n, v))
# the two that fold a level into a stored one, which only rises
INT_LEVELS_ONLY = {"record_event", "update_single_fault"}
# entry points that only add faults and detections, which an append writes
APPENDABLE = {"add_fault", "DetectionReport", "record_event", "add_detection",
              *CREATES}


def top(row) -> int:
    """The largest value a row accepts."""
    return len(row[0]) - 1 if isinstance(row[0], tuple) else row[0]


def row_error(row, value) -> tuple[type, str]:
    """The error class and message of a row that refuses `value`."""
    label, error = row[1], row[2] if len(row) > 2 else FieldRangeError
    if not isinstance(value, int):
        return error, f"{label} {value!r} is not an integer"
    return error, f"{label} {value} outside 0..{top(row)}"


def values(row, ints_only: bool):
    near = st.one_of(st.integers(-2, 2), st.integers(top(row) - 2,
                                                     top(row) + 2))
    if ints_only:
        return near
    return st.one_of(near, near.map(float), st.floats(), st.text(max_size=3),
                     st.none(), st.booleans())


def expected_outcome(kind, name, entry, value):
    """None when the entry point must store `value` (record_event and
    update_single_fault: fold it), else (error class, message or None, is
    it the row's error)."""
    row = FIELDS[kind][name]
    if isinstance(value, int) and 0 <= value <= top(row):
        zero_rule = name == "counter" or (
            kind is Fault and name in ("severity", "persistence")
            and entry != "update_single_fault")
        if not zero_rule or value or entry == "record_event":
            return None
        if name != "counter":
            return ZeroSeverityError, None, False
    elif entry == "record_event" and value < 0:
        return None     # below the stored level: compared, never checked
    if name == "counter" and isinstance(value, int):
        return (FieldRangeError,
                f"detection counter {value} outside 1..{U32_MAX}", False)
    return (*row_error(row, value), True)


def loaded_record(hm, kind):
    """The record of type `kind` in a map loaded from BASE_IMAGE."""
    return {Module: hm.modules[1001], DiagResource: hm.diag_resources[2000],
            Dependency: hm.dependencies[0], Fault: hm.faults[0],
            FaultDetection: hm.detections[0]}[kind]


def offsets(hm):
    return [rec.shm_offset for rec in (*hm.modules.values(),
                                       *hm.diag_resources.values(),
                                       *hm.dependencies, *hm.faults,
                                       *hm.detections)]


CASES = [(kind, name, entry) for (kind, name), entries in ENTRY_POINTS.items()
         for entry in entries]


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=st.sampled_from(CASES), data=st.data())
def test_every_entry_point_checks_a_field_by_its_row(case, data):
    kind, name, entry = case
    row = FIELDS[kind][name]
    value = data.draw(values(row, entry in INT_LEVELS_ONLY), label="value")
    hm = deserialize(BASE_IMAGE)
    level_before = getattr(hm.faults[0], name, None)
    before = hm.snapshot()
    rm_before = rm_state(init_resource_map(hm))
    expected = expected_outcome(kind, name, entry, value)
    try:
        holder = ENTRY_POINTS[kind, name][entry](hm, value)
    except HealthMapError as exc:
        assert expected is not None, f"{entry} refused {value!r}: {exc}"
        error, message, by_row = expected
        assert type(exc) is error
        assert message is None or str(exc) == message
        assert hm.snapshot() == before
        assert rm_state(init_resource_map(hm)) == rm_before
        if by_row:
            check_direct_edit(kind, name, value, exc)
        return
    assert expected is None, f"{entry} stored {value!r}"
    stored = getattr(holder, name)
    if entry in INT_LEVELS_ONLY:    # the stored level rises to the value
        assert stored is (level_before if value < 0
                          else max(row[0][value], level_before))
    elif isinstance(row[0], tuple):     # a level stores its member
        assert stored is row[0][value]
    else:
        assert stored is value
    if entry == "update_single_fault":
        return      # the resource map is not written to an image
    if entry in APPENDABLE:
        assert deserialize(append_changes(BASE_IMAGE, hm)).equivalent(hm)
    assert deserialize(serialize(hm)).equivalent(hm)


def check_direct_edit(kind, name, value, refused: HealthMapError):
    """Both writers refuse `value` set directly on a loaded record with the
    entry point's error, and move no offset. An id is a key of the map, so
    editing it is a structural change, and an append writes back no diag
    resource or dependency."""
    if name == "id":
        return
    hm = deserialize(BASE_IMAGE)
    setattr(loaded_record(hm, kind), name, value)
    before = offsets(hm)
    writers = [lambda: serialize(hm)]
    if kind in (Module, Fault, FaultDetection):
        writers.append(lambda: append_changes(BASE_IMAGE, hm))
    for write in writers:
        try:
            write()
        except HealthMapError as exc:
            assert type(exc) is type(refused)
            assert str(exc) == str(refused)
        else:
            raise AssertionError(f"a writer wrote {kind.__name__}.{name} "
                                 f"{value!r}")
        assert offsets(hm) == before


@pytest.mark.parametrize("name", ["severity", "persistence"])
@pytest.mark.parametrize("value", ["x", None])
def test_record_event_refuses_a_level_it_cannot_compare(name, value):
    # the existing fault's stored level cannot be ordered against `value`,
    # so the row names it, as add_fault's check does
    hm = deserialize(BASE_IMAGE)
    before = hm.snapshot()
    with pytest.raises(FieldRangeError) as info:
        event(hm, **{name: value})
    assert (type(info.value), str(info.value)) == \
        row_error(FIELDS[Fault][name], value)
    assert hm.snapshot() == before
