import contextlib
import io
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from healthmap import (
    DetectionReport,
    HealthMap,
    ModuleStatus,
    Persistence,
    Severity,
    deserialize,
    init_resource_map,
    prune,
    report_detection,
    serialize,
)
from healthmap.cli import build_parser
from healthmap.codec import _Reader
from healthmap.errors import (
    ClassificationRangeError,
    FieldRangeError,
    HealthMapError,
    UnknownDetectorError,
    ZeroSeverityError,
)
from healthmap.faultmgr import (DEFAULT_MERGE_WINDOW_US, parse_report_line,
                                record_event)
from healthmap.model import FLAG_MERGED, U32_MAX

from conftest import FPU_C0_INSTRUMENT
from helpers import random_health_map, reference_prune, rm_state


def brute_force_persistence(event_log):
    """Independent reclassifier: replay the raw event log and classify by
    total occurrence count only (INTERMITTENT from 3, PERMANENT from 10)."""
    if len(event_log) >= 10:
        return Persistence.PERMANENT
    if len(event_log) >= 3:
        return Persistence.INTERMITTENT
    return Persistence.TRANSIENT


def test_first_report_creates_transient_fault_and_rm_row(table1_map,
                                                         table1_sidecar):
    rm = init_resource_map(table1_map)
    report = DetectionReport(FPU_C0_INSTRUMENT, Severity.HIGH, 1, 1000)
    fault, created = report_detection(table1_map, report, rm=rm)
    assert created
    assert fault.persistence == Persistence.TRANSIENT
    fpu = table1_sidecar.id_for_name("CPU.C0.FPU")
    assert rm_state(rm)[fpu] == (Severity.HIGH, Persistence.TRANSIENT,
                                 ModuleStatus.OWN_FAULT)


def test_three_spaced_reports_become_intermittent(table1_map):
    times = [0, 10_000_000, 20_000_000]
    for t in times:
        fault, _ = report_detection(
            table1_map,
            DetectionReport(FPU_C0_INSTRUMENT, Severity.LOW, 1, t))
    assert len(fault.detections) == 3
    assert fault.persistence == Persistence.INTERMITTENT
    assert fault.persistence == max(
        Persistence.TRANSIENT, brute_force_persistence(times))


def test_close_reports_merge_into_counter(table1_map):
    fault, _ = report_detection(
        table1_map,
        DetectionReport(FPU_C0_INSTRUMENT, Severity.LOW, 1, 1000))
    fault2, created = report_detection(
        table1_map,
        DetectionReport(FPU_C0_INSTRUMENT, Severity.LOW, 1, 1100))
    assert fault2 is fault and not created
    assert len(fault.detections) == 1
    assert fault.detections[0].counter == 2
    assert fault.detections[0].flags & FLAG_MERGED


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("beyond, merges", [(0, True), (1, False)])
def test_merge_window_edge(table1_map, sign, beyond, merges):
    # a report exactly one window from the latest detection merges, one
    # microsecond further starts a detection, on either side of it
    start = 2 * DEFAULT_MERGE_WINDOW_US
    fault, _ = report_detection(
        table1_map, DetectionReport(FPU_C0_INSTRUMENT, Severity.LOW, 1, start))
    report_detection(table1_map, DetectionReport(
        FPU_C0_INSTRUMENT, Severity.LOW, 1,
        start + sign * (DEFAULT_MERGE_WINDOW_US + beyond)))
    if merges:
        assert [d.counter for d in fault.detections] == [2]
        assert fault.detections[0].flags & FLAG_MERGED
    else:
        assert [d.counter for d in fault.detections] == [1, 1]
        assert not any(d.flags & FLAG_MERGED for d in fault.detections)


def test_ten_events_become_permanent(table1_map):
    for i in range(10):
        fault, _ = report_detection(
            table1_map,
            DetectionReport(FPU_C0_INSTRUMENT, Severity.LOW, 1,
                            i * 10_000_000))
    assert fault.persistence == Persistence.PERMANENT


def test_unknown_detector_rejected(table1_map):
    with pytest.raises(UnknownDetectorError):
        report_detection(table1_map,
                         DetectionReport(999, Severity.LOW, 1, 0))


def test_zero_severity_report_rejected():
    with pytest.raises(ZeroSeverityError):
        DetectionReport(1, Severity.ZERO, 1, 0)


@pytest.mark.parametrize("classification", [-1, 256])
def test_report_class_outside_u8_rejected(classification):
    with pytest.raises(ClassificationRangeError):
        DetectionReport(1, Severity.LOW, classification, 0)


@pytest.mark.parametrize("timestamp, payload, what", [
    (-1, 0, "timestamp"),
    (2**64, 0, "timestamp"),
    (0, -1, "payload"),
    (0, 2**32, "payload"),
])
def test_report_value_outside_its_field_rejected(timestamp, payload, what):
    with pytest.raises(FieldRangeError, match=f"detection {what}"):
        DetectionReport(1, Severity.LOW, 1, timestamp, payload)
    # the largest values that fit are accepted
    DetectionReport(1, Severity.LOW, 1, 2**64 - 1, 2**32 - 1)


@pytest.mark.parametrize("detector_id", [-1, 2**32])
def test_report_detector_outside_u32_rejected(detector_id):
    with pytest.raises(FieldRangeError,
                       match=f"^detector id {detector_id} outside 0[.][.]"):
        DetectionReport(detector_id, Severity.LOW, 1, 0)
    DetectionReport(2**32 - 1, Severity.LOW, 1, 0)


def test_severity_aggregates_by_max(table1_map):
    report_detection(table1_map,
                     DetectionReport(FPU_C0_INSTRUMENT, Severity.HIGH, 1, 0))
    fault, _ = report_detection(
        table1_map,
        DetectionReport(FPU_C0_INSTRUMENT, Severity.LOW, 1, 10_000_000))
    assert fault.severity == Severity.HIGH


def test_monotonic_persistence_and_severity(table1_map):
    rng = random.Random(7)
    last_sev, last_pers = Severity.ZERO, Persistence.ZERO
    for i in range(30):
        fault, _ = report_detection(
            table1_map,
            DetectionReport(FPU_C0_INSTRUMENT,
                            Severity(rng.randint(1, 3)), 1,
                            i * 5_000_000))
        assert fault.severity >= last_sev
        assert fault.persistence >= last_pers
        last_sev, last_pers = fault.severity, fault.persistence


def test_replay_determinism(table1_compiled):
    from healthmap import deserialize
    image, _ = table1_compiled
    reports = [DetectionReport(FPU_C0_INSTRUMENT, Severity.LOW, k % 3,
                               k * 400_000)
               for k in range(20)]
    maps = []
    for _ in range(2):
        hm = deserialize(image)
        for report in reports:
            report_detection(hm, report)
        maps.append(hm)
    assert maps[0].equivalent(maps[1])


# -- pruning --------------------------------------------------------------------

def make_fault_with_detections(counters, detector_ids=None):
    hm = HealthMap()
    hm.add_module(1)
    hm.add_diag_resource(10, 1)
    hm.add_diag_resource(11, 1)
    fault = hm.add_fault(1, Severity.LOW, Persistence.TRANSIENT, 0)
    for i, counter in enumerate(counters):
        det_id = (detector_ids or [10] * len(counters))[i]
        hm.add_detection(fault, det_id, timestamp=100 + i, counter=counter)
    return hm, fault


def test_prune_merges_same_detector_detections():
    hm, fault = make_fault_with_detections([1, 2])
    removed = prune(hm)
    assert removed == 1
    assert len(fault.detections) == 1
    det = fault.detections[0]
    assert det.counter == 3
    assert det.timestamp == 100
    assert det.flags & FLAG_MERGED


def test_prune_merges_identical_faults():
    hm = HealthMap()
    hm.add_module(1)
    hm.add_diag_resource(10, 1)
    hm.add_diag_resource(11, 1)
    f1 = hm.add_fault(1, Severity.LOW, Persistence.TRANSIENT, 0)
    hm.add_detection(f1, 10, 1)
    f2 = hm.add_fault(1, Severity.LOW, Persistence.TRANSIENT, 0)
    hm.add_detection(f2, 11, 2)
    removed = prune(hm)
    assert removed == 1
    assert len(hm.modules[1].faults) == 1
    assert len(hm.modules[1].faults[0].detections) == 2


def test_prune_no_duplicates_is_noop():
    hm, _fault = make_fault_with_detections([1, 1], detector_ids=[10, 11])
    before = hm.snapshot()
    assert prune(hm) == 0
    assert hm.snapshot() == before


def total_events(hm):
    return sum(d.counter for d in hm.detections)


def test_prune_conserves_event_count_and_rm():
    rng = random.Random(8)
    for _ in range(100):
        hm = random_health_map(rng)
        before_events = total_events(hm)
        before_rm = rm_state(init_resource_map(hm))
        prune(hm)
        assert total_events(hm) == before_events
        assert rm_state(init_resource_map(hm)) == before_rm
        assert hm.validate_structure() == []


@pytest.mark.parametrize("counters, kept", [
    ([U32_MAX, 1], [U32_MAX, 1]),
    ([U32_MAX - 1, 1, 1], [U32_MAX, 1]),
    # the keeper of a full sum is the next one: later ones merge into it
    ([U32_MAX - 3, 2, 2, 1, 1], [U32_MAX - 1, 4]),
])
def test_prune_merges_under_record_events_counter_ceiling(counters, kept):
    hm, fault = make_fault_with_detections(counters)
    reference, _fault = make_fault_with_detections(counters)
    rm_before = rm_state(init_resource_map(hm))
    assert prune(hm) == len(counters) - len(kept) == reference_prune(reference)
    assert [d.counter for d in fault.detections] == kept
    assert hm.snapshot() == reference.snapshot()
    assert total_events(hm) == sum(counters)
    assert rm_state(init_resource_map(hm)) == rm_before
    assert deserialize(serialize(hm)).equivalent(hm)


def map_with_duplicates(seed, copies, extra_detections):
    """A random map, plus copies of some faults' (severity, persistence,
    classification) on the same module and extra detections from detectors
    already in use, so that both merges of `prune` have work."""
    hm = random_health_map(random.Random(seed))
    detectors = list(hm.diag_resources)
    for pick in copies:
        if hm.faults:
            f = hm.faults[pick % len(hm.faults)]
            hm.add_fault(f.owner.id, f.severity, f.persistence,
                         f.classification)
    for pick, detector, timestamp, counter in extra_detections:
        if hm.faults:
            hm.add_detection(hm.faults[pick % len(hm.faults)],
                             detectors[detector % len(detectors)], timestamp,
                             counter=counter)
    return hm


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32),
       copies=st.lists(st.integers(0, 63), max_size=6),
       extra_detections=st.lists(
           st.tuples(st.integers(0, 63), st.integers(0, 3),
                     st.integers(0, 10**9), st.integers(1, 5)),
           max_size=24))
def test_prune_matches_list_removal_reference(seed, copies,
                                              extra_detections):
    hm = map_with_duplicates(seed, copies, extra_detections)
    reference = map_with_duplicates(seed, copies, extra_detections)
    assert prune(hm) == reference_prune(reference)
    assert hm.snapshot() == reference.snapshot()
    assert [[d.seq for d in f.detections] for f in hm.faults] == \
        [[d.seq for d in f.detections] for f in reference.faults]
    assert {key: f.seq for key, f in hm._fault_index.items()} == \
        {key: f.seq for key, f in reference._fault_index.items()}


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32),
       copies=st.lists(st.integers(0, 63), max_size=6),
       extra_detections=st.lists(
           st.tuples(st.integers(0, 63), st.integers(0, 3),
                     st.integers(0, 10**9), st.integers(1, 5)),
           max_size=24))
def test_prune_is_its_own_fixed_point_and_writes_links_forward(
        seed, copies, extra_detections):
    # one call merges everything a second would, and the pruned map's
    # image loads by the column proof alone, which needs forward links
    hm = map_with_duplicates(seed, copies, extra_detections)
    reference = map_with_duplicates(seed, copies, extra_detections)
    assert prune(hm) == reference_prune(reference)
    pruned = hm.snapshot()
    assert pruned == reference.snapshot()
    assert [[d.seq for d in f.detections] for f in hm.faults] == \
        [[d.seq for d in f.detections] for f in reference.faults]
    assert {key: f.seq for key, f in hm._fault_index.items()} == \
        {key: f.seq for key, f in reference._fault_index.items()}
    assert prune(hm) == 0
    assert hm.snapshot() == pruned
    walker = AssertionError("the detection-list walker ran")
    with mock.patch.object(_Reader, "_check_dynamic", side_effect=walker):
        loaded = deserialize(serialize(hm))
    assert loaded.snapshot() == pruned


def test_merge_conserves_event_count(table1_map):
    reports = [DetectionReport(FPU_C0_INSTRUMENT, Severity.LOW, 1, t)
               for t in (0, 100, 200, 5_000_000)]
    for report in reports:
        fault, _ = report_detection(table1_map, report)
    assert sum(d.counter for d in fault.detections) == len(reports)


def test_report_into_full_counter_starts_a_new_detection(table1_map):
    fault, _ = report_detection(
        table1_map, DetectionReport(FPU_C0_INSTRUMENT, Severity.LOW, 1, 0))
    fault.detections[0].counter = 2**32 - 1
    report_detection(table1_map,
                     DetectionReport(FPU_C0_INSTRUMENT, Severity.LOW, 1, 10))
    assert [d.counter for d in fault.detections] == [2**32 - 1, 1]
    reloaded = deserialize(serialize(table1_map))
    assert reloaded.equivalent(table1_map)


# -- report line parsing -----------------------------------------------------

def test_parse_report_line():
    report = parse_report_line(
        "detect 12 sev=HIGH class=1 t=1000 payload=0xdead")
    assert report == DetectionReport(12, Severity.HIGH, 1, 1000, 0xDEAD)


@pytest.mark.parametrize("payload, value", [
    ("dead", 0xDEAD), ("0XDEAD", 0xDEAD), ("0", 0)])
def test_parse_report_line_hex_payload(payload, value):
    report = parse_report_line(
        f"detect 12 sev=HIGH class=1 t=1 payload={payload}")
    assert report.payload == value


@pytest.mark.parametrize("payload", ["1x2", "x", "0x", "0x0x1"])
def test_parse_report_line_rejects_payload_not_hex(payload):
    from healthmap.errors import ScenarioError
    with pytest.raises(ScenarioError, match="^bad detection report line"):
        parse_report_line(f"detect 12 sev=HIGH class=1 t=1 payload={payload}")


def test_parse_report_line_requires_timestamp():
    from healthmap.errors import ScenarioError
    with pytest.raises(ScenarioError):
        parse_report_line("detect 12 sev=HIGH class=1")
    report = parse_report_line("detect 12 sev=HIGH class=1",
                               default_timestamp=77)
    assert report.timestamp == 77


# -- one reader per report field: flags and lines agree -----------------------

@pytest.mark.parametrize("line, expected", [
    ("detect 1_2 sev=HIGH class=+1 t=1_000 payload=1_f",
     DetectionReport(12, Severity.HIGH, 1, 1000, 0x1F)),
    ("detect \u0661\u0662 sev=HIGH class=1 t=1 payload=0X1F",
     DetectionReport(12, Severity.HIGH, 1, 1, 0x1F)),
])
def test_parse_report_line_reads_tokens_as_int_reads_them(line, expected):
    assert parse_report_line(line) == expected


@pytest.mark.parametrize("line", [
    "detect -1 sev=HIGH class=1 t=1",
    "detect 12 sev=HIGH class=-1 t=1",
    "detect 12 sev=HIGH class=1 t=-1",
    "detect 12 sev=HIGH class=1 t=1 payload=-1",
])
def test_parse_report_line_negative_value_fails_its_range_check(line):
    with pytest.raises(FieldRangeError, match="outside 0[.][.]"):
        parse_report_line(line)


def report_by_flags(fields: dict[str, str]):
    """The report `hm inject`'s parser reads from these flag values, as
    `cmd_inject` builds it, or "refused". Each value is joined to its flag
    by `=`: a value written apart that starts with `-`, such as `-0_0`, is
    taken by argparse for an option before any reader sees it."""
    argv = ["image.shm", "--sev", "HIGH",
            *(f"--{flag}={value}" for flag, value in fields.items())]
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            args = build_parser("inject").parse_args(argv)
        return DetectionReport(args.detector, Severity[args.sev],
                               args.clazz, args.t, args.payload)
    except SystemExit as exc:
        assert exc.code == 2
    except HealthMapError:
        pass
    return "refused"


def report_by_line(fields: dict[str, str]):
    """The report `parse_report_line` reads from a line holding these
    field values, or "refused"."""
    try:
        return parse_report_line(
            f"detect {fields['detector']} sev=HIGH class={fields['class']} "
            f"t={fields['t']} payload={fields['payload']}")
    except HealthMapError:
        return "refused"


@settings(max_examples=300, deadline=None)
@example(field="detector", token="1_2")
@example(field="payload", token="1_f")
@example(field="detector", token="--")
@given(field=st.sampled_from(["detector", "class", "t", "payload"]),
       token=st.text("0123456789abcdefxX_+-\u0663", max_size=8))
def test_flags_and_report_lines_read_fields_alike(field, token):
    # a token gives one report through `hm inject`'s parser and through a
    # report line, or both refuse it
    fields = {"detector": "12", "class": "1", "t": "1000", "payload": "0"}
    fields[field] = token
    assert report_by_flags(fields) == report_by_line(fields)


def one_fault_map():
    """Module 1 with diag resource 7 and fault (class 5) seen once by it."""
    hm = HealthMap()
    hm.add_module(1)
    hm.add_diag_resource(7, 1)
    record_event(hm, 1, 5, Severity.LOW, Persistence.TRANSIENT, 7, 0, 0)
    return hm


@pytest.mark.parametrize("create", [
    lambda hm: hm.add_fault_with_detection(1, Severity.LOW,
                                           Persistence.TRANSIENT, 0, 7,
                                           2**64),
    lambda hm: record_event(hm, 1, 6, Severity.LOW, Persistence.TRANSIENT, 7,
                            -1, 0),
    lambda hm: record_event(hm, 1, 6, Severity.LOW, Persistence.TRANSIENT, 7,
                            0, 2**32),
], ids=["add_fault_with_detection", "record_event timestamp",
        "record_event payload"])
def test_a_refused_first_detection_adds_no_fault(create):
    hm = one_fault_map()
    before = hm.snapshot()
    with pytest.raises(FieldRangeError):
        create(hm)
    assert hm.snapshot() == before
    assert len(hm.faults) == 1 and hm.find_fault(1, 6) is None
