import random

import pytest

from healthmap import (
    ClassifierConfig,
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
from healthmap.errors import (
    ClassificationRangeError,
    FieldRangeError,
    UnknownDetectorError,
    ZeroSeverityError,
)
from healthmap.faultmgr import parse_report_line
from healthmap.model import FLAG_MERGED

from conftest import FPU_C0_INSTRUMENT
from helpers import random_health_map, rm_state


def brute_force_persistence(event_log, config):
    """Independent reclassifier: replay the raw event log and classify by
    total occurrence count only."""
    return config.classify(len(event_log))


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
    config = ClassifierConfig()
    times = [0, 10_000_000, 20_000_000]
    for t in times:
        fault, _ = report_detection(
            table1_map,
            DetectionReport(FPU_C0_INSTRUMENT, Severity.LOW, 1, t),
            config)
    assert len(fault.detections) == 3
    assert fault.persistence == Persistence.INTERMITTENT
    assert fault.persistence == max(
        Persistence.TRANSIENT, brute_force_persistence(times, config))


def test_close_reports_merge_into_counter(table1_map):
    config = ClassifierConfig()
    fault, _ = report_detection(
        table1_map,
        DetectionReport(FPU_C0_INSTRUMENT, Severity.LOW, 1, 1000), config)
    fault2, created = report_detection(
        table1_map,
        DetectionReport(FPU_C0_INSTRUMENT, Severity.LOW, 1, 1100), config)
    assert fault2 is fault and not created
    assert len(fault.detections) == 1
    assert fault.detections[0].counter == 2
    assert fault.detections[0].flags & FLAG_MERGED


def test_ten_events_become_permanent(table1_map):
    config = ClassifierConfig()
    for i in range(10):
        fault, _ = report_detection(
            table1_map,
            DetectionReport(FPU_C0_INSTRUMENT, Severity.LOW, 1,
                            i * 10_000_000),
            config)
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


def test_parse_report_line_requires_timestamp():
    from healthmap.errors import ScenarioError
    with pytest.raises(ScenarioError):
        parse_report_line("detect 12 sev=HIGH class=1")
    report = parse_report_line("detect 12 sev=HIGH class=1",
                               default_timestamp=77)
    assert report.timestamp == 77
