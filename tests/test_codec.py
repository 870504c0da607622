import functools
import hashlib
import random
import struct
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from healthmap import (
    ClassifierConfig,
    DetectionReport,
    HealthMap,
    ModuleStatus,
    Persistence,
    Severity,
    Sidecar,
    append_changes,
    compile_xml,
    compute_affinity,
    crc32,
    deserialize,
    init_resource_map,
    parse_task_file,
    prune,
    report_detection,
    serialize,
    synthesize_map,
    validate_image,
)
from healthmap.codec import (DEP_SIZE, DET_SIZE, DIAG_SIZE, FAULT_SIZE,
                             HEADER_SIZE, MODULE_SIZE, _load)
from healthmap.errors import (
    BadLinkError,
    BadMagicError,
    BodyCrcMismatchError,
    HeaderCrcMismatchError,
    LengthMismatchError,
    LinkCycleError,
    OffsetMisalignedError,
    OffsetOutOfBoundsError,
    AppendError,
    RecordCountError,
    ShmError,
    StructureInvalidError,
)
from healthmap.model import U32_MAX

from conftest import DATA_DIR
from helpers import (
    crc32_reference,
    random_health_map,
    reference_append,
    reference_deserialize,
    rm_state,
)

DEMO_DATA = Path(__file__).parent.parent / "demo" / "data"


def small_map():
    hm = HealthMap()
    hm.add_module(1)
    hm.add_module(2, 1, Severity.LOW)
    hm.add_diag_resource(10, 2, kind=1)
    hm.add_fault_with_detection(2, Severity.HIGH, Persistence.TRANSIENT,
                                1, 10, 1000, payload=0xDEAD)
    return hm


# -- crc -------------------------------------------------------------------

def test_crc32_empty_is_zero():
    assert crc32(b"") == 0


def test_crc32_standard_check_value():
    assert crc32(b"123456789") == 0xCBF43926
    assert crc32_reference(b"123456789") == 0xCBF43926


def test_crc32_matches_reference_implementation():
    rng = random.Random(3)
    for _ in range(50):
        data = rng.randbytes(rng.randint(0, 200))
        assert crc32(data) == crc32_reference(data)


def test_crc32_detects_random_bit_flips():
    rng = random.Random(4)
    misses = 0
    for _ in range(2000):
        data = bytearray(rng.randbytes(rng.randint(1, 64)))
        original = crc32(bytes(data))
        pos = rng.randrange(len(data))
        data[pos] ^= 1 << rng.randrange(8)
        if crc32(bytes(data)) == original:
            misses += 1
    assert misses == 0


# -- serialize ----------------------------------------------------------------

def test_serialize_empty_map_is_header_only():
    image = serialize(HealthMap())
    assert len(image) == HEADER_SIZE == 32


def test_serialize_single_module_length():
    hm = HealthMap()
    hm.add_module(1)
    assert len(serialize(hm)) == HEADER_SIZE + MODULE_SIZE == 57


def test_serialize_eight_core_estimator_map():
    assert len(serialize(synthesize_map(8))) == 82418


def test_serialize_rejects_invalid_structure():
    hm = HealthMap()
    module = hm.add_module(1)
    module.parent = module
    with pytest.raises(StructureInvalidError):
        serialize(hm)


# -- deserialize -----------------------------------------------------------------

def test_round_trip_identity():
    hm = small_map()
    image = serialize(hm)
    again = deserialize(image)
    assert hm.equivalent(again)
    assert serialize(again) == image


def test_corrupted_body_byte_detected():
    image = bytearray(serialize(small_map()))
    image[40] ^= 0xFF
    with pytest.raises(BodyCrcMismatchError):
        deserialize(bytes(image))


def test_corrupted_header_byte_detected():
    image = bytearray(serialize(small_map()))
    image[6] ^= 0x01  # totalLength field
    with pytest.raises((HeaderCrcMismatchError, LengthMismatchError)):
        deserialize(bytes(image))


def test_truncated_image_detected():
    image = serialize(small_map())
    with pytest.raises(LengthMismatchError):
        deserialize(image[:-4])


def test_bad_magic_detected():
    image = bytearray(serialize(small_map()))
    image[:4] = b"NOPE"
    with pytest.raises(BadMagicError):
        deserialize(bytes(image))


def test_relocatability_same_bytes_any_location(tmp_path):
    image = serialize(small_map())
    path = tmp_path / "copy.shm"
    path.write_bytes(image)
    from_file = path.read_bytes()
    assert from_file == image
    assert deserialize(from_file).equivalent(deserialize(image))


def test_randomized_round_trip_property():
    rng = random.Random(5)
    for _ in range(200):
        hm = random_health_map(rng)
        image = serialize(hm)
        again = deserialize(image)
        assert hm.equivalent(again)
        assert serialize(again) == image


def test_fuzz_deserialize_never_escapes_shm_errors():
    rng = random.Random(6)
    base = serialize(small_map())
    for _ in range(500):
        if rng.random() < 0.5:
            data = rng.randbytes(rng.randint(0, 120))
        else:
            data = bytearray(base)
            for _ in range(rng.randint(1, 6)):
                data[rng.randrange(len(data))] = rng.randrange(256)
            data = bytes(data)
        try:
            deserialize(data)
        except ShmError:
            pass


# -- dynamic-region overlap -------------------------------------------------
# Each case edits link words of a valid image and re-stamps both CRCs, so the
# link checks, not the checksums, must reject it.

def restamp(image: bytearray) -> bytes:
    struct.pack_into("<I", image, 24, crc32(bytes(image[HEADER_SIZE:])))
    struct.pack_into("<I", image, 28, crc32(bytes(image[:28])))
    return bytes(image)


def put_u32(image: bytearray, offset: int, value: int) -> None:
    struct.pack_into("<I", image, offset, value)


def loaded(hm: HealthMap) -> tuple[bytearray, HealthMap]:
    """The image of `hm` and its reloaded map, whose records know offsets."""
    image = serialize(hm)
    return bytearray(image), deserialize(image)


def two_fault_map(detections_per_fault: int = 1) -> HealthMap:
    hm = HealthMap()
    hm.add_module(1)
    hm.add_diag_resource(10, 1)
    for classification in (1, 2):
        fault = hm.add_fault(1, Severity.LOW, Persistence.TRANSIENT,
                             classification)
        for t in range(detections_per_fault):
            hm.add_detection(fault, 10, t)
    return hm


def test_detection_inside_fault_record_is_overlap():
    image, hm = loaded(two_fault_map(detections_per_fault=2))
    fault = hm.faults[0].shm_offset
    first_det = hm.detections[0].shm_offset
    assert first_det == fault + 2 * FAULT_SIZE
    # Unlink the second fault and point the first fault's detection list
    # at fault+8. A detection there reads its next link from the fault's
    # severity..reserved bytes (zeroed: end of list) and its detector link
    # from the now unreached second fault's next link.
    inside = fault + 8
    put_u32(image, fault, 0)
    put_u32(image, fault + 4, inside)
    put_u32(image, fault + 8, 0)
    put_u32(image, fault + FAULT_SIZE, hm.diag_resources[10].shm_offset)
    with pytest.raises(BadLinkError, match="overlaps"):
        deserialize(restamp(image))


def test_detection_linked_from_two_faults_is_reuse():
    image, hm = loaded(two_fault_map())
    first, second = hm.faults
    put_u32(image, second.shm_offset + 4, first.detections[0].shm_offset)
    with pytest.raises(BadLinkError, match="reuses"):
        deserialize(restamp(image))


def test_fault_and_detection_at_same_offset_is_reuse():
    image, hm = loaded(two_fault_map())
    first, _second = hm.faults
    put_u32(image, first.shm_offset, first.detections[0].shm_offset)
    with pytest.raises(BadLinkError, match="reuses"):
        deserialize(restamp(image))


def enum_map() -> HealthMap:
    hm = HealthMap()
    hm.add_module(1)
    hm.add_module(2, 1, Severity.LOW)
    hm.add_diag_resource(10, 2)
    hm.add_dependency(1, 2, Severity.MEDIUM)
    hm.add_fault_with_detection(2, Severity.HIGH, Persistence.TRANSIENT, 1,
                                10, 5)
    return hm


@pytest.mark.parametrize("value", [4, 255])
@pytest.mark.parametrize("record, field, what", [
    ("module", 20, "severity"),        # criticality
    ("dependency", 8, "severity"),
    ("fault", 8, "severity"),
    ("fault", 9, "persistence"),
])
def test_enum_byte_out_of_range_rejected(record, field, what, value):
    image, hm = loaded(enum_map())
    target = {"module": hm.modules[2], "dependency": hm.dependencies[0],
              "fault": hm.faults[0]}[record]
    image[target.shm_offset + field] = value
    with pytest.raises(BadLinkError, match=f"^invalid {what} value {value}$"):
        deserialize(restamp(image))


# (link word to rewrite, value to write there, expected error, message).
# Links are named by record and byte offset in it; values by record or a
# number. Offsets below: modules at 32 and 57, diag resource 10 at 82,
# dependency at 95, the fault at 104 and its detection at 116.
LINK_CASES = {
    "module cycle": (("module2", 21), "module1", LinkCycleError,
                     "module list revisits offset 32"),
    "module out of bounds": (("module1", 21), 9999, OffsetOutOfBoundsError,
                             r"module offset 9999 outside section \[32, 82\)"),
    "module misaligned": (("module1", 21), 33, OffsetMisalignedError,
                          "module offset 33 not on a 25-byte record"),
    "module count": (("module1", 21), 0, RecordCountError,
                     "module list has 1 records, header says 2"),
    "parent misaligned": (("module2", 4), 40, OffsetMisalignedError,
                          "module offset 40 not on a 25-byte"),
    "diag cycle": (("diag", 8), "diag", LinkCycleError,
                   "diag resource list revisits offset 82"),
    "diag outside section": (("module2", 8), "dep", OffsetOutOfBoundsError,
                             "diag resource offset 95 outside section"),
    "diag owner": (("diag", 4), "module1", BadLinkError,
                   "diag resource at 82 owner link mismatch"),
    "dependent out of bounds": (("dep", 0), 0, OffsetOutOfBoundsError,
                                "module offset 0 outside section"),
    "self-dependency": (("dep", 0), "module1", BadLinkError,
                        "self-dependency at offset 95"),
    "fault cycle": (("fault", 0), "fault", LinkCycleError,
                    "fault list revisits offset 104"),
    "fault outside dynamic region": (("module2", 16), "dep",
                                     OffsetOutOfBoundsError,
                                     "fault offset 95 outside dynamic region"),
    "detection cycle": (("det", 0), "det", LinkCycleError,
                        "detection list revisits offset 116"),
    "detection past the end": (("det", 0), 130, OffsetOutOfBoundsError,
                               "detection offset 130 outside dynamic region"),
    "non-detector": (("det", 4), "module1", BadLinkError,
                     "detection at 116 references non-detector offset 32"),
    "fault count": (("module2", 16), 0, RecordCountError,
                    "walked 0 faults, header says 1"),
}


@pytest.mark.parametrize("case", sorted(LINK_CASES))
def test_rewritten_link_raises_its_error(case):
    (record, word), value, error, message = LINK_CASES[case]
    image, hm = loaded(enum_map())
    offsets = {"module1": hm.modules[1].shm_offset,
               "module2": hm.modules[2].shm_offset,
               "diag": hm.diag_resources[10].shm_offset,
               "dep": hm.dependencies[0].shm_offset,
               "fault": hm.faults[0].shm_offset,
               "det": hm.detections[0].shm_offset}
    assert list(offsets.values()) == [32, 57, 82, 95, 104, 116]
    put_u32(image, offsets[record] + word, offsets.get(value, value))
    with pytest.raises(error, match=f"^{message}"):
        deserialize(restamp(image))


def test_fault_with_both_enum_bytes_bad_names_persistence():
    image, hm = loaded(enum_map())
    fault = hm.faults[0].shm_offset
    image[fault + 8:fault + 10] = b"\x07\x09"    # severity, persistence
    with pytest.raises(BadLinkError, match="^invalid persistence value 9$"):
        deserialize(restamp(image))


def test_zero_severity_fault_clears_maintenance_like_a_rebuild():
    # deserialize accepts a fault of severity ZERO, which add_fault refuses
    image, hm = loaded(enum_map())
    image[hm.faults[0].shm_offset + 8] = 0
    hm = deserialize(restamp(image))
    rm = init_resource_map(hm, maintenance=[1])
    rm.set_maintenance(1, False)
    assert rm_state(rm) == rm_state(init_resource_map(hm))
    assert rm.entry(2).status is ModuleStatus.AVAILABLE


def test_duplicate_diag_resource_id_rejected():
    hm = HealthMap()
    hm.add_module(1)
    hm.add_diag_resource(10, 1)
    hm.add_diag_resource(11, 1)
    image, hm = loaded(hm)
    put_u32(image, hm.diag_resources[11].shm_offset, 10)
    with pytest.raises(BadLinkError, match="duplicate diag resource id 10"):
        deserialize(restamp(image))


def check_pass_map() -> HealthMap:
    """Modules 1-3 (2 and 3 under 1), diag resources 10 and 11 on module 1
    and 12 on module 2, dependencies 1 -> 2 and 1 -> 3, a fault on module
    1 with three detections and one on module 2 with one."""
    hm = HealthMap()
    hm.add_module(1)
    hm.add_module(2, 1, Severity.LOW)
    hm.add_module(3, 1, Severity.LOW)
    for res_id, owner in ((10, 1), (11, 1), (12, 2)):
        hm.add_diag_resource(res_id, owner)
    hm.add_dependency(1, 2, Severity.MEDIUM)
    hm.add_dependency(1, 3, Severity.MEDIUM)
    fault = hm.add_fault(1, Severity.HIGH, Persistence.TRANSIENT, 1)
    for t in range(3):
        hm.add_detection(fault, 10, t)
    hm.add_fault_with_detection(2, Severity.LOW, Persistence.TRANSIENT, 2,
                                12, 5)
    return hm


# (u32 words to rewrite, bytes to rewrite, expected error, message), each
# as {offset: value}. Offsets in the check_pass_map image: modules at 32,
# 57 and 82; diag resources 10, 11 and 12 at 107, 120 and 133;
# dependencies at 146 and 155; faults at 164 (module 1) and 176 (module
# 2); module 1's detections at 188, 213 and 238, module 2's at 263.
CHECK_PASS_CASES = {
    "detection cycle inside one list": (
        {238: 213}, {}, LinkCycleError,
        "detection list revisits offset 213"),
    "fault in two modules' lists": (
        {57 + 16: 164}, {}, LinkCycleError,
        "fault list revisits offset 164"),
    # 213 links past the unlinked 238 to a detection at 250, whose record
    # runs into the next detection, module 2's at 263
    "detection overlapping the next detection": (
        {213: 250, 250: 0, 250 + 4: 107}, {}, BadLinkError,
        "record at 263 overlaps record at 250"),
    "gap without overlap": (
        {213: 0}, {}, RecordCountError,
        "walked 3 detections, header says 4"),
    # the owner link of 107 is wrong, and 120 links back to 107: the list's
    # cycle is raised before the record's error
    "diag owner mismatch before a cycle": (
        {107 + 4: 57, 120 + 8: 107}, {}, LinkCycleError,
        "diag resource list revisits offset 107"),
    "dependency severity before a misaligned link": (
        {146 + 4: 156}, {146 + 8: 9}, OffsetMisalignedError,
        "dependency offset 156 not on a 9-byte record boundary"),
}


@pytest.mark.parametrize("case", sorted(CHECK_PASS_CASES))
def test_check_pass_error_paths_match_reference(case):
    words, byte_values, error, message = CHECK_PASS_CASES[case]
    image, hm = loaded(check_pass_map())
    records = (list(hm.modules.values()) + list(hm.diag_resources.values())
               + hm.dependencies + hm.faults + hm.detections)
    assert [r.shm_offset for r in records] == [
        32, 57, 82, 107, 120, 133, 146, 155, 164, 176, 188, 213, 238, 263]
    assert [d.shm_offset for d in hm.faults[0].detections] == [188, 213, 238]
    for offset, value in words.items():
        put_u32(image, offset, value)
    for offset, value in byte_values.items():
        image[offset] = value
    mutated = restamp(image)
    with pytest.raises(error, match=f"^{message}$"):
        deserialize(mutated)
    check_against_reference(mutated, 10)


@functools.lru_cache(maxsize=None)
def fuzz_bases() -> tuple[tuple[bytes, tuple[int, ...]], ...]:
    """(image, dynamic record offsets) pairs to mutate.

    The first is hostile: a full 65 535-fault header whose faults all link
    to one three-detection chain; a quadratic overlap check spends seconds
    on each rewrite of it.
    """
    hm = HealthMap()
    hm.add_module(1)
    hm.add_diag_resource(10, 1)
    for i in range(0xFFFF):
        fault = hm.add_fault(1, Severity.LOW, Persistence.TRANSIENT, i & 0xFF)
        if i == 0:
            for t in range(3):
                hm.add_detection(fault, 10, t)
    shared, hm = loaded(hm)
    head = hm.detections[0].shm_offset
    for fault in hm.faults[1:]:
        put_u32(shared, fault.shm_offset + 4, head)
    bases = [(restamp(shared), hm)]
    for seed in (2, 4):   # random maps that carry faults
        image, m = loaded(random_health_map(random.Random(seed)))
        bases.append((bytes(image), m))
    return tuple((image, tuple(r.shm_offset for r in m.faults + m.detections))
                 for image, m in bases)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(base=st.integers(0, 2), data=st.data())
def test_rewritten_dynamic_links_raise_only_shm_errors(base, data):
    image, records = fuzz_bases()[base]
    mutated = bytearray(image)
    # faults and detections both keep their two link words at +0 and +4
    for _ in range(data.draw(st.integers(1, 6))):
        record = data.draw(st.sampled_from(records))
        word = data.draw(st.sampled_from((0, 4)))
        value = data.draw(st.one_of(
            st.just(0), st.sampled_from(records),
            st.integers(0, len(image) + 64), st.integers(0, 0xFFFFFFFF)))
        put_u32(mutated, record + word, value)
    try:
        deserialize(restamp(mutated))
    except ShmError:
        pass


# -- append-only update -------------------------------------------------------

def test_append_one_fault_one_detection_grows_37_bytes():
    image = serialize(small_map())
    hm = deserialize(image)
    fault = hm.add_fault(2, Severity.LOW, Persistence.INTERMITTENT, 9)
    hm.add_detection(fault, 10, 2000, payload=5)
    updated = append_changes(image, hm)
    assert len(updated) == len(image) + FAULT_SIZE + DET_SIZE
    validate_image(updated)


def test_append_nothing_is_identity():
    image = serialize(small_map())
    assert append_changes(image, deserialize(image)) == image


def test_append_then_deserialize_commutes_with_model_path():
    image = serialize(small_map())
    grown = deserialize(image)
    fault = grown.add_fault(2, Severity.LOW, Persistence.INTERMITTENT, 9)
    grown.add_detection(fault, 10, 2000, payload=5)
    via_append = deserialize(append_changes(image, grown))

    via_model = deserialize(image)
    fault = via_model.add_fault(2, Severity.LOW, Persistence.INTERMITTENT, 9)
    via_model.add_detection(fault, 10, 2000, payload=5)
    assert via_append.equivalent(via_model)


def test_append_detection_to_existing_fault():
    image = serialize(small_map())
    hm = deserialize(image)
    # outside the merge window of the fault's detection at t=1000
    fault, created = report_detection(
        hm, DetectionReport(10, Severity.LOW, 1, 5_000_000))
    assert not created
    updated = append_changes(image, hm)
    assert len(updated) == len(image) + DET_SIZE
    again = deserialize(updated)
    assert len(again.modules[2].faults[0].detections) == 2


def test_append_preserves_constant_part_bytes():
    image = serialize(small_map())
    hm = deserialize(image)
    fault = hm.add_fault(1, Severity.LOW, Persistence.TRANSIENT, 2)
    hm.add_detection(fault, 10, 1)
    updated = append_changes(image, hm)
    # module 1 had no faults: only its firstFaultOff word may change
    mod_off = hm.modules[1].shm_offset
    allowed = set(range(mod_off + 16, mod_off + 20))
    allowed |= set(range(0, HEADER_SIZE))
    diffs = {i for i in range(len(image)) if image[i] != updated[i]}
    assert diffs - allowed == set()
    assert updated[:4] == image[:4]


def test_append_updates_counter_in_place():
    image = serialize(small_map())
    hm = deserialize(image)
    det = hm.modules[2].faults[0].detections[0]
    det.counter += 3
    det.flags |= 1
    updated = append_changes(image, hm)
    assert len(updated) == len(image)
    again = deserialize(updated)
    assert again.modules[2].faults[0].detections[0].counter == det.counter
    assert again.modules[2].faults[0].detections[0].flags & 1


# -- append path against the plain re-encoder in helpers ----------------------

SEVERITIES = st.sampled_from([Severity.LOW, Severity.MEDIUM, Severity.HIGH])
PERSISTENCES = st.sampled_from([Persistence.TRANSIENT,
                                Persistence.INTERMITTENT,
                                Persistence.PERMANENT])
EDITS = ("report", "add_fault", "add_detection", "counter", "flags",
         "severity", "persistence")


def apply_edit(hm: HealthMap, edit: str, data) -> None:
    """One change a loaded map may carry into append_changes: new records
    through the model or the fault manager, or a direct field edit."""
    detectors = st.sampled_from(sorted(hm.diag_resources))
    timestamps = st.integers(0, 2**64 - 1)
    if edit == "report":
        window = data.draw(st.sampled_from([0, 1000, 1_000_000]))
        report_detection(hm, DetectionReport(
            data.draw(detectors), data.draw(SEVERITIES),
            data.draw(st.integers(0, 7)), data.draw(st.integers(0, 3000)),
            data.draw(st.integers(0, 0xFFFFFFFF))),
            ClassifierConfig(merge_window_us=window))
    elif edit == "add_fault":
        fault = hm.add_fault(data.draw(st.sampled_from(sorted(hm.modules))),
                             data.draw(SEVERITIES), data.draw(PERSISTENCES),
                             data.draw(st.integers(0, 255)))
        for _ in range(data.draw(st.integers(0, 2))):
            hm.add_detection(fault, data.draw(detectors),
                             data.draw(timestamps))
    elif edit == "add_detection" and hm.faults:
        hm.add_detection(data.draw(st.sampled_from(hm.faults)),
                         data.draw(detectors), data.draw(timestamps),
                         payload=data.draw(st.integers(0, 0xFFFFFFFF)))
    elif edit == "severity" and hm.faults:
        data.draw(st.sampled_from(hm.faults)).severity = data.draw(SEVERITIES)
    elif edit == "persistence" and hm.faults:
        fault = data.draw(st.sampled_from(hm.faults))
        fault.persistence = data.draw(PERSISTENCES)
    elif edit == "counter" and hm.detections:
        det = data.draw(st.sampled_from(hm.detections))
        det.counter = data.draw(st.integers(1, 0xFFFFFFFF))
    elif edit == "flags" and hm.detections:
        det = data.draw(st.sampled_from(hm.detections))
        det.flags = data.draw(st.integers(0, 0xFF))


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**16), data=st.data())
def test_append_changes_matches_reference_encoder(seed, data):
    image = serialize(random_health_map(random.Random(seed)))
    for _ in range(data.draw(st.integers(1, 3), label="appends")):
        hm = deserialize(image)
        for edit in data.draw(st.lists(st.sampled_from(EDITS), max_size=8),
                              label="edits"):
            apply_edit(hm, edit, data)
        expected = reference_append(image, hm)
        image = append_changes(image, hm)
        assert image == expected
        assert deserialize(image).equivalent(hm)


# -- serialize: one writer, canonical layout ----------------------------------

def layout(hm: HealthMap) -> list[tuple[object, int]]:
    """(record, size) for every record of `hm` in canonical image order:
    modules, diag resources, dependencies, faults, detections."""
    return [(rec, size)
            for group, size in ((hm.modules.values(), MODULE_SIZE),
                                (hm.diag_resources.values(), DIAG_SIZE),
                                (hm.dependencies, DEP_SIZE),
                                (hm.faults, FAULT_SIZE),
                                (hm.detections, DET_SIZE))
            for rec in group]


def all_offsets(hm: HealthMap) -> list:
    return [rec.shm_offset for rec, _size in layout(hm)]


def canonical_offsets(hm: HealthMap) -> list[int]:
    """Where each record of `hm` sits in a freshly serialized image."""
    out, pos = [], HEADER_SIZE
    for _rec, size in layout(hm):
        out.append(pos)
        pos += size
    return out


def report_some(hm: HealthMap, rng: random.Random) -> None:
    detectors = sorted(hm.diag_resources)
    for _ in range(rng.randint(1, 4)):
        report_detection(hm, DetectionReport(
            rng.choice(detectors), Severity(rng.randint(1, 3)),
            rng.randint(0, 7), rng.randint(0, 3_000_000)))


def check_serialize_against_reference(hm: HealthMap,
                                      rng: random.Random) -> None:
    image = serialize(hm)
    assert all_offsets(hm) == canonical_offsets(hm)
    assert reference_append(image, hm) == image
    assert deserialize(image).equivalent(hm)
    report_some(hm, rng)
    expected = reference_append(image, hm)
    assert append_changes(image, hm) == expected


@pytest.mark.parametrize("seed", range(60))
def test_serialize_matches_reference_encoder(seed):
    rng = random.Random(seed)
    # a fresh map, whose records have no offsets yet
    check_serialize_against_reference(random_health_map(rng), rng)
    # a loaded map, grown by appends and then pruned
    image = serialize(random_health_map(rng))
    hm = deserialize(image)
    report_some(hm, rng)
    hm = deserialize(append_changes(image, hm))
    report_some(hm, rng)
    prune(hm)
    check_serialize_against_reference(hm, rng)


def break_structure(hm: HealthMap) -> None:
    module = next(iter(hm.modules.values()))
    module.parent = module


def break_detection_field(hm: HealthMap) -> None:
    hm.detections[0].timestamp = 2**64   # past the u64 field


@pytest.mark.parametrize("loaded_first", [False, True])
@pytest.mark.parametrize("breaker, error", [
    (break_structure, StructureInvalidError),
    (break_detection_field, struct.error),
], ids=["structure", "field"])
def test_failed_serialize_leaves_offsets_unchanged(breaker, error,
                                                   loaded_first):
    hm = small_map()
    if loaded_first:
        hm = deserialize(serialize(hm))
        report_detection(hm, DetectionReport(10, Severity.LOW, 3, 7))
    before = all_offsets(hm)
    breaker(hm)
    with pytest.raises(error):
        serialize(hm)
    assert all_offsets(hm) == before


def compiled_image(path: Path) -> bytes:
    return compile_xml(path.read_text())[0]


def cpu_after_appends_and_prune() -> bytes:
    """compile cpu.xml, three inject-style appends, then load, prune and
    serialize."""
    image = compiled_image(DEMO_DATA / "cpu.xml")
    for detector, severity, classification, t in (
            (12, Severity.LOW, 3, 1000), (12, Severity.HIGH, 3, 5_000_000),
            (1, Severity.MEDIUM, 7, 9_000_000)):
        hm = deserialize(image)
        report_detection(hm, DetectionReport(detector, severity,
                                             classification, t,
                                             payload=0xBEEF))
        image = append_changes(image, hm)
    hm = deserialize(image)
    assert prune(hm) == 1
    return serialize(hm)


# SHA-256 of images whose bytes must never change; a layout change made in
# both the encoder and the decoder still round-trips, so only fixed bytes
# catch it.
GOLDEN_IMAGES = {
    "cpu.xml": (
        functools.partial(compiled_image, DEMO_DATA / "cpu.xml"),
        "85a7e82a6a148c7f8188332740cb0a951acc192358dd24d84888232ff27867d8"),
    "board.xml": (
        functools.partial(compiled_image, DEMO_DATA / "board.xml"),
        "c6d951e0eb905796aa7d737c8d92f3493d161c2c83239c444114f4e0d421e27c"),
    "table1.xml": (
        functools.partial(compiled_image, DATA_DIR / "table1.xml"),
        "85a7e82a6a148c7f8188332740cb0a951acc192358dd24d84888232ff27867d8"),
    "synthesize_map(8)": (
        lambda: serialize(synthesize_map(8)),
        "a4ed551fafeb5715f4ecdfc26fed2efd5b8da3b6dd89d8757553f3c130666f00"),
    "cpu.xml appended and pruned": (
        cpu_after_appends_and_prune,
        "11c83d224a4ed3bc1151ec8153cce0c53afbecd5d20396a8aeccdef79eaa12f6"),
}


@pytest.mark.parametrize("name", list(GOLDEN_IMAGES))
def test_golden_image_bytes(name):
    build, digest = GOLDEN_IMAGES[name]
    assert hashlib.sha256(build()).hexdigest() == digest


# -- partial loads against the one-pass reference reader ----------------------
# `_load` is the CLI's load: every check of `deserialize`, but detections
# only for the module that owns one detector. `deserialize` and both
# partial shapes must fail exactly as the one-pass reference reader does.

def outcome(load, image: bytes):
    """(error class, message) of a load that raises, else its map."""
    try:
        return load(image)
    except Exception as exc:   # a non-ShmError must match the reference too
        return type(exc), str(exc)


def partial_view(hm: HealthMap, module_ids) -> tuple:
    """The map's snapshot with the detection lists of faults outside
    `module_ids` left out."""
    modules, resources, deps, faults, dets = hm.snapshot()
    return (modules, resources, deps,
            tuple((owner, sev, pers, cls,
                   tuple(dets[i] for i in det_ids)
                   if owner in module_ids else None)
                  for owner, sev, pers, cls, det_ids in faults))


def check_against_reference(image: bytes, detector: int) -> None:
    expected = outcome(reference_deserialize, image)
    got = outcome(deserialize, image)
    partial_none = outcome(_load, image)
    partial_one = outcome(lambda data: _load(data, detector), image)
    unknown = outcome(lambda data: _load(data, 0xFFFFFFFF), image)
    if isinstance(expected, tuple):
        assert got == partial_none == partial_one == unknown == expected
        return
    assert got.snapshot() == expected.snapshot()
    res = expected.diag_resources.get(detector)
    owner = {res.owner.id} if res is not None else set()
    assert partial_view(partial_none, set()) == partial_view(expected, set())
    assert partial_view(partial_one, owner) == partial_view(expected, owner)
    assert partial_none.detections == []
    assert [d.shm_offset for d in partial_one.detections] == sorted(
        d.shm_offset for f in partial_one.faults for d in f.detections)


@functools.lru_cache(maxsize=None)
def mutation_bases() -> tuple[tuple[bytes, tuple[int, ...], tuple[int, ...]],
                              ...]:
    """(image, dynamic record offsets, detector ids) to mutate: the two
    random-map bases of `fuzz_bases` and random maps grown by appends, so
    faults and detections interleave in the dynamic region."""
    bases = []
    for image, records in fuzz_bases()[1:]:
        bases.append((image, records,
                      tuple(sorted(deserialize(image).diag_resources))))
    for seed in (7, 11, 13):
        rng = random.Random(seed)
        image = serialize(random_health_map(rng))
        for _ in range(3):
            hm = deserialize(image)
            report_some(hm, rng)
            image = append_changes(image, hm)
        hm = deserialize(image)
        bases.append((image,
                      tuple(r.shm_offset for r in hm.faults + hm.detections),
                      tuple(sorted(hm.diag_resources))))
    return tuple(bases)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(base=st.integers(0, 4), data=st.data())
def test_loads_match_reference_reader_on_mutated_images(base, data):
    image, records, detectors = mutation_bases()[base]
    mutated = bytearray(image)
    for kind in data.draw(st.lists(st.sampled_from(("flip", "link")),
                                   min_size=1, max_size=4), label="edits"):
        if kind == "flip":
            bit = data.draw(st.integers(0, len(mutated) * 8 - 1))
            mutated[bit // 8] ^= 1 << (bit % 8)
        else:
            record = data.draw(st.sampled_from(records))
            value = data.draw(st.one_of(
                st.just(0), st.sampled_from(records),
                st.integers(0, len(image) + 64), st.integers(0, 0xFFFFFFFF)))
            put_u32(mutated, record + data.draw(st.sampled_from((0, 4))),
                    value)
    mutated = restamp(mutated)
    if data.draw(st.integers(0, 3), label="truncate") == 3:
        mutated = mutated[:data.draw(st.integers(0, len(mutated)))]
    check_against_reference(mutated, data.draw(st.sampled_from(detectors)))


@pytest.mark.parametrize("base", range(5))
def test_loads_match_reference_reader_on_intact_images(base):
    image, _records, detectors = mutation_bases()[base]
    for detector in detectors:
        check_against_reference(image, detector)


# -- partial loads write and read what full loads do --------------------------

CEILING_CLASS = 200


def ceiling_map(rng: random.Random) -> tuple[HealthMap, int]:
    """A random map plus a fault whose one detection, by a detector of the
    fault's own module, is one event below the u32 counter ceiling; returns
    the map and that detector's id."""
    hm = random_health_map(rng)
    res = rng.choice(list(hm.diag_resources.values()))
    fault = hm.add_fault(res.owner.id, Severity.LOW, Persistence.PERMANENT,
                         CEILING_CLASS)
    hm.add_detection(fault, res.id, 500_000, counter=U32_MAX - 1)
    return hm, res.id


def report_strategy(detectors, ceiling_detector):
    anywhere = st.builds(DetectionReport, st.sampled_from(detectors),
                         SEVERITIES, st.integers(0, 3),
                         st.integers(0, 3_000_000),
                         st.integers(0, 0xFFFFFFFF))
    # merges into the fault at the counter ceiling, then past it
    at_ceiling = st.builds(DetectionReport, st.just(ceiling_detector),
                           SEVERITIES, st.just(CEILING_CLASS),
                           st.integers(0, 1_500_000))
    return st.one_of(anywhere, at_ceiling)


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**16), data=st.data())
def test_partial_load_inject_writes_full_load_bytes(seed, data):
    hm, ceiling_detector = ceiling_map(random.Random(seed))
    image = serialize(hm)
    reports = data.draw(st.lists(
        report_strategy(sorted(hm.diag_resources), ceiling_detector),
        min_size=1, max_size=12), label="reports")
    for report in reports:
        full = deserialize(image)
        expected_fault, expected_created = report_detection(full, report)
        expected = append_changes(image, full)
        part = _load(image, report.detector_id)
        fault, created = report_detection(part, report)
        image = append_changes(image, part)
        assert image == expected
        assert created == expected_created
        assert fault.shm_offset == expected_fault.shm_offset
    assert deserialize(image).snapshot() == full.snapshot()


TOLERANCES = parse_task_file("task strict\n"
                             "task low maxSev=LOW maxPers=INTERMITTENT\n"
                             "task any maxSev=HIGH maxPers=PERMANENT\n")


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**16), data=st.data())
def test_partial_load_rm_and_affinity_match_full_load(seed, data):
    rng = random.Random(seed)
    image = serialize(random_health_map(rng))
    hm = deserialize(image)
    report_some(hm, rng)
    image = append_changes(image, hm)
    full, part = deserialize(image), _load(image)
    assert part.detections == []
    ids = sorted(full.modules)
    maintenance = data.draw(st.lists(st.sampled_from(ids), max_size=3),
                            label="maintenance")
    cores = data.draw(st.lists(st.sampled_from(ids), min_size=1,
                               unique=True), label="cores")
    sidecar = Sidecar()
    for mid in ids:
        sidecar.add(mid, f"M{mid}",
                    cores.index(mid) if mid in cores else None)
    rm_full = init_resource_map(full, maintenance)
    rm_part = init_resource_map(part, maintenance)
    assert rm_part.encode() == rm_full.encode()
    assert (compute_affinity(rm_part, sidecar, TOLERANCES)
            == compute_affinity(rm_full, sidecar, TOLERANCES))


def test_partial_map_grows_only_through_its_loaded_module():
    hm = two_fault_map()
    hm.add_module(2)
    hm.add_diag_resource(20, 2)
    hm.add_fault_with_detection(2, Severity.LOW, Persistence.TRANSIENT, 5,
                                20, 0)
    image = serialize(hm)
    part = _load(image, 20)
    # module 1's faults are there, their detections are not
    assert [len(f.detections) for f in part.modules[1].faults] == [0, 0]
    with pytest.raises(AppendError, match="cannot serialize"):
        serialize(part)
    part.add_detection(part.modules[1].faults[0], 10, 7)
    with pytest.raises(AppendError, match="detections were not loaded"):
        append_changes(image, part)
    part = _load(image, 20)
    part.add_fault(1, Severity.LOW, Persistence.TRANSIENT, 9)
    with pytest.raises(AppendError, match="detections were not loaded"):
        append_changes(image, part)
    part = _load(image, 20)
    part.add_fault_with_detection(2, Severity.HIGH, Persistence.TRANSIENT, 9,
                                  10, 7)
    updated = append_changes(image, part)
    full = deserialize(image)
    full.add_fault_with_detection(2, Severity.HIGH, Persistence.TRANSIENT, 9,
                                  10, 7)
    assert updated == append_changes(image, full)
