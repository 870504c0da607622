import functools
import hashlib
import random
import re
import struct
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from healthmap import (
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
from healthmap import codec, faultmgr
from healthmap.codec import (DEP_SIZE, DET_SIZE, DIAG_SIZE, FAULT_SIZE,
                             HEADER_SIZE, MODULE_SIZE, _check, _load,
                             _Reader)
from healthmap.errors import (
    BadLinkError,
    BadMagicError,
    BodyCrcMismatchError,
    FieldRangeError,
    HealthMapError,
    HeaderCrcMismatchError,
    LengthMismatchError,
    LinkCycleError,
    OffsetMisalignedError,
    OffsetOutOfBoundsError,
    AppendError,
    FaultsNotBuiltError,
    RecordCountError,
    ShmError,
    StructureInvalidError,
    UnknownDetectorError,
)
from healthmap.model import U32_MAX, DiagResource, Module, worst_faults

import golden
from conftest import DATA_DIR
from helpers import (
    crc32_reference,
    oracle_resource_map,
    random_health_map,
    reference_append,
    reference_deserialize,
    restamp,
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


def test_serialize_rejects_a_self_dependency():
    hm = HealthMap()
    hm.add_module(1)
    hm.add_module(2, 1)
    dep = hm.add_dependency(1, 2, Severity.LOW)
    dep.dependent = dep.provider
    with pytest.raises(StructureInvalidError,
                       match=r"SelfDependency\(1\): module depends on itself"):
        serialize(hm)


def test_serialize_rejects_counts_the_header_cannot_hold():
    # R is a u16 header field
    hm = HealthMap()
    hm.add_module(1)
    for rid in range(0x10000):
        hm.add_diag_resource(rid, 1)
    with pytest.raises(StructureInvalidError,
                       match=re.escape("(M=1 R=65536 D=0 F=0 FD=0)")):
        serialize(hm)
    assert set(all_offsets(hm)) == {None}


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
    # at fault+11, the fault's reserved byte. A detection there reads its
    # next link from that byte and the now unreached second fault's next
    # link (zero: end of list), its detector link from the rest of the
    # second fault's links, and its counter from bytes 3-6 of the unreached
    # first detection (not zero), so only the overlap is wrong with it.
    inside = fault + 11
    put_u32(image, fault, 0)
    put_u32(image, fault + 4, inside)
    put_u32(image, inside + 4, hm.diag_resources[10].shm_offset)
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
    "detector between diag slots": (("det", 4), 83, BadLinkError,
                                    "detection at 116 references "
                                    "non-detector offset 83"),
    "detector in the dependency section": (("det", 4), "dep", BadLinkError,
                                           "detection at 116 references "
                                           "non-detector offset 95"),
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
    for load in (deserialize, _check):
        with pytest.raises(error, match=f"^{message}"):
            load(restamp(image))


def test_fault_with_both_enum_bytes_bad_names_persistence():
    image, hm = loaded(enum_map())
    fault = hm.faults[0].shm_offset
    for pair, pers in ((b"\x07\x09", 9), (b"\x00\x00", 0)):
        image[fault + 8:fault + 10] = pair    # severity, persistence
        with pytest.raises(BadLinkError,
                           match=f"^invalid persistence value {pers}$"):
            deserialize(restamp(image))


def test_rebuild_counts_a_zero_severity_fault_as_no_fault():
    # no image holds a fault of severity ZERO, but a direct edit can make
    # one: it neither marks its module nor propagates, and only its
    # persistence folds into its own entry
    image, hm = loaded(enum_map())
    image[hm.faults[0].shm_offset + 8] = 0
    with pytest.raises(BadLinkError, match="^invalid severity value 0$"):
        deserialize(restamp(image))
    hm.faults[0].severity = Severity.ZERO
    assert rm_state(init_resource_map(hm)) == {
        1: (Severity.ZERO, Persistence.ZERO, ModuleStatus.AVAILABLE),
        2: (Severity.ZERO, Persistence.TRANSIENT, ModuleStatus.AVAILABLE)}


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
    # module 1's parent link to module 2, whose parent is module 1
    "parent cycle": (
        {32 + 4: 57}, {}, LinkCycleError,
        "parent chain of module 1: cycle through module 1"),
    "dependency cycle": (
        {155 + 4: 146}, {}, LinkCycleError,
        "dependency list revisits offset 146"),
    # module 1's first-dependency link
    "dependency count": (
        {32 + 12: 0}, {}, RecordCountError,
        "walked 0 dependencies, header says 2"),
    "fault severity ZERO": (
        {}, {176 + 8: 0}, BadLinkError, "invalid severity value 0"),
    "fault persistence ZERO": (
        {}, {164 + 9: 0}, BadLinkError, "invalid persistence value 0"),
    "detection counter 0": (
        {213 + 16: 0}, {}, BadLinkError, "detection at 213 has counter 0"),
    # the fault's bytes are read in the walk, the overlap only after it
    "ZERO severity before a later overlap": (
        {213: 250, 250: 0, 250 + 4: 107}, {164 + 8: 0}, BadLinkError,
        "invalid severity value 0"),
    # a record met again is a cycle only when the list being walked holds
    # it; a fault is held by no detection list, its own included
    "fault's detection list starting at the fault": (
        {164 + 4: 164}, {}, BadLinkError,
        "detection at 164 reuses a claimed record"),
    "detection in two faults' lists": (
        {263: 213}, {}, BadLinkError,
        "detection at 213 reuses a claimed record"),
    "fault list linking to a detection": (
        {164: 188}, {}, BadLinkError,
        "fault at 188 reuses a claimed record"),
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


@pytest.mark.parametrize("add, what", [
    (lambda hm: hm.add_module(3, 1), "modules"),
    (lambda hm: hm.add_diag_resource(11, 1), "diag resources"),
    (lambda hm: hm.add_dependency(1, 2, Severity.LOW), "dependencies"),
])
def test_append_refuses_a_new_structural_record(add, what):
    # an image is append-only for faults and detections; its module, diag
    # resource and dependency sections have no room to grow
    image = serialize(small_map())
    hm = deserialize(image)
    add(hm)
    with pytest.raises(AppendError,
                       match=f"^cannot append new {what} to an image$"):
        append_changes(image, hm)


def test_a_second_append_to_the_same_image_is_refused():
    # the first append gave the new records offsets past this image's end;
    # the map now belongs to the image that append returned
    image = serialize(synthesize_map(1))
    hm = deserialize(image)
    fault = hm.add_fault(2, Severity.LOW, Persistence.INTERMITTENT, 9)
    hm.add_detection(fault, min(hm.diag_resources), 2000)
    updated = append_changes(image, hm)
    before = all_offsets(hm)
    with pytest.raises(AppendError, match=(
            f"^the map already holds a record at offset "
            f"{fault.detections[0].shm_offset}, past this image's end "
            f"\\({len(image)} bytes\\): it was appended before; append to "
            f"the image that append returned$")):
        append_changes(image, hm)
    assert all_offsets(hm) == before
    assert append_changes(updated, hm) == updated


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


@pytest.mark.parametrize("load", [deserialize, lambda data: _load(data, 10)],
                         ids=["deserialize", "_load"])
@pytest.mark.parametrize("field, value", [("severity", Severity.ZERO),
                                          ("persistence", Persistence.ZERO),
                                          ("counter", 0)])
def test_append_refuses_fields_a_load_rejects(load, field, value):
    image = serialize(small_map())
    hm = load(image)
    new = hm.add_fault(2, Severity.LOW, Persistence.TRANSIENT, 9)
    fault = hm.modules[2].faults[0]
    setattr(fault.detections[0] if field == "counter" else fault, field,
            value)
    with pytest.raises(AppendError,
                       match=r"^cannot write a ZERO .*\(module 2\)$"):
        append_changes(image, hm)
    assert new.shm_offset is None


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
        report = DetectionReport(
            data.draw(detectors), data.draw(SEVERITIES),
            data.draw(st.integers(0, 7)), data.draw(st.integers(0, 3000)),
            data.draw(st.integers(0, 0xFFFFFFFF)))
        with mock.patch.object(faultmgr, "DEFAULT_MERGE_WINDOW_US", window):
            report_detection(hm, report)
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
    (break_detection_field, FieldRangeError),
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


@pytest.mark.parametrize("record, field, value", [
    ("detection", "timestamp", 2**64), ("detection", "counter", 2**32),
    ("detection", "payload", -1), ("detection", "flags", 256),
    ("fault", "severity", 256), ("fault", "classification", 300),
])
def test_failed_append_leaves_new_records_without_offsets(record, field,
                                                          value):
    hm = HealthMap()
    hm.add_module(1)
    hm.add_diag_resource(10, 1)
    image = serialize(hm)
    hm = deserialize(image)
    fault, _created = report_detection(hm, DetectionReport(10, Severity.LOW,
                                                           3, 7))
    target = fault if record == "fault" else fault.detections[0]
    good = getattr(target, field)
    setattr(target, field, value)
    with pytest.raises(FieldRangeError,
                       match=f"^{record} {field} {value} outside 0\\.\\."):
        append_changes(image, hm)
    assert offsets([fault, *fault.detections]) == [None, None]
    setattr(target, field, "1")
    with pytest.raises(FieldRangeError,
                       match=f"^{record} {field} '1' is not an integer"):
        append_changes(image, hm)
    setattr(target, field, good)
    expected = reference_append(image, hm)
    assert append_changes(image, hm) == expected


# -- the writers refuse a level value that a load refuses --------------------
# A criticality, severity or persistence set directly on a loaded record
# fits its byte whenever it is below 256, but a load accepts only a member
# of its enum; both writers refuse any other value before an offset moves.

@functools.lru_cache(maxsize=None)
def synthesized_image() -> bytes:
    return serialize(synthesize_map(1))


def grown_synthesized_map() -> HealthMap:
    """The map of `synthesized_image()` with one new fault and detection,
    so an append has records that must stay without offsets."""
    hm = deserialize(synthesized_image())
    report_detection(hm, DetectionReport(min(hm.diag_resources),
                                         Severity.LOW, 200, 7))
    return hm


WRITERS = {"serialize": lambda image, hm: serialize(hm),
           "append_changes": append_changes}


@pytest.mark.parametrize("record, field, value, writer", [
    ("module", "criticality", 7, "serialize"),
    ("module", "criticality", 7, "append_changes"),
    ("fault", "severity", 7, "serialize"),
    ("fault", "severity", 7, "append_changes"),
    ("fault", "persistence", 9, "serialize"),
    ("fault", "persistence", 9, "append_changes"),
    ("dependency", "severity", 7, "serialize"),
])
def test_writers_refuse_a_level_a_load_refuses(record, field, value, writer):
    hm = grown_synthesized_map()
    target = {"module": list(hm.modules.values())[-1],
              "fault": hm.faults[0],
              "dependency": hm.dependencies[-1]}[record]
    setattr(target, field, value)
    before = all_offsets(hm)
    assert None in before
    with pytest.raises(FieldRangeError,
                       match=f"^{record} {field} {value} outside 0[.][.]3$"):
        WRITERS[writer](synthesized_image(), hm)
    assert all_offsets(hm) == before


LEVELS = st.one_of(st.integers(-1, 9), st.sampled_from((255, 256)))
# (records of the map to edit, field, values drawn for it)
DIRECT_EDITS = {
    "criticality": (lambda hm: list(hm.modules.values()), "criticality",
                    LEVELS),
    "dependency severity": (lambda hm: hm.dependencies, "severity", LEVELS),
    "severity": (lambda hm: hm.faults, "severity", LEVELS),
    "persistence": (lambda hm: hm.faults, "persistence", LEVELS),
    "counter": (lambda hm: hm.detections, "counter",
                st.sampled_from((-1, 0, 1, 2**32 - 1, 2**32))),
    "timestamp": (lambda hm: hm.detections, "timestamp",
                  st.sampled_from((-1, 0, 2**64 - 1, 2**64))),
    "payload": (lambda hm: hm.detections, "payload",
                st.sampled_from((-1, 0, 2**32 - 1, 2**32))),
    "flags": (lambda hm: hm.detections, "flags", st.integers(-1, 256)),
    # drawn from the map being edited: may close a cycle
    "parent": (lambda hm: list(hm.modules.values()), "parent",
               lambda hm, _module: st.sampled_from(
                   [None, *hm.modules.values()])),
    # the map's own ids: may repeat one
    "id": (lambda hm: list(hm.modules.values()), "id",
           lambda hm, _module: st.sampled_from(sorted(hm.modules))),
    # a module's own list, reordered
    "diag order": (lambda hm: list(hm.modules.values()), "diag_resources",
                   lambda _hm, module: st.permutations(
                       module.diag_resources)),
    "dependency order": (lambda hm: list(hm.modules.values()),
                         "dependencies", lambda _hm, module: st.permutations(
                             module.dependencies)),
    "fault order": (lambda hm: list(hm.modules.values()), "faults",
                    lambda _hm, module: st.permutations(module.faults)),
}


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(writer=st.sampled_from(sorted(WRITERS)), data=st.data())
def test_writers_write_only_what_a_load_accepts(writer, data):
    # after any direct edits, a writer either raises leaving every offset
    # as it was, or returns an image that loads
    hm = grown_synthesized_map()
    for name in data.draw(st.lists(st.sampled_from(sorted(DIRECT_EDITS)),
                                   min_size=1, max_size=4), label="edits"):
        records, field, values = DIRECT_EDITS[name]
        record = data.draw(st.sampled_from(records(hm)))
        if callable(values):
            values = values(hm, record)
        setattr(record, field, data.draw(values))
    before = all_offsets(hm)
    try:
        image = WRITERS[writer](synthesized_image(), hm)
    except HealthMapError:
        assert all_offsets(hm) == before
    else:
        deserialize(image)


@pytest.mark.parametrize("load", ["deserialize", "partial"])
@pytest.mark.parametrize("child, parent, first", [
    (4, 4, 4),     # a module made its own parent
    (1, 12, 1),    # the root hung under its grandchild: 1 -> 12 -> 11 -> 1
])
def test_append_refuses_a_parent_cycle_a_load_refuses(load, child, parent,
                                                      first):
    # `serialize` refuses such a map; the append raises the error a load of
    # its image would raise and leaves every offset as it was
    image = synthesized_image()
    hm = (grown_synthesized_map() if load == "deserialize"
          else _load(image, min(deserialize(image).diag_resources)))
    hm.modules[child].parent = hm.modules[parent]
    before = all_offsets(hm)
    with pytest.raises(LinkCycleError, match=(
            f"^parent chain of module {first}: cycle through module "
            f"{first}$")):
        append_changes(image, hm)
    assert all_offsets(hm) == before


@pytest.mark.parametrize("load", ["deserialize", "partial"])
def test_append_refuses_a_repeated_module_id(load):
    # a moved id word goes through the load, as a moved parent word does
    image = synthesized_image()
    hm = (grown_synthesized_map() if load == "deserialize"
          else _load(image, 1))
    hm.modules[2].id = 1
    before = all_offsets(hm)
    with pytest.raises(BadLinkError, match="^duplicate module id 1$"):
        append_changes(image, hm)
    assert all_offsets(hm) == before


def test_append_writes_a_parent_edit_that_closes_no_cycle():
    hm = grown_synthesized_map()
    hm.modules[12].parent = hm.modules[4]
    hm.modules[4].parent = None
    loaded = deserialize(append_changes(synthesized_image(), hm))
    assert loaded.modules[12].parent is loaded.modules[4]
    assert loaded.modules[4].parent is None


@pytest.mark.parametrize("offset_of", [None, 6])
def test_append_refuses_a_parent_outside_the_map(offset_of):
    # a parent record that is not the map's own, without an offset or with
    # another module's, gets serialize's error and moves no offset
    hm = grown_synthesized_map()
    hm.modules[4].parent = Module(99, shm_offset=(
        None if offset_of is None else hm.modules[offset_of].shm_offset))
    before = all_offsets(hm)
    with pytest.raises(StructureInvalidError) as serialized:
        serialize(hm)
    with pytest.raises(StructureInvalidError) as appended:
        append_changes(synthesized_image(), hm)
    assert str(appended.value) == str(serialized.value)
    assert "DanglingParent(4): parent 99 not in map" in str(appended.value)
    assert all_offsets(hm) == before


@pytest.mark.parametrize("offset_of", [None, 6])
def test_append_refuses_a_detector_outside_the_map(offset_of):
    # a detector record that is not the map's own, without an offset or
    # with another resource's, gets serialize's error and moves no offset
    hm = grown_synthesized_map()
    det = hm.detections[0]
    det.detector = DiagResource(999, det.detector.owner, shm_offset=(
        None if offset_of is None
        else hm.diag_resources[offset_of].shm_offset))
    before = all_offsets(hm)
    with pytest.raises(StructureInvalidError) as serialized:
        serialize(hm)
    with pytest.raises(StructureInvalidError) as appended:
        append_changes(synthesized_image(), hm)
    assert str(appended.value) == str(serialized.value)
    assert "DanglingDetector(999)" in str(appended.value)
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


# images whose bytes must never change, by their digests in tests/golden.py
GOLDEN_IMAGES = {
    "cpu.xml": (functools.partial(compiled_image, DEMO_DATA / "cpu.xml"),
                golden.CPU_IMAGE),
    "board.xml": (functools.partial(compiled_image, DEMO_DATA / "board.xml"),
                  golden.BOARD_IMAGE),
    "table1.xml": (functools.partial(compiled_image, DATA_DIR / "table1.xml"),
                   golden.CPU_IMAGE),
    "synthesize_map(8)": (lambda: serialize(synthesize_map(8)),
                          golden.SYNTHESIZED_8_IMAGE),
    "cpu.xml appended and pruned": (cpu_after_appends_and_prune,
                                    golden.CPU_PRUNED_IMAGE),
}


@pytest.mark.parametrize("name", list(GOLDEN_IMAGES))
def test_golden_image_bytes(name):
    build, digest = GOLDEN_IMAGES[name]
    assert hashlib.sha256(build()).hexdigest() == digest


# -- partial loads against the one-pass reference reader ----------------------
# Every load is one check and then one build of chosen modules' lists:
# `deserialize` builds every module's, `_load` with a detector only those of
# the module that owns it, and `_check` none. Every shape must fail exactly
# as the one-pass reference reader does.

def outcome(load, image: bytes):
    """(error class, message) of a load that raises, else its map."""
    try:
        return load(image)
    except Exception as exc:   # a non-ShmError must match the reference too
        return type(exc), str(exc)


def resource_view(hm: HealthMap) -> tuple:
    """What a load without a detector builds, from the map's snapshot: each
    module's id, parent, criticality and dependencies, and the
    dependencies."""
    modules, _resources, deps, _faults, _dets = hm.snapshot()
    return (tuple((mid, parent, crit, dep_ids)
                  for mid, parent, crit, _diags, dep_ids, _owned in modules),
            deps)


def lists_view(hm: HealthMap, module_ids) -> tuple:
    """The diag resource and fault lists of the modules in `module_ids`,
    each fault with its detections, every record with its offset."""
    def diag(res):
        return res.id, res.owner.id, res.kind, res.shm_offset

    return tuple(
        (m.id, tuple(map(diag, m.diag_resources)),
         tuple((int(f.severity), int(f.persistence), f.classification,
                f.shm_offset,
                tuple((diag(d.detector), d.timestamp, d.counter, d.payload,
                       d.flags, d.shm_offset) for d in f.detections))
               for f in m.faults))
        for m in hm.modules.values() if m.id in module_ids)


def check_inject_load(hm: HealthMap, expected: HealthMap,
                      detector: int) -> None:
    """`hm`, the load of `expected`'s image with `detector`, builds every
    module and dependency, and of the module owning `detector` (if any)
    its diag resources, faults and detections and the detectors those name,
    each built once; nothing else."""
    res = expected.diag_resources.get(detector)
    owner = {res.owner.id} if res is not None else set()
    assert hm._built == owner
    assert resource_view(hm) == resource_view(expected)
    assert lists_view(hm, owner) == lists_view(expected, owner)
    assert all(m.diag_resources == [] and m.faults == []
               for m in hm.modules.values() if m.id not in owner)
    faults = [f for mid in owner for f in hm.modules[mid].faults]
    dets = [d for f in faults for d in f.detections]
    assert hm.faults == sorted(faults, key=lambda f: f.shm_offset)
    assert hm.detections == sorted(dets, key=lambda d: d.shm_offset)
    named = [r for mid in owner for r in hm.modules[mid].diag_resources]
    named += [d.detector for d in dets]
    assert hm.diag_resources == {r.id: r for r in named}
    assert offsets(hm.diag_resources.values()) == sorted(
        offsets(hm.diag_resources.values()))


def check_against_reference(image: bytes, detector: int) -> None:
    """Every load of `image` fails as the reference reader does, or builds
    what it builds; a map a load accepts breaks no structural rule. The
    load without a detector builds no diag resource and no fault, and its
    triples give the reference map's resource map; the load with one
    builds its owner's lists only."""
    expected = outcome(reference_deserialize, image)
    got = outcome(deserialize, image)
    checked = outcome(_check, image)
    partial_one = outcome(lambda data: _load(data, detector), image)
    unknown = outcome(lambda data: _load(data, 0xFFFFFFFF), image)
    if isinstance(expected, tuple):
        assert got == checked == partial_one == unknown == expected
        return
    partial_none, worst, counts = checked
    assert counts == (len(expected.modules), len(expected.diag_resources),
                      len(expected.dependencies), len(expected.faults),
                      len(expected.detections))
    assert got.snapshot() == expected.snapshot()
    assert got._built is None and partial_none._built == set()
    for hm in (got, partial_none, partial_one, unknown):
        assert hm.validate_structure() == []
    assert resource_view(partial_none) == resource_view(expected)
    assert partial_none.diag_resources == {} and partial_none.faults == []
    assert all(m.diag_resources == [] and m.faults == []
               for m in partial_none.modules.values())
    assert worst == list(worst_faults(expected.modules.values()))
    assert rm_state(init_resource_map(partial_none, worst=worst)) == \
        oracle_resource_map(expected)
    check_inject_load(partial_one, expected, detector)
    check_inject_load(unknown, expected, 0xFFFFFFFF)
    assert partial_none.detections == unknown.detections == []
    with pytest.raises(UnknownDetectorError,
                       match="^diag resource 4294967295 not found$"):
        report_detection(unknown, DetectionReport(0xFFFFFFFF, Severity.LOW,
                                                  1, 0))


@functools.lru_cache(maxsize=None)
def mutation_bases() -> tuple[tuple[bytes, HealthMap], ...]:
    """(image, its map) pairs to mutate: the two random-map bases of
    `fuzz_bases` and random maps grown by appends, so faults and
    detections interleave in the dynamic region."""
    images = [image for image, _records in fuzz_bases()[1:]]
    for seed in (7, 11, 13):
        rng = random.Random(seed)
        image = serialize(random_health_map(rng))
        for _ in range(3):
            hm = deserialize(image)
            report_some(hm, rng)
            image = append_changes(image, hm)
        images.append(image)
    return tuple((image, deserialize(image)) for image in images)


def offsets(records) -> list[int]:
    return [rec.shm_offset for rec in records]


def mutated_image(data, image: bytes, hm: HealthMap) -> bytes:
    """`image` after one to four drawn edits (bit flips, rewritten fault
    and detection links, zeroed enum bytes and counters, rewritten parent
    links) with both CRCs re-stamped, then truncated one time in four;
    `hm` is the map of `image`."""
    faults, dets = offsets(hm.faults), offsets(hm.detections)
    modules = offsets(hm.modules.values())
    records = faults + dets
    mutated = bytearray(image)
    for kind in data.draw(st.lists(st.sampled_from(
            ("flip", "link", "zero", "parent")), min_size=1, max_size=4),
            label="edits"):
        if kind == "flip":
            bit = data.draw(st.integers(0, len(mutated) * 8 - 1))
            mutated[bit // 8] ^= 1 << (bit % 8)
        elif kind == "link":
            record = data.draw(st.sampled_from(records))
            value = data.draw(st.one_of(
                st.just(0), st.sampled_from(records),
                st.integers(0, len(image) + 64), st.integers(0, 0xFFFFFFFF)))
            put_u32(mutated, record + data.draw(st.sampled_from((0, 4))),
                    value)
        elif kind == "zero":
            # a fault's severity or persistence byte, or a detection's counter
            record = data.draw(st.sampled_from(records))
            if record in faults:
                mutated[record + data.draw(st.sampled_from((8, 9)))] = 0
            else:
                put_u32(mutated, record + 16, 0)
        elif kind == "parent":
            put_u32(mutated, data.draw(st.sampled_from(modules)) + 4,
                    data.draw(st.sampled_from(modules)))
    mutated = restamp(mutated)
    if data.draw(st.integers(0, 3), label="truncate") == 3:
        mutated = mutated[:data.draw(st.integers(0, len(mutated)))]
    return mutated


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(base=st.integers(0, 4), data=st.data())
def test_loads_match_reference_reader_on_mutated_images(base, data):
    image, hm = mutation_bases()[base]
    mutated = mutated_image(data, image, hm)
    check_against_reference(mutated,
                            data.draw(st.sampled_from(sorted(
                                hm.diag_resources))))


@pytest.mark.parametrize("base", range(5))
def test_loads_match_reference_reader_on_intact_images(base):
    image, hm = mutation_bases()[base]
    for detector in sorted(hm.diag_resources):
        check_against_reference(image, detector)


# -- the column proof of the dynamic region -----------------------------------
# A load first tries to prove the dynamic region valid by column scans and
# walks its lists only when the proof fails. With the walker patched to
# fail, an image loads only through the proof; with the proof turned off,
# only through the walker.

class WalkerCalled(Exception):
    """The load fell back to walking the detection lists."""


def walker_fails(*_args):
    raise WalkerCalled


def proof_only():
    return mock.patch.object(_Reader, "_check_dynamic", walker_fails)


def by_proof(image: bytes) -> HealthMap:
    with proof_only():
        return deserialize(image)


def by_walker(image: bytes, load=deserialize) -> HealthMap:
    with mock.patch.object(_Reader, "_prove_dynamic", lambda *_args: None):
        return load(image)


def fault_offsets(hm: HealthMap) -> tuple:
    """Each module's fault offsets in list order, and the map's in order."""
    return ([offsets(m.faults) for m in hm.modules.values()],
            offsets(hm.faults))


def check_loads_by_proof(image: bytes) -> None:
    proved = by_proof(image)
    expected = reference_deserialize(image)
    assert proved.snapshot() == expected.snapshot()
    assert fault_offsets(proved) == fault_offsets(expected)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(base=st.integers(0, 4), data=st.data())
def test_proof_accepts_only_what_the_walker_accepts(base, data):
    image, hm = mutation_bases()[base]
    mutated = mutated_image(data, image, hm)
    proved = outcome(by_proof, mutated)
    if isinstance(proved, HealthMap):
        walked = by_walker(mutated)
        assert walked.snapshot() == proved.snapshot()
        assert fault_offsets(walked) == fault_offsets(proved)
        # the walker keeps the triples the proof keeps
        assert by_walker(mutated, _check)[1] == _check(mutated)[1]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(base=st.integers(0, 4), data=st.data())
def test_proof_and_walker_agree_on_rewired_lists(base, data):
    # Detection lists rewired: reversed, a tail moved to another fault, a
    # list closed into a cycle cut off from its fault, or one next link
    # rewritten. The proof accepts what the walker accepts, unless a list
    # then links backward.
    image, hm = mutation_bases()[base]
    lists = {f.shm_offset: offsets(f.detections) for f in hm.faults}
    dets = offsets(hm.detections)
    cycles, nexts = set(), []
    for kind in data.draw(st.lists(st.sampled_from(
            ("reverse", "move", "cycle", "next")), min_size=1, max_size=4),
            label="edits"):
        longer = sorted(f for f, chain in lists.items() if len(chain) > 1)
        if kind == "next" and dets:
            nexts.append((data.draw(st.sampled_from(dets)),
                          data.draw(st.sampled_from([0, *dets]))))
        elif kind == "move" and len(lists) > 1:
            source = data.draw(st.sampled_from(sorted(lists)))
            target = data.draw(st.sampled_from(sorted(set(lists) - {source})))
            cut = data.draw(st.integers(0, len(lists[source])))
            lists[target] += lists[source][cut:]
            del lists[source][cut:]
        elif kind in ("reverse", "cycle") and longer:
            fault = data.draw(st.sampled_from(longer))
            if kind == "reverse":
                lists[fault].reverse()
            else:
                cycles.add(fault)
    rewired = bytearray(image)
    for fault, chain in lists.items():
        put_u32(rewired, fault + 4, 0 if fault in cycles or not chain
                else chain[0])
        for det, nxt in zip(chain, chain[1:] + chain[:1]):
            put_u32(rewired, det, nxt if fault in cycles or nxt != chain[0]
                    else 0)
    for det, nxt in nexts:
        put_u32(rewired, det, nxt)
    rewired = restamp(rewired)
    proved, walked = outcome(by_proof, rewired), outcome(by_walker, rewired)
    if isinstance(proved, HealthMap):
        assert walked.snapshot() == proved.snapshot()
        assert fault_offsets(walked) == fault_offsets(proved)
    elif isinstance(walked, HealthMap):
        assert any(b.shm_offset < a.shm_offset for f in walked.faults
                   for a, b in zip(f.detections, f.detections[1:]))
        expected = reference_deserialize(rewired)
        assert walked.snapshot() == expected.snapshot()
        assert fault_offsets(walked) == fault_offsets(expected)
    else:
        assert proved == (WalkerCalled, "")


@pytest.mark.parametrize("seed", range(20))
def test_proof_accepts_serialized_maps(seed):
    rng = random.Random(seed)
    hm = random_health_map(rng)
    report_some(hm, rng)
    check_loads_by_proof(serialize(hm))


@pytest.mark.parametrize("seed", range(10))
def test_proof_accepts_append_chains(seed):
    rng = random.Random(seed)
    image = serialize(random_health_map(rng))
    with proof_only():
        for step in range(8):
            if step % 2:
                hm = deserialize(image)
                report_some(hm, rng)
            else:
                detector = rng.choice(sorted(
                    reference_deserialize(image).diag_resources))
                hm = _load(image, detector)
                report_detection(hm, DetectionReport(
                    detector, Severity(rng.randint(1, 3)), rng.randint(0, 7),
                    rng.randint(0, 3_000_000)))
            image = append_changes(image, hm)
    check_loads_by_proof(image)


def test_proof_accepts_a_synthesized_image_grown_by_injects():
    image = serialize(synthesize_map(8))
    rng = random.Random(8)
    detectors = sorted(reference_deserialize(image).diag_resources)
    t = 0
    with proof_only():
        for _ in range(30):
            detector = rng.choice(detectors)
            t += rng.choice((10, 2_000_000))
            hm = _load(image, detector)
            report_detection(hm, DetectionReport(
                detector, Severity(rng.randint(1, 3)), rng.randint(0, 3), t))
            image = append_changes(image, hm)
    check_loads_by_proof(image)


def test_backward_detection_link_loads_through_the_walker():
    hm = two_fault_map(detections_per_fault=3)
    hm.faults[1].detections.reverse()   # each link now points backward
    image = serialize(hm)
    with pytest.raises(WalkerCalled):
        by_proof(image)
    assert deserialize(image).snapshot() == reference_deserialize(
        image).snapshot()
    assert [d.timestamp for d in deserialize(image).faults[1].detections] \
        == [2, 1, 0]
    assert _check(image)[1] == [(1, Severity.LOW, Persistence.TRANSIENT)]


def proof_map() -> HealthMap:
    """Two modules, three faults of three detections each, laid out as
    three faults then nine detection slots in one gap."""
    hm = HealthMap()
    hm.add_module(1)
    hm.add_module(2)
    hm.add_diag_resource(10, 1)
    hm.add_diag_resource(20, 2)
    for module, classification in ((1, 1), (1, 2), (2, 1)):
        fault = hm.add_fault(module, Severity.LOW, Persistence.TRANSIENT,
                             classification)
        for t in range(3):
            hm.add_detection(fault, module * 10, t)
    return hm


def put_fault_in_slot(image: bytearray, hm: HealthMap) -> None:
    """Module 2's fault list now starts with a fault record written 5
    bytes into slot 7, so the gap before it is no whole number of slots."""
    inside = hm.detections[7].shm_offset + 5
    image[inside:inside + FAULT_SIZE] = bytes(8) + bytes([1, 1, 1, 0])
    put_u32(image, hm.modules[2].shm_offset + 16, inside)


def cut_off_cycle(image: bytearray, hm: HealthMap) -> None:
    """Fault 1 loses its list, and the list's last slot links back to its
    first: every slot is still named once, but by a backward link."""
    f1, d = hm.faults[1].shm_offset, offsets(hm.detections)
    put_u32(image, f1 + 4, 0)
    put_u32(image, d[5], d[3])


# name -> edit of proof_map()'s image; each breaks one rule of the proof
PROOF_REJECTS = {
    "counter 0": lambda image, hm: put_u32(
        image, hm.detections[4].shm_offset + 16, 0),
    "non-detector": lambda image, hm: put_u32(
        image, hm.detections[4].shm_offset + 4, hm.faults[0].shm_offset),
    "detector between diag slots": lambda image, hm: put_u32(
        image, hm.detections[4].shm_offset + 4,
        hm.detections[4].detector.shm_offset + 1),
    "faults do not tile": put_fault_in_slot,
    "cycle cut off from its fault": cut_off_cycle,
    "slot named twice": lambda image, hm: put_u32(
        image, hm.detections[2].shm_offset, hm.detections[4].shm_offset),
    "link to a fault": lambda image, hm: put_u32(
        image, hm.detections[2].shm_offset, hm.faults[1].shm_offset),
    "link to the image end": lambda image, hm: put_u32(
        image, hm.detections[8].shm_offset, len(image)),
    "head past its first slot": lambda image, hm: put_u32(
        image, hm.faults[1].shm_offset + 4, hm.detections[4].shm_offset),
    "two heads name one slot": lambda image, hm: put_u32(
        image, hm.faults[1].shm_offset + 4, hm.detections[0].shm_offset),
    "list cut off from its fault": lambda image, hm: put_u32(
        image, hm.faults[1].shm_offset + 4, 0),
}


def test_proof_map_layout():
    image, hm = loaded(proof_map())
    dyn = len(image) - 3 * FAULT_SIZE - 9 * DET_SIZE
    assert offsets(hm.faults) == [dyn, dyn + 12, dyn + 24]
    assert offsets(hm.detections) == list(range(dyn + 36, len(image), 25))
    check_loads_by_proof(bytes(image))


@pytest.mark.parametrize("case", sorted(PROOF_REJECTS))
def test_proof_rejects_and_walker_decides(case):
    image, hm = loaded(proof_map())
    PROOF_REJECTS[case](image, hm)
    image = restamp(image)
    with pytest.raises(WalkerCalled):
        by_proof(image)
    check_against_reference(image, 20)


def test_proof_rejects_gaps_that_are_not_whole_slots():
    # the first fault moves 13 bytes into the dynamic region, leaving gaps
    # of 13 and 12 bytes: one slot's worth in all, but no whole slot
    hm = HealthMap()
    hm.add_module(1)
    hm.add_diag_resource(10, 1)
    first = hm.add_fault(1, Severity.LOW, Persistence.TRANSIENT, 1)
    hm.add_detection(first, 10, 0)
    hm.add_fault(1, Severity.LOW, Persistence.TRANSIENT, 2)
    image, hm = loaded(hm)
    dyn = hm.faults[0].shm_offset
    assert offsets(hm.faults + hm.detections) == [dyn, dyn + 12, dyn + 24]
    det = image[dyn + 24:]
    image[dyn:] = det[:13] + image[dyn:dyn + 12] + det[13:] + image[
        dyn + 12:dyn + 24]
    put_u32(image, hm.modules[1].shm_offset + 16, dyn + 13)
    put_u32(image, dyn + 13, dyn + 37)      # the first fault's next fault
    put_u32(image, dyn + 17, dyn)           # and its first detection
    image = restamp(image)
    with pytest.raises(WalkerCalled):
        by_proof(image)
    check_against_reference(image, 10)


@given(st.binary(max_size=10 * DET_SIZE).map(
    lambda raw: raw[:len(raw) - len(raw) % DET_SIZE]), st.sampled_from(
        (0, 4, 16, 20)))
def test_column_reads_match_record_reads(slots, at):
    n = len(slots) // DET_SIZE
    words = [struct.unpack_from("<I", slots, DET_SIZE * j + at)[0]
             for j in range(n)]
    assert list(codec._words(slots, at, n)) == words
    assert [bool(b) for b in codec._fold(slots, at, DET_SIZE, n)] == [
        bool(w) for w in words]


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
    full, (part, worst, _counts) = deserialize(image), _check(image)
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
    rm_part = init_resource_map(part, maintenance, worst=worst)
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
    # module 1's faults are not built, nor its diag resource
    assert part.modules[1].faults == [] and part.faults == [
        part.modules[2].faults[0]]
    assert sorted(part.diag_resources) == [20]
    part.add_fault(1, Severity.LOW, Persistence.TRANSIENT, 9)
    with pytest.raises(AppendError, match="detections were not loaded"):
        append_changes(image, part)
    part = _load(image, 20)
    part.add_fault_with_detection(2, Severity.HIGH, Persistence.TRANSIENT, 9,
                                  20, 7)
    updated = append_changes(image, part)
    full = deserialize(image)
    full.add_fault_with_detection(2, Severity.HIGH, Persistence.TRANSIENT, 9,
                                  20, 7)
    assert updated == append_changes(image, full)


@pytest.mark.parametrize("call", ["serialize", "prune", "init_resource_map"])
@pytest.mark.parametrize("detector", [20, 99, None])
def test_partial_map_is_refused_where_every_list_is_read(call, detector):
    # a reader of every module's lists would take the part for the whole;
    # detector None is the check's map (`hm rm`, `hm affinity`), which
    # holds no module's lists
    hm = two_fault_map()
    hm.add_module(2, 1)
    hm.add_diag_resource(20, 2)
    image = serialize(hm)
    if detector is None:
        part, worst, _counts = _check(image)
    else:
        part = _load(image, detector)
    calls = {
        "serialize": lambda: serialize(part),
        "prune": lambda: prune(part),
        "init_resource_map": lambda: init_resource_map(part),
    }
    action = {"serialize": "serialize", "prune": "prune",
              "init_resource_map": "build a resource map of"}[call]
    with pytest.raises(FaultsNotBuiltError, match=(
            f"^cannot {action} a map loaded without all its faults$")):
        calls[call]()
    assert part.modules[1].faults == []
    if detector is not None:
        return
    # no fault is read or written where no list was built: the append of
    # the unchanged map writes the image back, a report finds no detector
    # and leaves the map as it was, and the triples give the resource map
    assert append_changes(image, part) == image
    before = part.snapshot()
    with pytest.raises(UnknownDetectorError,
                       match="^diag resource 10 not found$"):
        report_detection(part, DetectionReport(10, Severity.HIGH, 1, 5))
    assert part.snapshot() == before and part.faults == []
    assert append_changes(image, part) == image
    assert worst == [(1, Severity.LOW, Persistence.TRANSIENT)]
    assert (rm_state(init_resource_map(part, [1], worst=worst))
            == rm_state(init_resource_map(deserialize(image), [1])))


def test_partial_load_builds_a_detector_of_another_module_once():
    # a detection may name another module's diag resource: it is built
    # from its record, once, and its module's lists stay unbuilt
    hm = HealthMap()
    for mid in (1, 2):
        hm.add_module(mid)
    hm.add_diag_resource(10, 1)
    hm.add_diag_resource(20, 2)
    fault = hm.add_fault(2, Severity.LOW, Persistence.TRANSIENT, 1)
    for t in (1, 5_000_000):
        hm.add_detection(fault, 10, t)
    image = serialize(hm)
    part = _load(image, 20)
    first, second = part.modules[2].faults[0].detections
    assert first.detector is second.detector is part.diag_resources[10]
    assert first.detector.owner is part.modules[1]
    assert part.modules[1].diag_resources == []
    report_detection(part, DetectionReport(20, Severity.HIGH, 1, 9))
    full = deserialize(image)
    report_detection(full, DetectionReport(20, Severity.HIGH, 1, 9))
    assert append_changes(image, part) == append_changes(image, full)


# -- the diag resource check, and the check alone ----------------------------
# Every load checks the diag resource section with one walk, `_read_diags`,
# which builds no record. `_check(image)` (`hm rm`, `hm affinity`) then
# builds no diag resource and no fault, and keeps each faulty module's worst
# values.

def check_lean_load(image: bytes) -> None:
    """`_check` of the valid `image` gives the reference reader's modules,
    dependencies, triples and resource map, and `deserialize` of it the
    reference reader's map."""
    expected = reference_deserialize(image)
    got, worst, _counts = _check(image)
    assert resource_view(got) == resource_view(expected)
    assert worst == list(worst_faults(expected.modules.values()))
    assert rm_state(init_resource_map(got, worst=worst)) == \
        oracle_resource_map(expected)
    whole = deserialize(image)
    assert whole.snapshot() == expected.snapshot()
    assert fault_offsets(whole) == fault_offsets(expected)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**16), appends=st.integers(0, 3))
def test_check_matches_reference_on_canonical_images(seed, appends):
    rng = random.Random(seed)
    image = serialize(random_health_map(rng))
    for _ in range(appends):
        hm = deserialize(image)
        report_some(hm, rng)
        image = append_changes(image, hm)
    check_lean_load(image)


def test_check_matches_reference_on_compiled_and_synthesized_images():
    check_lean_load(serialize(synthesize_map(8)))
    for name in ("board.xml", "cpu.xml"):
        check_lean_load(compile_xml((DEMO_DATA / name).read_text())[0])


def test_interleaved_diag_lists_load_through_the_walker():
    # serialize lays diag resources out in insertion order, so a module
    # whose resources were added between another's holds no single run
    hm = HealthMap()
    for mid in (1, 2):
        hm.add_module(mid)
    for rid, owner in ((10, 1), (20, 2), (11, 1)):
        hm.add_diag_resource(rid, owner)
    hm.add_fault_with_detection(1, Severity.HIGH, Persistence.TRANSIENT, 3,
                                11, 5)
    image = serialize(hm)
    (lean, worst, _counts), expected = _check(image), reference_deserialize(
        image)
    assert deserialize(image).snapshot() == expected.snapshot()
    assert resource_view(lean) == resource_view(expected)
    assert lean.diag_resources == {} and lean.modules[1].diag_resources == []
    assert worst == [(1, Severity.HIGH, Persistence.TRANSIENT)]
    # the inject load walks the owner's list, not a run of the section
    for detector in (10, 11, 20):
        check_inject_load(_load(image, detector), expected, detector)
    part = _load(image, 11)
    assert [r.id for r in part.modules[1].diag_resources] == [10, 11]
    report_detection(part, DetectionReport(10, Severity.LOW, 3, 7))
    full = deserialize(image)
    report_detection(full, DetectionReport(10, Severity.LOW, 3, 7))
    assert append_changes(image, part) == append_changes(image, full)


@pytest.mark.parametrize("detector", [None, 10, 20])
def test_diag_head_past_the_section_is_out_of_bounds(detector):
    # a first-diag link past the section's end, a whole number of records
    # after the list before it, names the section's bounds
    hm = HealthMap()
    for mid, rid in ((1, 10), (2, 20)):
        hm.add_module(mid)
        hm.add_diag_resource(rid, mid)
    image = serialize(hm)
    end = hm.diag_resources[20].shm_offset + DIAG_SIZE
    mutated = bytearray(image)
    put_u32(mutated, hm.modules[2].shm_offset + 8, end + DIAG_SIZE)
    mutated = restamp(mutated)
    expected = outcome(reference_deserialize, mutated)
    assert expected == (OffsetOutOfBoundsError, (
        f"diag resource offset {end + DIAG_SIZE} outside section "
        f"[{end - 2 * DIAG_SIZE}, {end})"))
    load = _check if detector is None else (lambda data: _load(data,
                                                               detector))
    assert outcome(load, mutated) == expected


def mutated_diag_image(data, image: bytes, hm: HealthMap) -> bytes:
    """`image` after one to four drawn edits of the diag resource section
    and the modules' first-diag links, with both CRCs re-stamped."""
    diags = offsets(hm.diag_resources.values())
    modules = offsets(hm.modules.values())
    ids = sorted(hm.diag_resources) + sorted(hm.modules)
    mutated = bytearray(image)
    for kind in data.draw(st.lists(st.sampled_from(
            ("word", "head", "flip")), min_size=1, max_size=4),
            label="edits"):
        if kind == "word" and diags:
            # a diag record's id, owner or next word
            at = data.draw(st.sampled_from(diags)) + data.draw(
                st.sampled_from((0, 4, 8)))
            put_u32(mutated, at, data.draw(st.one_of(
                st.just(0), st.sampled_from(diags + modules + ids),
                st.integers(0, len(image) + 64))))
        elif kind == "head":
            put_u32(mutated, data.draw(st.sampled_from(modules)) + 8,
                    data.draw(st.one_of(st.just(0),
                                        st.sampled_from(diags or [0]),
                                        st.integers(0, len(image) + 64))))
        elif diags:
            start, end = diags[0], diags[-1] + DIAG_SIZE
            bit = data.draw(st.integers(8 * start, 8 * end - 1))
            mutated[bit // 8] ^= 1 << (bit % 8)
    return restamp(mutated)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(base=st.integers(0, 4), data=st.data())
def test_diag_edits_load_as_the_reference_reader_does(base, data):
    # `_check`, `_load` with a drawn detector and `deserialize` each fail
    # with the reference reader's error or build what its map holds
    image, hm = mutation_bases()[base]
    mutated = mutated_diag_image(data, image, hm)
    check_against_reference(mutated, data.draw(st.sampled_from(sorted(
        hm.diag_resources)), label="detector"))


def test_faults_and_detections_are_in_offset_order_after_every_load():
    # module 1's fault list is rewired to run backward, and module 2's
    # fault lies before both, so the lists in module order are not in
    # offset order and only the build's one sort puts the map's there
    hm = HealthMap()
    for mid in (1, 2):
        hm.add_module(mid)
        hm.add_diag_resource(mid * 10, mid)
    for mid, classification in ((2, 1), (1, 1), (1, 2)):
        fault = hm.add_fault(mid, Severity.LOW, Persistence.TRANSIENT,
                             classification)
        for t in range(2):
            hm.add_detection(fault, mid * 10, t)
    image, hm = loaded(hm)
    first, second = offsets(hm.modules[1].faults)
    put_u32(image, hm.modules[1].shm_offset + 16, second)
    put_u32(image, second, first)
    put_u32(image, first, 0)
    image = restamp(image)
    expected = reference_deserialize(image)
    assert offsets(expected.modules[1].faults) == [second, first]
    check_against_reference(image, 10)
    loads = {"whole": (deserialize, 3, 6),
             "one owner": (lambda data: _load(data, 10), 2, 4),
             "unknown detector": (lambda data: _load(data, 99), 0, 0),
             "check": (lambda data: _check(data)[0], 0, 0)}
    for name, (load, n_faults, n_dets) in loads.items():
        got = load(image)
        faults = [f for m in got.modules.values() for f in m.faults]
        dets = [d for f in faults for d in f.detections]
        assert (len(got.faults), len(got.detections)) == (n_faults,
                                                          n_dets), name
        assert got.faults == sorted(faults, key=lambda f: f.shm_offset)
        assert got.detections == sorted(dets, key=lambda d: d.shm_offset)
        if n_faults:
            assert offsets(faults) != offsets(got.faults), name
            assert offsets(dets) != offsets(got.detections), name
            assert offsets(got.modules[1].faults) == [second, first]
