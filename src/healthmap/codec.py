"""Bit-exact serializer/deserializer for the relocatable health map image.

Layout (all little-endian, no padding):

    header (32 B) | module records | diag resource records |
    dependency records | fault records | detection records

Cross-record links are absolute byte offsets from the start of the image;
offset 0 (inside the header) encodes a null link. Modules, diag resources
and dependencies form the constant part written once at compile time.
Faults and detections form the dynamic part: updates append records at the
end of the image and patch only list-tail link words and detection
counter/flag words in place, so non-volatile rewrites stay minimal. After
appends the dynamic region may interleave fault and detection records;
readers follow the linked lists and trust the header counts, never section
contiguity.

One writer lays out module, fault and detection records: it packs each
at its own `shm_offset`, with links taken from the records' offsets, then
stamps the header and CRCs. `serialize` first gives every record its
canonical offset (modules, diag resources, dependencies, then faults and
detections in map order), packs the diag resource and dependency records
itself and hands every other record to that writer. The append path
(`append_changes`) gives only the new faults and detections offsets past
the old end, in creation order, copies the old image into a buffer with a
zeroed tail, and hands the writer the records the load built: every
module, and the faults and detections of each module whose detections
were built. Repacking an unchanged record writes the bytes it already
holds, so old bytes change only in the patchable words: a module's
first-fault link, a fault's links, severity and persistence, and a
detection's next link, counter and flags. Every record handed over is
repacked, rather than only records known to be dirty, so a field edited
directly on a loaded record is never dropped silently; a detection that
was never built cannot have changed. A fault record holds its
first-detection link, so a fault is handed over only when its detections
were built, and the writer refuses a new fault or detection in any other
module. The new header counts are the old header's plus the new records.

Loading runs in two passes. The check pass runs every header, checksum,
bounds, alignment, cycle, reuse, overlap, enum and count check and builds
the modules, diag resources, dependencies and faults; of a detection it
reads only the next and detector links. The build pass then creates the
detections of the modules a caller reads, walking again lists the check
pass proved valid. `deserialize` builds every detection. The CLI's
private `_load` builds those of the module that owns the reporting
detector (`hm inject`) or none (`hm rm`, `hm affinity`), and such a map
goes back to disk only through `append_changes`.

No two records overlap: every record the lists reach occupies its own byte
range. The check pass verifies this for the dynamic region in linear time,
with one byte of marks per image byte: the walk marks the start of each
record it reaches with the record's size. Exact reuse (a detection linked
from two lists, or a fault and a detection at one offset) is a link to a
marked byte, caught during the walk, so the walk visits each offset at
most once; only then does it walk the current list again, to tell a
detection list's cycle from reuse. After the walk one scan steps from the
start of the dynamic region by the size marked at each step. When it lands
exactly on the image's end and the walk met the header's counts, the
records tile the region and none overlap. Otherwise a sweep over the marks
in offset order names the first overlap, and with none the count check
fails.

Record layouts:

    Module (25 B):       id u32 | parentOff u32 | firstDiagOff u32 |
                         firstDepOff u32 | firstFaultOff u32 |
                         criticality u8 | nextModuleOff u32
    DiagResource (13 B): id u32 | ownerModuleOff u32 | nextOff u32 | kind u8
    Dependency (9 B):    dependentModuleOff u32 | nextOff u32 | severity u8
    Fault (12 B):        nextOff u32 | firstDetectionOff u32 | severity u8 |
                         persistence u8 | classification u8 | reserved u8
    Detection (25 B):    nextOff u32 | detectorOff u32 | timestamp u64 |
                         counter u32 | payload u32 | flags u8

Header (32 B): magic "SHM1" | version u16 | flags u16 | totalLength u32 |
M u16 | R u16 | D u16 | F u16 | FD u32 | bodyCrc u32 (over
[32, totalLength)) | headerCrc u32 (over [0, 28)).
"""

from __future__ import annotations

import struct
import zlib
from itertools import compress
from operator import attrgetter
from typing import Iterable, Optional

from .errors import (
    AppendError,
    BadLinkError,
    BadMagicError,
    BadVersionError,
    BodyCrcMismatchError,
    HeaderCrcMismatchError,
    LengthMismatchError,
    LinkCycleError,
    OffsetMisalignedError,
    OffsetOutOfBoundsError,
    RecordCountError,
    ShmError,
    StructureInvalidError,
)
from .model import (
    PERSISTENCES,
    SEVERITIES,
    Dependency,
    DiagResource,
    Fault,
    FaultDetection,
    HealthMap,
    Module,
)

MAGIC = b"SHM1"
VERSION = 1

HEADER = struct.Struct("<4sHHIHHHHIII")
MODULE_REC = struct.Struct("<IIIIIBI")
DIAG_REC = struct.Struct("<IIIB")
DEP_REC = struct.Struct("<IIB")
FAULT_REC = struct.Struct("<IIBBBB")
DET_REC = struct.Struct("<IIQIIB")
_LINK = struct.Struct("<I")         # a fault's first-detection link
_LINKS = struct.Struct("<II")       # a detection's next and detector links
_COUNTS = struct.Struct("<HHHHI")   # the header's M, R, D, F, FD
_COUNTS_AT = 12
_offset = attrgetter("shm_offset")

HEADER_SIZE = HEADER.size          # 32
MODULE_SIZE = MODULE_REC.size      # 25
DIAG_SIZE = DIAG_REC.size          # 13
DEP_SIZE = DEP_REC.size            # 9
FAULT_SIZE = FAULT_REC.size        # 12
DET_SIZE = DET_REC.size            # 25


def crc32(data: bytes) -> int:
    """Reflected CRC-32 (poly 0xEDB88320, init/final-xor 0xFFFFFFFF)."""
    return zlib.crc32(data) & 0xFFFFFFFF


def image_length(m: int, r: int, d: int, f: int, fd: int) -> int:
    return (HEADER_SIZE + MODULE_SIZE * m + DIAG_SIZE * r + DEP_SIZE * d
            + FAULT_SIZE * f + DET_SIZE * fd)


# --------------------------------------------------------------------------
# serialize


def _next_links(records: list) -> list[int]:
    """The offset of each record's successor in `records`, 0 after the last."""
    links = [rec.shm_offset for rec in records[1:]]
    links.append(0)
    return links


def _write_linked(buf: bytearray, modules: list[Module],
                  owners: Iterable[Module],
                  counts: tuple[int, int, int, int, int]) -> bytes:
    """Pack each of `modules`, and the fault list of each of `owners` with
    each fault's detection list, into `buf` at the records' own
    `shm_offset`s, with links taken from the records' offsets, then stamp
    the header with `counts` and both CRCs. `buf` is the whole image, and
    every record packed already has its offset."""
    total = len(buf)
    pack_module, pack_fault, pack_det = (MODULE_REC.pack_into,
                                         FAULT_REC.pack_into,
                                         DET_REC.pack_into)
    for mod, nxt in zip(modules, _next_links(modules)):
        parent, diags, deps, owned = (mod.parent, mod.diag_resources,
                                      mod.dependencies, mod.faults)
        pack_module(buf, mod.shm_offset, mod.id,
                    parent.shm_offset if parent else 0,
                    diags[0].shm_offset if diags else 0,
                    deps[0].shm_offset if deps else 0,
                    owned[0].shm_offset if owned else 0,
                    mod.criticality, nxt)
    for mod in owners:
        owned = mod.faults
        for fault, nxt in zip(owned, _next_links(owned)):
            dets = fault.detections
            pack_fault(buf, fault.shm_offset, nxt,
                       dets[0].shm_offset if dets else 0, fault.severity,
                       fault.persistence, fault.classification & 0xFF, 0)
            for det, det_nxt in zip(dets, _next_links(dets)):
                pack_det(buf, det.shm_offset, det_nxt, det.detector.shm_offset,
                         det.timestamp, det.counter, det.payload,
                         det.flags & 0xFF)

    assert total == image_length(*counts)
    body_crc = crc32(memoryview(buf)[HEADER_SIZE:])
    buf[:HEADER_SIZE] = _pack_header(total, *counts, body_crc)
    return bytes(buf)


def _check_counts(m: int, r: int, d: int, f: int,
                  fd: int) -> tuple[int, int, int, int, int]:
    if max(m, r, d, f) > 0xFFFF or fd > 0xFFFFFFFF:
        raise StructureInvalidError(
            [f"entity counts exceed header field ranges "
             f"(M={m} R={r} D={d} F={f} FD={fd})"])
    return m, r, d, f, fd


def serialize(hm: HealthMap) -> bytes:
    """Produce the contiguous relocatable byte image of the map.

    Every record first takes its canonical offset (modules, diag
    resources, dependencies, `hm.faults`, `hm.detections`), so after
    `serialize` returns the map's records hold their offsets in the image
    it returned and `append_changes(serialize(hm), hm)` is valid. A
    `serialize` that raises leaves every offset as it was.
    """
    if hm._built is not None:
        raise AppendError("cannot serialize a map loaded without all its "
                          "detections")
    violations = hm.validate_structure()
    if violations:
        raise StructureInvalidError(violations)
    counts = _check_counts(len(hm.modules), len(hm.diag_resources),
                           len(hm.dependencies), len(hm.faults),
                           len(hm.detections))
    sections = ((hm.modules.values(), MODULE_SIZE),
                (hm.diag_resources.values(), DIAG_SIZE),
                (hm.dependencies, DEP_SIZE), (hm.faults, FAULT_SIZE),
                (hm.detections, DET_SIZE))
    records = [rec for group, _size in sections for rec in group]
    old = [rec.shm_offset for rec in records]
    pos = HEADER_SIZE
    for group, size in sections:
        for rec in group:
            rec.shm_offset = pos
            pos += size
    try:
        buf = bytearray(image_length(*counts))
        pack_diag, pack_dep = DIAG_REC.pack_into, DEP_REC.pack_into
        for mod in hm.modules.values():
            diags, deps = mod.diag_resources, mod.dependencies
            for res, nxt in zip(diags, _next_links(diags)):
                pack_diag(buf, res.shm_offset, res.id, res.owner.shm_offset,
                          nxt, res.kind & 0xFF)
            for dep, nxt in zip(deps, _next_links(deps)):
                pack_dep(buf, dep.shm_offset, dep.dependent.shm_offset, nxt,
                         dep.severity)
        modules = list(hm.modules.values())
        return _write_linked(buf, modules, modules, counts)
    except BaseException:
        for rec, offset in zip(records, old):
            rec.shm_offset = offset
        raise


def _pack_header(total, m, r, d, f, fd, body_crc) -> bytearray:
    head = bytearray(HEADER.pack(MAGIC, VERSION, 0, total, m, r, d, f, fd,
                                 body_crc, 0))
    head[28:32] = struct.pack("<I", crc32(bytes(head[:28])))
    return head


# --------------------------------------------------------------------------
# deserialize


class _Reader:
    """Parses and cross-checks one image in two passes; hostile input
    tolerated.

    `check` runs every check of the image, in image order, and builds the
    modules, diag resources, dependencies and faults; of each detection it
    reads only the two link words, so it builds no detection object.
    `build` then creates the detections of chosen modules by walking again
    the lists `check` proved valid, so it cannot fail.

    The walks bind hot names to locals, build records positionally and map
    enum bytes through the model's byte->member tables. A link that fails a
    fast inline check goes to a helper that raises the specific error. A
    diag resource or dependency list is walked to its end before the first
    error of one of its records is raised, so a bounds, alignment or cycle
    error of a list comes before an owner, duplicate-id, self-dependency or
    enum error of the same list.
    """

    def __init__(self, data: bytes) -> None:
        self.data = bytes(data)
        self.total = len(self.data)

    def check(self) -> HealthMap:
        """The image's map without detections; raises on the first
        error."""
        m, r, d, f, fd = self._check_header()
        self.mod_base = HEADER_SIZE
        self.diag_base = self.mod_base + MODULE_SIZE * m
        self.dep_base = self.diag_base + DIAG_SIZE * r
        self.dyn_base = self.dep_base + DEP_SIZE * d
        self.counts = (m, r, d, f, fd)

        raw_modules = self._walk_modules(m)

        hm = HealthMap()
        modules = hm.modules
        by_off: dict[int, Module] = {}
        for o, (mid, _parent, _diag, _dep, _fault, crit,
                _next) in raw_modules.items():
            try:
                criticality = SEVERITIES[crit]
            except IndexError:
                raise _invalid("severity", crit) from None
            if mid in modules:
                raise BadLinkError(f"duplicate module id {mid}")
            modules[mid] = by_off[o] = Module(mid, None, criticality,
                                              [], [], [], o)
        # wire parents
        for o, fields in raw_modules.items():
            if fields[1]:
                by_off[o].parent = self._module_at(by_off, fields[1])

        self.diag_by_off = self._read_diags(hm, by_off, raw_modules, r)
        self._read_deps(hm, by_off, raw_modules, d)
        self._check_dynamic(hm, by_off, raw_modules, f, fd)
        return hm

    def build(self, modules: Iterable[Module]) -> list[FaultDetection]:
        """Create the detections of every fault of `modules`, appending
        each to its fault's list; returns them in offset order."""
        data, detectors = self.data, self.diag_by_off
        unpack_det, unpack_link = DET_REC.unpack_from, _LINK.unpack_from
        built: list[FaultDetection] = []
        for module in modules:
            for fault in module.faults:
                dets = fault.detections
                (cur,) = unpack_link(data, fault.shm_offset + 4)
                while cur:
                    nxt, det_off, ts, counter, payload, flags = unpack_det(
                        data, cur)
                    dets.append(FaultDetection(detectors[det_off], ts,
                                               counter, payload, flags, cur))
                    cur = nxt
                built += dets
        built.sort(key=_offset)
        return built

    # -- header ----------------------------------------------------------

    def _check_header(self):
        if self.total < HEADER_SIZE:
            raise LengthMismatchError(
                f"image shorter than header ({self.total} bytes)")
        (magic, version, _flags, total, m, r, d, f, fd, body_crc,
         header_crc) = HEADER.unpack_from(self.data, 0)
        if magic != MAGIC:
            raise BadMagicError(f"bad magic {magic!r}")
        if version != VERSION:
            raise BadVersionError(f"unsupported version {version}")
        if crc32(self.data[:28]) != header_crc:
            raise HeaderCrcMismatchError("header checksum mismatch")
        if total != self.total:
            raise LengthMismatchError(
                f"header claims {total} bytes, image has {self.total}")
        if total != image_length(m, r, d, f, fd):
            raise LengthMismatchError(
                "total length inconsistent with entity counts")
        if crc32(memoryview(self.data)[HEADER_SIZE:]) != body_crc:
            raise BodyCrcMismatchError("body checksum mismatch")
        return m, r, d, f, fd

    # -- link plumbing -----------------------------------------------------

    def _section_offset(self, off: int, base: int, size: int, count: int,
                        what: str) -> int:
        end = base + size * count
        if not (base <= off < end) or off + size > self.total:
            raise OffsetOutOfBoundsError(
                f"{what} offset {off} outside section [{base}, {end})")
        if (off - base) % size:
            raise OffsetMisalignedError(
                f"{what} offset {off} not on a {size}-byte record boundary")
        return off

    def _require_module(self, off: int) -> int:
        m = self.counts[0]
        return self._section_offset(off, self.mod_base, MODULE_SIZE, m,
                                    "module")

    def _module_at(self, by_off: dict[int, Module], off: int) -> Module:
        module = by_off.get(off)
        if module is None:
            # the module walk claimed every module slot, so this raises
            module = by_off[self._require_module(off)]
        return module

    def _walk_modules(self, m: int) -> dict[int, tuple]:
        """Module record offset -> unpacked fields, in list order."""
        raw: dict[int, tuple] = {}
        data, unpack = self.data, MODULE_REC.unpack_from
        base = self.mod_base
        end = base + MODULE_SIZE * m
        cur = base if m else 0
        while cur:
            if not base <= cur < end or (cur - base) % MODULE_SIZE:
                self._require_module(cur)
            if cur in raw:
                raise LinkCycleError(f"module list revisits offset {cur}")
            fields = raw[cur] = unpack(data, cur)
            cur = fields[6]
        if len(raw) != m:
            raise RecordCountError(
                f"module list has {len(raw)} records, header says {m}")
        return raw

    def _read_diags(self, hm, by_off, raw_modules, r):
        """Fill the diag resources; returns them keyed by offset."""
        data, unpack = self.data, DIAG_REC.unpack_from
        base = self.diag_base
        end = base + DIAG_SIZE * r
        by_id: dict[int, DiagResource] = {}
        # offset -> resource, which is also the set of offsets walked
        parsed: dict[int, DiagResource] = {}
        for mod_off, fields in raw_modules.items():
            owner = by_off[mod_off]
            owned = owner.diag_resources
            error = None     # a record's error waits for the list's links
            cur = fields[2]
            while cur:
                if not base <= cur < end or (cur - base) % DIAG_SIZE:
                    self._section_offset(cur, base, DIAG_SIZE, r,
                                         "diag resource")
                if cur in parsed:
                    raise LinkCycleError(
                        f"diag resource list revisits offset {cur}")
                rid, owner_off, nxt, kind = unpack(data, cur)
                if (owner_off != mod_off or rid in by_id) and error is None:
                    error = BadLinkError(
                        f"diag resource at {cur} owner link mismatch"
                        if owner_off != mod_off
                        else f"duplicate diag resource id {rid}")
                res = DiagResource(rid, owner, kind, cur)
                owned.append(res)
                by_id[rid] = parsed[cur] = res
                cur = nxt
            if error is not None:
                raise error
        if len(parsed) != r:
            raise RecordCountError(
                f"walked {len(parsed)} diag resources, header says {r}")
        hm.diag_resources = {parsed[o].id: parsed[o] for o in sorted(parsed)}
        return parsed

    def _read_deps(self, hm, by_off, raw_modules, d):
        data, unpack = self.data, DEP_REC.unpack_from
        base = self.dep_base
        end = base + DEP_SIZE * d
        severities = SEVERITIES
        n_severities = len(severities)
        # offset -> dependency (None for a bad record), which is also the
        # set of offsets walked
        parsed: dict[int, Dependency | None] = {}
        for mod_off, fields in raw_modules.items():
            provider = by_off[mod_off]
            provided = provider.dependencies
            error = None     # a record's error waits for the list's links
            cur = fields[3]
            while cur:
                if not base <= cur < end or (cur - base) % DEP_SIZE:
                    self._section_offset(cur, base, DEP_SIZE, d, "dependency")
                if cur in parsed:
                    raise LinkCycleError(
                        f"dependency list revisits offset {cur}")
                dep_off, nxt, sev = unpack(data, cur)
                dependent = by_off.get(dep_off)
                if (dependent is None or dependent is provider
                        or sev >= n_severities):
                    parsed[cur] = None
                    if error is None:
                        error = self._dependency_error(by_off, cur, dep_off,
                                                       provider, sev)
                else:
                    dep = parsed[cur] = Dependency(provider, dependent,
                                                   severities[sev], cur)
                    provided.append(dep)
                cur = nxt
            if error is not None:
                raise error
        if len(parsed) != d:
            raise RecordCountError(
                f"walked {len(parsed)} dependencies, header says {d}")
        hm.dependencies = [parsed[o] for o in sorted(parsed)]

    def _dependency_error(self, by_off, off, dep_off, provider,
                          sev) -> ShmError:
        """The first error of the dependency record at `off`: its dependent
        link, then self-dependency, then its severity byte."""
        try:
            dependent = self._module_at(by_off, dep_off)
        except ShmError as exc:
            return exc
        if dependent is provider:
            return BadLinkError(f"self-dependency at offset {off}")
        return _invalid("severity", sev)

    def _require_dynamic(self, off: int, size: int, what: str) -> None:
        if off < self.dyn_base or off + size > self.total:
            raise OffsetOutOfBoundsError(
                f"{what} offset {off} outside dynamic region")

    def _reject_fault(self, off: int, marks: bytearray) -> None:
        """Raise for a fault link that failed the inline checks."""
        self._require_dynamic(off, FAULT_SIZE, "fault")
        if marks[off] == FAULT_SIZE:
            raise LinkCycleError(f"fault list revisits offset {off}")
        raise BadLinkError(f"fault at {off} reuses a claimed record")

    def _reject_detection(self, off: int, marks: bytearray,
                          fault_off: int) -> None:
        """Raise for a detection link that failed the inline checks;
        `fault_off` is the offset of the fault whose list is walked."""
        self._require_dynamic(off, DET_SIZE, "detection")
        if marks[off] == DET_SIZE:
            # Walk this list again from its head. Its records before `off`
            # were unmarked when walked, and an earlier list's records lead
            # to that list's end, so the walk ends; it meets `off` twice
            # only when `off` is in this list.
            data, unpack_link = self.data, _LINK.unpack_from
            met = 0
            (cur,) = unpack_link(data, fault_off + 4)
            while cur:
                if cur == off:
                    met += 1
                    if met == 2:
                        raise LinkCycleError(
                            f"detection list revisits offset {off}")
                (cur,) = unpack_link(data, cur)
        raise BadLinkError(f"detection at {off} reuses a claimed record")

    def _check_dynamic(self, hm, by_off, raw_modules, f, fd):
        """Build the faults and check every fault and detection link."""
        data, total, dyn_base = self.data, self.total, self.dyn_base
        detectors = self.diag_by_off
        unpack_fault, unpack_links = FAULT_REC.unpack_from, _LINKS.unpack_from
        severities, persistences = SEVERITIES, PERSISTENCES
        fault_size, det_size = FAULT_SIZE, DET_SIZE
        last_fault, last_det = total - FAULT_SIZE, total - DET_SIZE
        # the size of each record walked, at its start; a fault met again
        # is a list cycle, and so is a detection met again in one list.
        # The byte at `total` stays 0 and ends the tiling scan.
        marks = bytearray(total + 1)
        faults: list[Fault] = []
        walked_dets = 0
        for mod_off, fields in raw_modules.items():
            owner = by_off[mod_off]
            owned = owner.faults
            cur = fields[4]
            while cur:
                if not dyn_base <= cur <= last_fault or marks[cur]:
                    self._reject_fault(cur, marks)
                nxt, dcur, sev, pers, cls, _resv = unpack_fault(data, cur)
                try:
                    fault = Fault(owner, severities[sev], persistences[pers],
                                  cls, [], cur)
                except IndexError:
                    if pers >= len(persistences):
                        raise _invalid("persistence", pers) from None
                    raise _invalid("severity", sev) from None
                owned.append(fault)
                faults.append(fault)
                marks[cur] = fault_size
                # follow this fault's detection list
                while dcur:
                    if not dyn_base <= dcur <= last_det or marks[dcur]:
                        self._reject_detection(dcur, marks, cur)
                    dnxt, det_off = unpack_links(data, dcur)
                    if det_off not in detectors:
                        raise BadLinkError(
                            f"detection at {dcur} references non-detector "
                            f"offset {det_off}")
                    marks[dcur] = det_size
                    walked_dets += 1
                    dcur = dnxt
                cur = nxt
        # With the header's counts walked, the records fill the dynamic
        # region to its last byte; a scan that steps from its start by each
        # mark it meets and lands on its end has then passed through every
        # record, so no two overlap. Else a sweep over the marks, in offset
        # order, names the first overlap, if any.
        pos = dyn_base
        while step := marks[pos]:
            pos += step
        if pos != total or len(faults) != f or walked_dets != fd:
            end = prev = 0
            for off in compress(range(total), marks):
                if off < end:
                    raise BadLinkError(
                        f"record at {off} overlaps record at {prev}")
                end, prev = off + marks[off], off
            if len(faults) != f:
                raise RecordCountError(
                    f"walked {len(faults)} faults, header says {f}")
            if walked_dets != fd:
                raise RecordCountError(
                    f"walked {walked_dets} detections, header says {fd}")
        faults.sort(key=_offset)
        hm.faults = faults
        hm.reindex_faults()


def _invalid(what: str, value: int) -> BadLinkError:
    return BadLinkError(f"invalid {what} value {value}")


def deserialize(data: bytes) -> HealthMap:
    """Parse and fully validate an image; raises ShmError subclasses."""
    reader = _Reader(data)
    hm = reader.check()
    hm.detections = reader.build(hm.modules.values())
    return hm


def _load(data: bytes, detector: Optional[int] = None) -> HealthMap:
    """`deserialize` for a command that reads few detections: the image
    passes every check, but only the module that owns diag resource
    `detector` (none if it is None or unknown) gets its detections.

    The map may grow and change through that module only: `append_changes`
    writes back no fault of another module, and `serialize` refuses the
    map.
    """
    reader = _Reader(data)
    hm = reader.check()
    res = hm.diag_resources.get(detector)
    owners = [] if res is None else [res.owner]
    hm.detections = reader.build(owners)
    hm._built = {module.id for module in owners}
    return hm


def validate_image(data: bytes) -> HealthMap:
    """Deserialize and additionally run the structural validator."""
    hm = deserialize(data)
    violations = hm.validate_structure()
    if violations:
        raise StructureInvalidError(violations)
    return hm


# --------------------------------------------------------------------------
# append-only update


def append_changes(image: bytes, hm: HealthMap) -> bytes:
    """Write back a map that was loaded from `image` and then grown.

    Only fault/detection additions plus in-place counter/flag/severity/
    persistence adjustments are representable; modules, diag resources and
    dependencies must be untouched. New records get offsets past the old
    end in creation order. Then every module, and every fault and
    detection of each module whose detections the load built (every module
    after `deserialize`), is repacked at its own offset, so a field edited
    directly on one of them is written back too. The header counts are the
    old ones plus the new records. Old record
    bytes change only where list tails were spliced or detection
    counters/flags (or fault severity/persistence after reclassification)
    moved.
    """
    old_total = len(image)
    for m in hm.modules.values():
        if m.shm_offset is None:
            raise AppendError("cannot append new modules to an image")
    for r in hm.diag_resources.values():
        if r.shm_offset is None:
            raise AppendError("cannot append new diag resources to an image")
    for d in hm.dependencies:
        if d.shm_offset is None:
            raise AppendError("cannot append new dependencies to an image")

    modules = list(hm.modules.values())
    new_faults = [f for f in hm.faults if f.shm_offset is None]
    new_dets = [d for d in hm.detections if d.shm_offset is None]
    if hm._built is None:
        owners = modules
    else:
        owners = [hm.modules[mid] for mid in hm._built]
        if (any(f.owner.id not in hm._built for f in new_faults)
                or len(new_dets) != sum(d.shm_offset is None
                                        for mod in owners for f in mod.faults
                                        for d in f.detections)):
            raise AppendError("cannot append to a module whose detections "
                              "were not loaded")
    pos = old_total
    for rec in sorted(new_faults + new_dets, key=attrgetter("seq")):
        rec.shm_offset = pos
        pos += FAULT_SIZE if isinstance(rec, Fault) else DET_SIZE

    m, r, d, f, fd = _COUNTS.unpack_from(image, _COUNTS_AT)
    counts = _check_counts(m, r, d, f + len(new_faults), fd + len(new_dets))
    buf = bytearray(pos)
    buf[:old_total] = image
    return _write_linked(buf, modules, owners, counts)
