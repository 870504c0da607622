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

One writer lays out every module, fault and detection record: it packs
each at its own `shm_offset`, with links taken from the records' offsets,
then stamps the header and CRCs. `serialize` first gives every record its
canonical offset (modules, diag resources, dependencies, then faults and
detections in map order), packs the diag resource and dependency records
itself and hands the rest to that writer. The append path
(`append_changes`) gives only the new faults and detections offsets past
the old end, in creation order, copies the old image into a buffer with a
zeroed tail, and calls the same writer. Repacking an unchanged record
writes the bytes it already holds, so old bytes change only in the
patchable words: a module's first-fault link, a fault's links, severity and
persistence, and a detection's next link, counter and flags. Repacking
everything, rather than tracking dirty records, keeps a field edited
directly on a loaded record from being dropped silently.

No two records overlap: every record the lists reach occupies its own byte
range. Loading checks this for the dynamic region in linear time. Exact
reuse (a detection linked from two lists, or a fault and a detection at one
offset) is caught during the walk by a lookup in the set of claimed
offsets, so the walk visits each offset at most once. Partial overlap is
caught after the walk by one sort-and-sweep over the claimed
(offset, size) pairs.

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


def _write_linked(buf: bytearray, hm: HealthMap) -> bytes:
    """Pack every module, fault and detection record of `hm` into `buf` at
    its own `shm_offset`, with links taken from the records' offsets, then
    stamp the header and both CRCs. `buf` is the whole image, and every
    record already has its offset."""
    total = len(buf)
    pack_module, pack_fault, pack_det = (MODULE_REC.pack_into,
                                         FAULT_REC.pack_into,
                                         DET_REC.pack_into)
    modules = list(hm.modules.values())
    for mod, nxt in zip(modules, _next_links(modules)):
        parent, diags, deps, faults = (mod.parent, mod.diag_resources,
                                       mod.dependencies, mod.faults)
        pack_module(buf, mod.shm_offset, mod.id,
                    parent.shm_offset if parent else 0,
                    diags[0].shm_offset if diags else 0,
                    deps[0].shm_offset if deps else 0,
                    faults[0].shm_offset if faults else 0,
                    mod.criticality, nxt)
    for mod in modules:
        faults = mod.faults
        for fault, nxt in zip(faults, _next_links(faults)):
            dets = fault.detections
            pack_fault(buf, fault.shm_offset, nxt,
                       dets[0].shm_offset if dets else 0, fault.severity,
                       fault.persistence, fault.classification & 0xFF, 0)
    for fault in hm.faults:
        dets = fault.detections
        for det, nxt in zip(dets, _next_links(dets)):
            pack_det(buf, det.shm_offset, nxt, det.detector.shm_offset,
                     det.timestamp, det.counter, det.payload,
                     det.flags & 0xFF)

    m, r, d, f, fd = _check_counts(hm)
    assert total == image_length(m, r, d, f, fd)
    body_crc = crc32(memoryview(buf)[HEADER_SIZE:])
    buf[:HEADER_SIZE] = _pack_header(total, m, r, d, f, fd, body_crc)
    return bytes(buf)


def _check_counts(hm: HealthMap) -> tuple[int, int, int, int, int]:
    m, r = len(hm.modules), len(hm.diag_resources)
    d, f, fd = len(hm.dependencies), len(hm.faults), len(hm.detections)
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
    violations = hm.validate_structure()
    if violations:
        raise StructureInvalidError(violations)
    m, r, d, f, fd = _check_counts(hm)
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
        buf = bytearray(image_length(m, r, d, f, fd))
        pack_diag, pack_dep = DIAG_REC.pack_into, DEP_REC.pack_into
        for mod in hm.modules.values():
            diags, deps = mod.diag_resources, mod.dependencies
            for res, nxt in zip(diags, _next_links(diags)):
                pack_diag(buf, res.shm_offset, res.id, res.owner.shm_offset,
                          nxt, res.kind & 0xFF)
            for dep, nxt in zip(deps, _next_links(deps)):
                pack_dep(buf, dep.shm_offset, dep.dependent.shm_offset, nxt,
                         dep.severity)
        return _write_linked(buf, hm)
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
    """Parses and cross-checks one image; hostile input tolerated.

    The walks bind hot names to locals, build records positionally and map
    enum bytes through the model's byte->member tables. A link that fails a
    fast inline check goes to a helper that raises the specific error.
    """

    def __init__(self, data: bytes) -> None:
        self.data = bytes(data)
        self.total = len(self.data)

    def run(self) -> HealthMap:
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

        diag_by_off = self._read_diags(hm, by_off, raw_modules, r)
        self._read_deps(hm, by_off, raw_modules, d)
        self._read_dynamic(hm, by_off, raw_modules, diag_by_off, f, fd)
        return hm

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

    def _walk_list(self, head: int, base: int, size: int, count: int,
                   seen: set[int], what: str, next_index: int,
                   rec: struct.Struct) -> list[tuple[int, tuple]]:
        """(offset, unpacked fields) of each record in one static list."""
        out = []
        data, unpack = self.data, rec.unpack_from
        end = base + size * count
        cur = head
        while cur:
            if not base <= cur < end or (cur - base) % size:
                self._section_offset(cur, base, size, count, what)
            if cur in seen:
                raise LinkCycleError(f"{what} list revisits offset {cur}")
            seen.add(cur)
            fields = unpack(data, cur)
            out.append((cur, fields))
            cur = fields[next_index]
        return out

    def _read_diags(self, hm, by_off, raw_modules, r):
        """Fill the diag resources; returns them keyed by offset."""
        seen: set[int] = set()
        by_id: dict[int, DiagResource] = {}
        parsed: dict[int, DiagResource] = {}
        for mod_off, fields in raw_modules.items():
            owner = by_off[mod_off]
            owned = owner.diag_resources
            for o, (rid, owner_off, _nxt, kind) in self._walk_list(
                    fields[2], self.diag_base, DIAG_SIZE, r, seen,
                    "diag resource", 2, DIAG_REC):
                if owner_off != mod_off:
                    raise BadLinkError(
                        f"diag resource at {o} owner link mismatch")
                if rid in by_id:
                    raise BadLinkError(f"duplicate diag resource id {rid}")
                res = DiagResource(rid, owner, kind, o)
                owned.append(res)
                by_id[rid] = parsed[o] = res
        if len(parsed) != r:
            raise RecordCountError(
                f"walked {len(parsed)} diag resources, header says {r}")
        hm.diag_resources = {parsed[o].id: parsed[o] for o in sorted(parsed)}
        return parsed

    def _read_deps(self, hm, by_off, raw_modules, d):
        seen: set[int] = set()
        parsed: dict[int, Dependency] = {}
        for mod_off, fields in raw_modules.items():
            provider = by_off[mod_off]
            provided = provider.dependencies
            for o, (dep_off, _nxt, sev) in self._walk_list(
                    fields[3], self.dep_base, DEP_SIZE, d, seen,
                    "dependency", 1, DEP_REC):
                dependent = self._module_at(by_off, dep_off)
                if dependent is provider:
                    raise BadLinkError(f"self-dependency at offset {o}")
                try:
                    severity = SEVERITIES[sev]
                except IndexError:
                    raise _invalid("severity", sev) from None
                dep = Dependency(provider, dependent, severity, o)
                provided.append(dep)
                parsed[o] = dep
        if len(parsed) != d:
            raise RecordCountError(
                f"walked {len(parsed)} dependencies, header says {d}")
        hm.dependencies = [parsed[o] for o in sorted(parsed)]

    def _dynamic_record(self, off: int, size: int, claimed: dict,
                        what: str) -> None:
        """Bounds-check a dynamic record and reject reuse of its offset."""
        if off < self.dyn_base or off + size > self.total:
            raise OffsetOutOfBoundsError(
                f"{what} offset {off} outside dynamic region")
        if off in claimed:
            raise BadLinkError(f"{what} at {off} reuses a claimed record")

    def _reject_fault(self, off: int, claimed: dict) -> None:
        """Raise for a fault link that failed the inline checks."""
        if isinstance(claimed.get(off), Fault):
            raise LinkCycleError(f"fault list revisits offset {off}")
        self._dynamic_record(off, FAULT_SIZE, claimed, "fault")

    def _reject_detection(self, off: int, claimed: dict,
                          walked: list[FaultDetection]) -> None:
        """Raise for a detection link that failed the inline checks;
        `walked` is the current fault's list so far."""
        if claimed.get(off) in walked:
            raise LinkCycleError(f"detection list revisits offset {off}")
        self._dynamic_record(off, DET_SIZE, claimed, "detection")

    def _read_dynamic(self, hm, by_off, raw_modules, diag_by_off, f, fd):
        data, total, dyn_base = self.data, self.total, self.dyn_base
        unpack_fault, unpack_det = FAULT_REC.unpack_from, DET_REC.unpack_from
        severities, persistences = SEVERITIES, PERSISTENCES
        # offset -> Fault or FaultDetection read there; a fault met again
        # is a list cycle, and so is a detection met again in one list
        claimed: dict[int, Fault | FaultDetection] = {}
        for mod_off, fields in raw_modules.items():
            owner = by_off[mod_off]
            owned = owner.faults
            cur = fields[4]
            while cur:
                if (cur in claimed or cur < dyn_base
                        or cur + FAULT_SIZE > total):
                    self._reject_fault(cur, claimed)
                nxt, first_det, sev, pers, cls, _resv = unpack_fault(data, cur)
                try:
                    fault = Fault(owner, severities[sev], persistences[pers],
                                  cls, [], cur)
                except IndexError:
                    if pers >= len(persistences):
                        raise _invalid("persistence", pers) from None
                    raise _invalid("severity", sev) from None
                owned.append(fault)
                claimed[cur] = fault
                # walk this fault's detections
                dets = fault.detections
                dcur = first_det
                while dcur:
                    if (dcur in claimed or dcur < dyn_base
                            or dcur + DET_SIZE > total):
                        self._reject_detection(dcur, claimed, dets)
                    (dnxt, det_off, ts, counter, payload,
                     flags) = unpack_det(data, dcur)
                    detector = diag_by_off.get(det_off)
                    if detector is None:
                        raise BadLinkError(
                            f"detection at {dcur} references non-detector "
                            f"offset {det_off}")
                    det = FaultDetection(detector, ts, counter, payload,
                                         flags, dcur)
                    dets.append(det)
                    claimed[dcur] = det
                    dcur = dnxt
                cur = nxt
        # sort-and-sweep: each record must end before the next one starts
        faults: list[Fault] = []
        dets: list[FaultDetection] = []
        end = prev = 0
        for off in sorted(claimed):
            if off < end:
                raise BadLinkError(f"record at {off} overlaps record at {prev}")
            rec = claimed[off]
            if isinstance(rec, Fault):
                faults.append(rec)
                end = off + FAULT_SIZE
            else:
                dets.append(rec)
                end = off + DET_SIZE
            prev = off
        if len(faults) != f:
            raise RecordCountError(
                f"walked {len(faults)} faults, header says {f}")
        if len(dets) != fd:
            raise RecordCountError(
                f"walked {len(dets)} detections, header says {fd}")
        hm.faults = faults
        hm.detections = dets
        hm.reindex_faults()


def _invalid(what: str, value: int) -> BadLinkError:
    return BadLinkError(f"invalid {what} value {value}")


def deserialize(data: bytes) -> HealthMap:
    """Parse and fully validate an image; raises ShmError subclasses."""
    return _Reader(data).run()


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
    """Write back a map that was deserialized from `image` and then grown.

    Only fault/detection additions plus in-place counter/flag/severity/
    persistence adjustments are representable; modules, diag resources and
    dependencies must be untouched. New records get offsets past the old
    end in creation order; then every module, fault and detection record
    is repacked at its own offset, so a field edited directly on a loaded
    record is written back too. Old record bytes change only where list
    tails were spliced or detection counters/flags (or fault
    severity/persistence after reclassification) moved.
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

    new_records = sorted(
        [f for f in hm.faults if f.shm_offset is None]
        + [d for d in hm.detections if d.shm_offset is None],
        key=lambda rec: rec.seq)
    pos = old_total
    for rec in new_records:
        rec.shm_offset = pos
        pos += FAULT_SIZE if isinstance(rec, Fault) else DET_SIZE

    buf = bytearray(pos)
    buf[:old_total] = image
    return _write_linked(buf, hm)
