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
appends the dynamic region may interleave fault and detection records. The
load's column proof (below) reads the region as fault records with whole
detection slots between them; the walker, its error path, follows the
linked lists and trusts the header counts, never section contiguity.

One writer lays out module, fault and detection records: it packs each
at its own `shm_offset`, with links taken from the records' offsets, then
stamps the header and CRCs. `serialize` first gives every record its
canonical offset (modules, diag resources, dependencies, then faults and
detections in map order), packs the diag resource and dependency records
itself and hands every other record to that writer. The append path
(`append_changes`) gives only the new faults and detections offsets past
the old end, in creation order, copies the old image into a buffer with a
zeroed tail, and hands the writer the records the load built: every
module, and the faults and detections of each module whose lists were
built. Repacking an unchanged record writes the bytes it already holds,
so old bytes change only in the patchable words: a module's first-fault
link, a fault's links, severity and persistence, and a detection's next
link, counter and flags. The code that writes a list writes its head
word (`serialize` the first-diag and first-dependency words, the writer
the first-fault word), and a module record takes the head words the
buffer then holds. The append writes no diag resource or dependency
list, and no fault list of a module whose lists were not built, so those
head words keep the image's, and a list reordered in memory or never
built cannot move them. Every record handed over is repacked, rather
than only records known to be dirty, so a field edited directly on a
loaded record is never dropped silently; a detection that was never
built cannot have changed. A fault record holds its first-detection
link, so a fault is handed over only when its detections were built, and
the writer refuses a new fault or detection in any other module. The new
header counts are the old header's plus the new records.

Loading is one check and one build. The check (`_Reader.check`) runs
every header, checksum, bounds, alignment, cycle, reuse, overlap, enum and
count check and builds only the modules and dependencies; it walks the
diag resource lists, proves the dynamic region by byte columns, and while
it walks the fault lists it keeps each faulty module's (id, worst
severity, worst persistence). It also enforces the rest of
`HealthMap.validate_structure` (no parent cycle, no fault severity or
persistence ZERO, no detection counter 0), so every command accepts the
same images. The build (`_Reader.build`) then walks again, for chosen
modules, lists the check proved valid: each module's diag resource list,
its faults in list order and their detections, with each detector a
detection names built once from its record. `deserialize` builds every
module's lists.

A map has one mark, `HealthMap._built`, of the modules whose lists it
holds: the check's map none, the build adds each module it builds, and
`deserialize` clears the mark (None: the whole map). A reader of every
list refuses a marked map (`HealthMap.require_whole`); where no list was
built there is no fault to lose, so `report_detection` finds no diag
resource and `append_changes` writes no list there and refuses a new
fault there. The CLI's commands read less, through two private entries:
`_check` (`hm validate`, `hm rm`, `hm affinity`) is the check alone and
returns its map, the triples (for `resourcemap.init_resource_map`) and
the header counts; `_load` (`hm inject`) builds the lists of one
detector's owner only.

The diag resource check is one walk, `_read_diags`, of every module's
list; it builds no record. A walk that passes has claimed all R slots of
the section, each once, so its set of walked offsets is exactly the set a
detection's detector link may name: the dynamic proof and the walker
both test detector links against it, without diag resource objects. The
same walk indexes each id's owner offset, so `hm inject` finds the
reporting detector's owner with one lookup.

The check proves the dynamic region valid with column scans, so
Python works per fault and per list break, not per detection. It walks
the fault lists, keeping each fault's offset and each module's worst
values, sorts the offsets and takes the gaps between them as 25-byte
detection slots. It reads every slot's next, detector and counter words
at once, with strided slices of the slots, and accepts only when:

  * every gap is a whole number of slots (the header's length check then
    leaves FD of them);
  * no counter is 0, and every detector link names a walked diag slot;
  * every next link that is not consecutive (not slot + 25 in the same
    gap) is 0 or points forward, past slot + 25;
  * the fault heads and those links name exactly the slots that no
    consecutive link reaches, each one once.

Forward links leave no cycle, and one incoming link per slot plus the
tiling mean that every slot is reached from exactly one fault and no two
records overlap. So the proof accepts only images the walker accepts, and
keeps the same triples. When it fails, for a hostile image or a valid one
with a backward link, the walker runs as if the proof had not, and names
the first error in image order; the error messages live only there. The
walker keeps the triples as it checks, and attaches no fault.

No two records overlap: every record the lists reach occupies its own byte
range. The walker verifies this for the dynamic region in linear time. It
keeps one dict from each walked offset to the fault whose list holds the
record there (0 for a fault). Exact reuse (a detection linked from two
lists, or a fault and a detection at one offset) is a link to a claimed
offset, caught during the walk, so the walk visits each offset at most
once; the dict's entry tells a list's cycle (a fault met again, or a
detection met again in the list being walked) from reuse. Partial overlap
is caught after the walk by one sort-and-sweep over the claimed offsets,
before the count checks.

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
from itertools import accumulate, chain
from operator import attrgetter
from typing import Callable, Iterable, NoReturn, Optional

from .errors import (
    AppendError,
    BadLinkError,
    BadMagicError,
    BadVersionError,
    BodyCrcMismatchError,
    FieldRangeError,
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
    FIELDS,
    PERSISTENCES,
    SEVERITIES,
    Dependency,
    DiagResource,
    Fault,
    FaultDetection,
    HealthMap,
    Module,
    Persistence,
    Severity,
    check_field,
    parent_verdicts,
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
_HEADS = struct.Struct("<8xIII")    # a module's first diag, dep and fault
_LINKS = struct.Struct("<II8xI")    # a detection's next, detector, counter
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
                  owners: list[Module],
                  counts: tuple[int, int, int, int, int]) -> bytes:
    """Pack the fault list of each of `owners`, with each fault's
    detection list and the module's first-fault word, and then each of
    `modules` into `buf` at the records' own `shm_offset`s, with links
    taken from the records' offsets; then stamp the header with `counts`
    and both CRCs. `buf` is the whole image, and every record packed
    already has its offset.

    The code that writes a list writes its head word: a module record is
    packed with the first-diag, first-dependency and first-fault words
    that `buf` holds once its fault list, if any, is written here."""
    total = len(buf)
    pack_fault, pack_det, pack_link = (FAULT_REC.pack_into,
                                       DET_REC.pack_into, _LINK.pack_into)
    for mod in owners:
        owned = mod.faults
        pack_link(buf, mod.shm_offset + 16, owned[0].shm_offset if owned
                  else 0)
        for fault, nxt in zip(owned, _next_links(owned)):
            dets = fault.detections
            pack_fault(buf, fault.shm_offset, nxt,
                       dets[0].shm_offset if dets else 0, fault.severity,
                       fault.persistence, fault.classification, 0)
            for det, det_nxt in zip(dets, _next_links(dets)):
                pack_det(buf, det.shm_offset, det_nxt, det.detector.shm_offset,
                         det.timestamp, det.counter, det.payload,
                         det.flags)
    pack_module, unpack_heads = MODULE_REC.pack_into, _HEADS.unpack_from
    for mod, nxt in zip(modules, _next_links(modules)):
        parent, at = mod.parent, mod.shm_offset
        pack_module(buf, at, mod.id, parent.shm_offset if parent else 0,
                    *unpack_heads(buf, at), mod.criticality, nxt)

    assert total == image_length(*counts)
    body_crc = crc32(memoryview(buf)[HEADER_SIZE:])
    buf[:HEADER_SIZE] = _pack_header(total, *counts, body_crc)
    return bytes(buf)


def counts_fit(m: int, r: int, d: int, f: int, fd: int) -> bool:
    """Whether the header counts these records: M, R, D and F in u16
    fields, FD in a u32 field."""
    return max(m, r, d, f) <= 0xFFFF and fd <= 0xFFFFFFFF


def _check_counts(m: int, r: int, d: int, f: int,
                  fd: int) -> tuple[int, int, int, int, int]:
    if not counts_fit(m, r, d, f, fd):
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
    `serialize` that raises leaves every offset as it was; a value that its
    field cannot hold raises `FieldRangeError` naming the field.
    """
    hm.require_whole("serialize")
    sections = ((hm.modules.values(), MODULE_SIZE),
                (hm.diag_resources.values(), DIAG_SIZE),
                (hm.dependencies, DEP_SIZE), (hm.faults, FAULT_SIZE),
                (hm.detections, DET_SIZE))
    records = [rec for group, _size in sections for rec in group]
    violations = hm.validate_structure()
    if violations:
        _check_rows(records)
        raise StructureInvalidError(violations)
    _check_levels(hm.modules.values(), hm.dependencies, hm.faults)
    counts = _check_counts(len(hm.modules), len(hm.diag_resources),
                           len(hm.dependencies), len(hm.faults),
                           len(hm.detections))
    sizes = [size for group, size in sections for _rec in group]
    modules = list(hm.modules.values())

    def write() -> bytes:
        buf = bytearray(image_length(*counts))
        pack_diag, pack_dep, pack_link = (DIAG_REC.pack_into,
                                          DEP_REC.pack_into, _LINK.pack_into)
        for mod in modules:
            at, diags, deps = (mod.shm_offset, mod.diag_resources,
                               mod.dependencies)
            pack_link(buf, at + 8, diags[0].shm_offset if diags else 0)
            pack_link(buf, at + 12, deps[0].shm_offset if deps else 0)
            for res, nxt in zip(diags, _next_links(diags)):
                pack_diag(buf, res.shm_offset, res.id, res.owner.shm_offset,
                          nxt, res.kind)
            for dep, nxt in zip(deps, _next_links(deps)):
                pack_dep(buf, dep.shm_offset, dep.dependent.shm_offset, nxt,
                         dep.severity)
        return _write_linked(buf, modules, modules, counts)

    return _place(records, accumulate(sizes, initial=HEADER_SIZE), write,
                  records)


def _place(records: list, offsets: Iterable[int], write: Callable[[], bytes],
           packed: Iterable) -> bytes:
    """Give each of `records` its offset from `offsets`, then return
    `write()`. If that raises, each of `records` gets its old offset back,
    and a value that a pack could not hold raises the error of the first
    field among the `packed` records that its row refuses."""
    old = [rec.shm_offset for rec in records]
    try:
        for rec, offset in zip(records, offsets):
            rec.shm_offset = offset
        return write()
    except BaseException as exc:
        for rec, offset in zip(records, old):
            rec.shm_offset = offset
        if isinstance(exc, struct.error):
            _check_rows(packed)
            raise FieldRangeError(
                f"a record does not fit the image: {exc}") from exc
        raise


def _check_levels(modules: Iterable[Module],
                  dependencies: Iterable[Dependency],
                  faults: Iterable[Fault]) -> None:
    """Raise the error of the first criticality, severity or persistence
    of these records that its `model.FIELDS` row refuses: a load refuses
    such a byte, so no writer writes one. The valid case is one set test
    per field."""
    for records, rows in ((modules, FIELDS[Module]),
                          (dependencies, FIELDS[Dependency]),
                          (faults, FIELDS[Fault])):
        for name, row in rows.items():
            get, table = attrgetter(name), row[0]
            if type(table) is tuple and not set(table).issuperset(
                    map(get, records)):
                check_field(next(v for v in map(get, records)
                                 if v not in table), row)   # raises


def _check_rows(records: Iterable) -> None:
    """Raise the error of the first field of `records` that its
    `model.FIELDS` row refuses. A writer runs it before it raises a ZERO,
    counter or structure error, so such a value gets the error the entry
    points give it, as a value set through them would."""
    for rec in records:
        for name, row in FIELDS[type(rec)].items():
            check_field(getattr(rec, name), row)


def _pack_header(total, m, r, d, f, fd, body_crc) -> bytearray:
    head = bytearray(HEADER.pack(MAGIC, VERSION, 0, total, m, r, d, f, fd,
                                 body_crc, 0))
    head[28:32] = struct.pack("<I", crc32(bytes(head[:28])))
    return head


# --------------------------------------------------------------------------
# deserialize


class _Reader:
    """Parses and cross-checks one image; hostile input tolerated.

    `check` runs every check of the image, in image order, and builds the
    modules and dependencies; of each fault it keeps only its module's
    worst values, and of each detection it reads only its links and
    counter. It also refuses parent cycles, ZERO fault enum bytes and
    counter 0. The diag resource lists are walked (`_read_diags`), which
    keeps the walked slots and an id -> owner index. The dynamic region is
    proven by column scans (`_prove_dynamic`); only when that proof fails
    does its walker (`_check_dynamic`) follow every list, and it alone
    raises the region's errors. `build` then creates
    the lists of chosen modules by walking again lists `check` proved
    valid, so it cannot fail.

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
        """The image's map with its modules and dependencies, marked as
        holding no module's lists (`hm._built` empty), with each faulty
        module's (id, worst severity, worst persistence) in `self.worst`;
        raises on the first error. No walk attaches anything to the
        modules."""
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
        # wire parents; each is in the map, so only a cycle fails a chain
        for o, fields in raw_modules.items():
            if fields[1]:
                by_off[o].parent = self._module_at(by_off, fields[1])
        verdicts = parent_verdicts(modules)
        for m in modules.values():
            if verdicts[id(m)]:
                raise LinkCycleError(f"parent chain of module {m.id}: cycle "
                                     f"through module {verdicts[id(m)][1]}")

        self.by_off, self.raw_modules = by_off, raw_modules
        self._read_diags(raw_modules, r)
        self._read_deps(hm, by_off, raw_modules, d)
        worst = self._prove_dynamic(raw_modules, f, fd)
        self.worst = (worst if worst is not None
                      else self._check_dynamic(raw_modules, f, fd))
        hm._built = set()
        return hm

    def owner_of(self, detector: int) -> Optional[Module]:
        """The module that owns the diag resource `detector`, or None when
        no diag resource has that id (`by_off` has no key None): one lookup
        in the id index the diag check built."""
        return self.by_off.get(self.owners.get(detector))

    def build(self, hm: HealthMap, owners: Iterable[Module]) -> None:
        """Build into `hm`, the map of `check`, the diag resource list of
        each of `owners`, its faults in list order and their detections,
        with each detector a detection names built once from its record.
        `hm.diag_resources`, `hm.faults` and `hm.detections` then hold
        those records, each in offset order, and `hm._built` gains the
        owners' ids. The lists were proven valid, so this cannot fail."""
        data, raw_modules = self.data, self.raw_modules
        detectors = _Detectors(data, self.by_off)
        unpack_link, unpack_fault, unpack_det = (
            _LINK.unpack_from, FAULT_REC.unpack_from, DET_REC.unpack_from)
        faults: list[Fault] = []
        detections: list[FaultDetection] = []
        built = hm._built
        for owner in owners:
            built.add(owner.id)
            _id, _parent, cur, _dep, fault_off, _crit, _next = raw_modules[
                owner.shm_offset]
            while cur:
                owner.diag_resources.append(detectors[cur])
                (cur,) = unpack_link(data, cur + 8)
            owned = owner.faults
            while fault_off:
                nxt, dcur, sev, pers, cls, _resv = unpack_fault(data,
                                                                fault_off)
                fault = Fault(owner, SEVERITIES[sev], PERSISTENCES[pers], cls,
                              [], fault_off)
                dets = fault.detections
                while dcur:
                    dnxt, det_off, ts, counter, payload, flags = unpack_det(
                        data, dcur)
                    dets.append(FaultDetection(detectors[det_off], ts,
                                               counter, payload, flags, dcur))
                    dcur = dnxt
                owned.append(fault)
                detections += dets
                fault_off = nxt
            faults += owned
        hm.faults = sorted(faults, key=_offset)
        hm.detections = sorted(detections, key=_offset)
        hm.diag_resources = {res.id: res for res in sorted(
            detectors.values(), key=_offset)}
        hm.reindex_faults()

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

    def _refuse_offset(self, off: int, base: int, size: int, count: int,
                       what: str) -> NoReturn:
        """Raise for a link that is outside its section or off a record
        boundary: the bounds error first."""
        end = base + size * count
        if not (base <= off < end) or off + size > self.total:
            raise OffsetOutOfBoundsError(
                f"{what} offset {off} outside section [{base}, {end})")
        raise OffsetMisalignedError(
            f"{what} offset {off} not on a {size}-byte record boundary")

    def _refuse_module(self, off: int) -> NoReturn:
        self._refuse_offset(off, self.mod_base, MODULE_SIZE, self.counts[0],
                            "module")

    def _module_at(self, by_off: dict[int, Module], off: int) -> Module:
        module = by_off.get(off)
        if module is None:
            # the module walk claimed every module slot in the section
            self._refuse_module(off)
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
                self._refuse_module(cur)
            if cur in raw:
                raise LinkCycleError(f"module list revisits offset {cur}")
            fields = raw[cur] = unpack(data, cur)
            cur = fields[6]
        if len(raw) != m:
            raise RecordCountError(
                f"module list has {len(raw)} records, header says {m}")
        return raw

    def _read_diags(self, raw_modules, r):
        """Check every diag resource list; builds no record. Keeps the
        walked offsets in `self.slots` and an id index in `self.owners`."""
        data, unpack = self.data, DIAG_REC.unpack_from
        base, end = self.diag_base, self.dep_base
        self.owners = owners = {}     # id -> its owner module's offset
        self.slots = walked = set()   # the slots a detector may name
        for mod_off, fields in raw_modules.items():
            error = None     # a record's error waits for the list's links
            cur = fields[2]
            while cur:
                if not base <= cur < end or (cur - base) % DIAG_SIZE:
                    self._refuse_offset(cur, base, DIAG_SIZE, r,
                                        "diag resource")
                if cur in walked:
                    raise LinkCycleError(
                        f"diag resource list revisits offset {cur}")
                rid, owner_off, nxt, _kind = unpack(data, cur)
                if (owner_off != mod_off or rid in owners) and error is None:
                    error = BadLinkError(
                        f"diag resource at {cur} owner link mismatch"
                        if owner_off != mod_off
                        else f"duplicate diag resource id {rid}")
                owners[rid] = mod_off
                walked.add(cur)
                cur = nxt
            if error is not None:
                raise error
        if len(walked) != r:
            raise RecordCountError(
                f"walked {len(walked)} diag resources, header says {r}")

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
                    self._refuse_offset(cur, base, DEP_SIZE, d, "dependency")
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

    def _reject(self, off: int, claimed: dict[int, int],
                holder: int) -> None:
        """Raise for a dynamic link that failed the inline checks; `holder`
        is 0 for a fault link, else the offset of the fault whose detection
        list is walked."""
        what = "detection" if holder else "fault"
        size = DET_SIZE if holder else FAULT_SIZE
        if off < self.dyn_base or off + size > self.total:
            raise OffsetOutOfBoundsError(
                f"{what} offset {off} outside dynamic region")
        if claimed[off] == holder:
            raise LinkCycleError(f"{what} list revisits offset {off}")
        raise BadLinkError(f"{what} at {off} reuses a claimed record")

    def _prove_dynamic(self, raw_modules, f, fd):
        """When column scans prove the dynamic region valid, each faulty
        module's (id, worst severity, worst persistence); else None. See
        the module docstring for the proof."""
        data, total, dyn_base = self.data, self.total, self.dyn_base
        unpack_fault = FAULT_REC.unpack_from
        n_sev, n_pers = len(SEVERITIES), len(PERSISTENCES)
        last_fault = total - FAULT_SIZE
        worst: list[tuple[int, Severity, Persistence]] = []
        found: list[int] = []       # the fault offsets
        heads: list[int] = []       # the nonzero first-detection links
        for fields in raw_modules.values():
            cur = fields[4]
            worst_sev = worst_pers = 0
            while cur:
                # a fault past the header's count ends a cycle or a reuse
                if not dyn_base <= cur <= last_fault or len(found) == f:
                    return None
                nxt, head, sev, pers, _cls, _resv = unpack_fault(data, cur)
                if not (0 < sev < n_sev and 0 < pers < n_pers):
                    return None
                found.append(cur)
                if sev > worst_sev:
                    worst_sev = sev
                if pers > worst_pers:
                    worst_pers = pers
                if head:
                    heads.append(head)
                cur = nxt
            if worst_sev:
                worst.append((fields[0], SEVERITIES[worst_sev],
                              PERSISTENCES[worst_pers]))
        if len(found) != f:
            return None
        found.sort()
        gaps = _slot_gaps(found, dyn_base, total)
        if gaps is None:
            return None
        # the header's length check leaves room for exactly FD slots
        slots = b"".join([data[a:b] for a, b in gaps])
        if (b"\0" in _fold(slots, 16, DET_SIZE, fd)     # a counter 0
                or not self.slots.issuperset(_words(slots, 4, fd))
                or not _lists_proven(slots, fd, gaps, heads, total)):
            return None
        return worst

    def _check_dynamic(self, raw_modules, f, fd):
        """Check every fault and detection link, claiming each walked
        offset for the fault whose list holds it (0 for a fault); returns
        each faulty module's (id, worst severity, worst persistence)."""
        data, dyn_base, detectors = self.data, self.dyn_base, self.slots
        unpack_fault, unpack_links = FAULT_REC.unpack_from, _LINKS.unpack_from
        n_sev, n_pers = len(SEVERITIES), len(PERSISTENCES)
        last_fault, last_det = self.total - FAULT_SIZE, self.total - DET_SIZE
        claimed: dict[int, int] = {}
        worst: list[tuple[int, Severity, Persistence]] = []
        for fields in raw_modules.values():
            cur = fields[4]
            worst_sev = worst_pers = 0
            while cur:
                if not dyn_base <= cur <= last_fault or cur in claimed:
                    self._reject(cur, claimed, 0)
                nxt, dcur, sev, pers, _cls, _resv = unpack_fault(data, cur)
                # ZERO means no fault, so no fault record holds it
                if not 0 < pers < n_pers:
                    raise _invalid("persistence", pers)
                if not 0 < sev < n_sev:
                    raise _invalid("severity", sev)
                if sev > worst_sev:
                    worst_sev = sev
                if pers > worst_pers:
                    worst_pers = pers
                claimed[cur] = 0
                # follow this fault's detection list
                while dcur:
                    if not dyn_base <= dcur <= last_det or dcur in claimed:
                        self._reject(dcur, claimed, cur)
                    dnxt, det_off, counter = unpack_links(data, dcur)
                    if det_off not in detectors:
                        raise BadLinkError(
                            f"detection at {dcur} references non-detector "
                            f"offset {det_off}")
                    if not counter:
                        raise BadLinkError(
                            f"detection at {dcur} has counter 0")
                    claimed[dcur] = cur
                    dcur = dnxt
                cur = nxt
            if worst_sev:
                worst.append((fields[0], SEVERITIES[worst_sev],
                              PERSISTENCES[worst_pers]))
        # sort-and-sweep: each record must end before the next one starts
        end = prev = 0
        for off in sorted(claimed):
            if off < end:
                raise BadLinkError(
                    f"record at {off} overlaps record at {prev}")
            end = off + (DET_SIZE if claimed[off] else FAULT_SIZE)
            prev = off
        faults = list(claimed.values()).count(0)
        if faults != f:
            raise RecordCountError(
                f"walked {faults} faults, header says {f}")
        if len(claimed) - f != fd:
            raise RecordCountError(
                f"walked {len(claimed) - f} detections, header says {fd}")
        return worst


class _Detectors(dict):
    """Diag resources by offset, each built from its record, with its owner
    from `by_off`, when first asked for."""

    def __init__(self, data: bytes, by_off: dict[int, Module]) -> None:
        super().__init__()
        self.data, self.by_off = data, by_off

    def __missing__(self, off: int) -> DiagResource:
        rid, owner_off, _next, kind = DIAG_REC.unpack_from(self.data, off)
        res = self[off] = DiagResource(rid, self.by_off[owner_off], kind, off)
        return res


# -- column scans of the dynamic region ---------------------------------------
# A detection slot is a 25-byte record in a gap between fault records; the
# slots of all gaps are packed, in offset order, into one `slots` string.


def _slot_gaps(fault_offsets: Iterable[int], start: int,
               end: int) -> Optional[list[tuple[int, int]]]:
    """The non-empty gaps [a, b) that fault records at the ascending
    `fault_offsets` leave in [start, end), or None unless each gap is a
    whole number of detection slots (a negative gap is an overlap)."""
    gaps: list[tuple[int, int]] = []
    pos = start
    for off in chain(fault_offsets, (end,)):
        gap = off - pos
        if gap < 0 or gap % DET_SIZE:
            return None
        if gap:
            gaps.append((pos, off))
        pos = off + FAULT_SIZE
    return gaps


def _column(slots: bytes, at: int, n: int) -> bytearray:
    """The u32 at byte `at` of each of the `n` slots packed in `slots`, as
    4n bytes."""
    column = bytearray(4 * n)
    for k in range(4):
        column[k::4] = slots[at + k::DET_SIZE]
    return column


def _words(slots: bytes, at: int, n: int) -> tuple[int, ...]:
    """The little-endian u32 at byte `at` of each of the `n` slots."""
    return struct.unpack(f"<{n}I", _column(slots, at, n))


def _fold(buf: bytes, at: int, stride: int, n: int) -> bytes:
    """One byte for each of `n` records `stride` bytes apart in `buf`,
    nonzero exactly when the record's u32 at byte `at` is."""
    folded = 0
    for k in range(at, at + 4):
        folded |= int.from_bytes(buf[k::stride], "little")
    return folded.to_bytes(n, "little")


_TRUTH = bytes(1) + bytes([1]) * 255    # translate: each nonzero byte to 1


def _lists_proven(slots: bytes, n: int, gaps: list[tuple[int, int]],
                  heads: list[int], total: int) -> bool:
    """Whether the next links of the `n` slots taken from `gaps`, with
    the fault `heads`, form lists that reach every slot exactly once.

    A link to slot + 25 inside one gap is consecutive; every other link,
    0 included, is a break. Slot j is unreached unless slot j - 1 links to
    it consecutively. The heads and the nonzero breaks must name every
    unreached slot once and nothing else, and a break must point forward,
    past slot + 25. Python works per gap and per name; the rest is byte
    columns and integers."""
    nexts = _column(slots, 0, n)
    succs = struct.pack(f"<{n}I", *chain.from_iterable(   # slot + 25
        range(a + DET_SIZE, b + DET_SIZE, DET_SIZE) for a, b in gaps))
    diff = (int.from_bytes(nexts, "little")
            ^ int.from_bytes(succs, "little")).to_bytes(4 * n, "little")
    breaks = _fold(diff, 0, 4, n).translate(_TRUTH)
    unreached = (b"\1" + breaks)[:n]
    # the unreached slots, marked at their offsets
    marks = bytearray(total)
    j = 0
    for a, b in gaps:
        k = (b - a) // DET_SIZE
        if not breaks[j + k - 1]:     # slot + 25 is past the gap
            return False
        marks[a:b:DET_SIZE] = unreached[j:j + k]
        j += k
    # the breaks that link somewhere
    named = list(heads)
    linked = _fold(nexts, 0, 4, n).translate(_TRUTH)
    jumps = (int.from_bytes(breaks, "little")
             & int.from_bytes(linked, "little")).to_bytes(n, "little")
    j = jumps.find(1)
    while j >= 0:
        (nxt,) = _LINK.unpack_from(nexts, 4 * j)
        (succ,) = _LINK.unpack_from(succs, 4 * j)
        if nxt < succ:
            return False
        named.append(nxt)
        j = jumps.find(1, j + 1)
    for off in named:
        if off >= total or not marks[off]:
            return False
        marks[off] = 0
    return len(named) == unreached.count(1)


def _invalid(what: str, value: int) -> BadLinkError:
    return BadLinkError(f"invalid {what} value {value}")


def deserialize(data: bytes) -> HealthMap:
    """Parse and fully validate an image; raises ShmError subclasses."""
    reader = _Reader(data)
    hm = reader.check()
    reader.build(hm, hm.modules.values())
    hm._built = None
    return hm


def _check(data: bytes) -> tuple[HealthMap, list, tuple[int, ...]]:
    """`deserialize` for a command that reads no fault: the image passes
    every check of `_Reader.check`, which raises the same errors in the
    same order, and no list is built. Returns the check's map (the modules
    and dependencies; no diag resource and no fault), each faulty module's
    (id, worst severity, worst persistence), which
    `resourcemap.init_resource_map` folds (`hm rm`, `hm affinity`), and
    the header's (M, R, D, F, FD) (`hm validate`)."""
    reader = _Reader(data)
    hm = reader.check()
    return hm, reader.worst, reader.counts


def _load(data: bytes, detector: int) -> HealthMap:
    """`deserialize` for `hm inject`, which reads one detector and its
    owner's faults: the image passes every check of `_Reader.check`, and
    `_Reader.build` builds the lists of the module that owns that diag
    resource only (of none if no diag resource has that id, so
    `report_detection` raises `UnknownDetectorError`), and marks the map
    with that module's id alone (`hm._built`)."""
    reader = _Reader(data)
    hm = reader.check()
    owner = reader.owner_of(detector)
    reader.build(hm, [] if owner is None else [owner])
    return hm


def validate_image(data: bytes) -> HealthMap:
    """`deserialize`, kept as its exported alias (the benchmark's tracer
    wraps it by name); every map a load accepts passes
    validate_structure."""
    return deserialize(data)


# --------------------------------------------------------------------------
# append-only update


def append_changes(image: bytes, hm: HealthMap) -> bytes:
    """Write back a map that was loaded from `image` and then grown.

    Only fault/detection additions plus in-place counter/flag/severity/
    persistence adjustments are representable; modules, diag resources and
    dependencies must be untouched. New records get offsets past the old
    end in creation order. Then every module, and every fault and
    detection of each module whose lists the load built (every module
    after `deserialize`), is repacked at its own offset, so a field edited
    directly on one of them is written back too; a module's first-diag and
    first-dependency words, and the first-fault word of a module whose
    lists were not built, keep the image's. The header counts are the
    old ones plus the new records. Old record
    bytes change only where list tails were spliced or detection
    counters/flags (or fault severity/persistence after reclassification)
    moved. A ZERO fault severity or persistence, or a counter 0, among the
    records repacked raises `AppendError` before any record gets an offset.
    A map that already holds a record past the image's end, because it was
    appended to this image before, raises `AppendError`. A value that its
    field cannot hold raises `FieldRangeError` naming the field, a parent
    cycle or a repeated module id the load's
    `LinkCycleError` or `BadLinkError`, a parent or a packed
    detection's detector that is not the map's own record of its id the
    `StructureInvalidError` `serialize` raises, and an append that raises
    leaves the new records without offsets, so it can be retried.
    """
    old_total = len(image)
    get = hm.modules.get
    for m in hm.modules.values():
        if m.shm_offset is None:
            raise AppendError("cannot append new modules to an image")
        if m.parent is not None and get(m.parent.id) is not m.parent:
            # the parent word would take a foreign record's offset, which
            # may name another module: refuse the map as serialize does
            raise StructureInvalidError(hm.validate_structure())
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
    faults = [f for mod in owners for f in mod.faults]
    # offsets are never 0 (the header is there); None marks a new record
    placed = max(filter(None, map(_offset, chain(faults, chain.from_iterable(
        map(attrgetter("detections"), faults))))), default=0)
    if placed >= old_total:
        # an earlier append to this image placed it: the map now belongs to
        # that append's result, and an offset past this end fits nothing
        raise AppendError(
            f"the map already holds a record at offset {placed}, past this "
            f"image's end ({old_total} bytes): it was appended before; "
            f"append to the image that append returned")
    detectors = hm.diag_resources
    for fault in faults:
        dets = fault.detections
        if not (fault.severity and fault.persistence
                and all(det.counter for det in dets)):
            _check_rows((fault, *dets))
            raise AppendError(f"cannot write a ZERO severity, persistence "
                              f"or counter (module {fault.owner.id})")
        if any(detectors.get(det.detector.id) is not det.detector
               for det in dets):
            # the detector word would take a foreign record's offset, or
            # none: refuse the map as serialize does
            raise StructureInvalidError(hm.validate_structure())
    _check_levels(modules, (), faults)
    new = sorted(new_faults + new_dets, key=attrgetter("seq"))
    sizes = [FAULT_SIZE if isinstance(rec, Fault) else DET_SIZE
             for rec in new]
    m, r, d, f, fd = _COUNTS.unpack_from(image, _COUNTS_AT)
    counts = _check_counts(m, r, d, f + len(new_faults), fd + len(new_dets))

    def write() -> bytes:
        buf = bytearray(old_total + sum(sizes))
        buf[:old_total] = image
        updated = _write_linked(buf, modules, owners, counts)
        # a moved id or parent word may repeat an id or close a cycle,
        # which a load refuses
        end = HEADER_SIZE + MODULE_SIZE * m
        if any(image[at:end:MODULE_SIZE] != updated[at:end:MODULE_SIZE]
               for at in range(HEADER_SIZE, HEADER_SIZE + 8)):
            _Reader(updated).check()
        return updated

    packed = chain(modules, chain.from_iterable(
        (fault, *fault.detections) for fault in faults))
    return _place(new, accumulate(sizes, initial=old_total), write, packed)
