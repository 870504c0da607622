"""Shared test helpers: randomized map construction and independent
oracles (bitwise CRC32, exhaustive propagation-path enumeration, a plain
re-encoder for appended images, a one-pass image reader, summary decode and
ingest built on one `RmEntry` per entry)."""

from __future__ import annotations

import random
import struct
import zlib
from typing import Optional

from healthmap import HealthMap, ModuleStatus, Persistence, Severity
from healthmap.codec import (
    DEP_REC,
    DEP_SIZE,
    DET_REC,
    DET_SIZE,
    DIAG_REC,
    DIAG_SIZE,
    FAULT_REC,
    FAULT_SIZE,
    HEADER,
    HEADER_SIZE,
    MAGIC,
    MODULE_REC,
    MODULE_SIZE,
    VERSION,
    crc32,
    image_length,
)
from healthmap.errors import (
    BadLinkError,
    BadMagicError,
    BadVersionError,
    BodyCrcMismatchError,
    CrcMismatchError,
    HeaderCrcMismatchError,
    LengthMismatchError,
    LinkCycleError,
    MalformedMessageError,
    OffsetMisalignedError,
    OffsetOutOfBoundsError,
    RecordCountError,
    UnknownDetectorError,
    UnknownNodeError,
)
from healthmap.faultmgr import DEFAULT_MERGE_WINDOW_US, record_event
from healthmap.model import (
    PERSISTENCES,
    SEVERITIES,
    STATUSES,
    Dependency,
    DiagResource,
    Fault,
    FaultDetection,
    Module,
    Violation,
)
from healthmap.resourcemap import RM_ENTRY, RmEntry


def crc32_reference(data: bytes) -> int:
    """Bitwise reflected CRC-32, independent of zlib."""
    crc = 0xFFFFFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = (crc >> 1) ^ (0xEDB88320 if crc & 1 else 0)
    return crc ^ 0xFFFFFFFF


def random_health_map(rng: random.Random, max_modules: int = 12,
                      max_faults: int = 8,
                      with_faults: bool = True) -> HealthMap:
    """A structurally valid random map (forest + resources + fault data)."""
    hm = HealthMap()
    n = rng.randint(1, max_modules)
    ids = rng.sample(range(1, 100_000), n)
    for i, mid in enumerate(ids):
        parent = rng.choice(ids[:i]) if i and rng.random() < 0.9 else None
        hm.add_module(mid, parent, Severity(rng.randint(0, 3)))

    detectors = []
    next_rid = 1
    for mid in ids:
        for _ in range(rng.randint(0, 2)):
            rid = 500_000 + next_rid
            next_rid += 1
            hm.add_diag_resource(rid, mid, rng.randint(0, 255))
            detectors.append(rid)
    if with_faults and not detectors:
        hm.add_diag_resource(500_000, ids[0], 0)
        detectors.append(500_000)

    if n >= 2:
        for _ in range(rng.randint(0, n)):
            provider, dependent = rng.sample(ids, 2)
            hm.add_dependency(provider, dependent,
                              Severity(rng.randint(1, 3)))

    if with_faults:
        for _ in range(rng.randint(0, max_faults)):
            fault = hm.add_fault(rng.choice(ids),
                                 Severity(rng.randint(1, 3)),
                                 Persistence(rng.randint(1, 3)),
                                 rng.randint(0, 255))
            for _ in range(rng.randint(1, 3)):
                hm.add_detection(fault, rng.choice(detectors),
                                 rng.randint(0, 10**9),
                                 payload=rng.getrandbits(32),
                                 counter=rng.randint(1, 5),
                                 flags=rng.getrandbits(1))
    return hm


def oracle_resource_map(hm: HealthMap, maintenance=()):
    """Brute-force summary: enumerate every propagation path explicitly.

    Valid paths climb parent edges (requiring nonzero criticality at each
    stepped-from module, severity capped by it) and may take at most one
    dependency edge (severity capped by the dependency); persistence rides
    along uncapped. Returns {module_id: (severity, persistence, status)}.
    """
    sev = {mid: Severity.ZERO for mid in hm.modules}
    pers = {mid: Persistence.ZERO for mid in hm.modules}

    def contribute(mid, s, p):
        sev[mid] = Severity(max(sev[mid], s))
        pers[mid] = Persistence(max(pers[mid], p))

    for module in hm.modules.values():
        if not module.faults:
            continue
        s0 = Severity(max(f.severity for f in module.faults))
        p0 = Persistence(max(f.persistence for f in module.faults))
        contribute(module.id, s0, p0)
        stack = [(module, s0, False)]
        while stack:
            m, s, dep_used = stack.pop()
            if m.criticality != Severity.ZERO and m.parent is not None:
                capped = Severity(min(s, m.criticality))
                contribute(m.parent.id, capped, p0)
                stack.append((m.parent, capped, dep_used))
            if not dep_used:
                for dep in m.dependencies:
                    capped = Severity(min(s, dep.severity))
                    if capped != Severity.ZERO:
                        contribute(dep.dependent.id, capped, p0)
                        stack.append((dep.dependent, capped, True))

    maintained = set()
    for mid in maintenance:
        maintained.update(hm.subtree_ids(mid))

    result = {}
    for mid, module in hm.modules.items():
        if mid in maintained:
            status = ModuleStatus.MAINTENANCE
        elif module.faults:
            status = ModuleStatus.OWN_FAULT
        elif sev[mid] > Severity.ZERO:
            status = ModuleStatus.PROPAGATED_FAULT
        else:
            status = ModuleStatus.AVAILABLE
        result[mid] = (sev[mid], pers[mid], status)
    return result


def rm_state(rm):
    return {mid: (e.severity, e.persistence, e.status)
            for mid, e in rm.entries.items()}


def reference_append(image: bytes, hm: HealthMap) -> bytes:
    """What `codec.append_changes(image, hm)` must return, spelled out
    plainly and without touching `hm`.

    New faults and detections (no shm_offset yet) take offsets past the
    old end in creation order; every module, fault and detection record is
    then re-encoded from the map over a copy of the image, and the header
    is rewritten with fresh counts and checksums.
    """
    off = {}
    for group in (hm.modules.values(), hm.diag_resources.values(),
                  hm.dependencies, hm.faults, hm.detections):
        for entity in group:
            off[id(entity)] = entity.shm_offset
    pos = len(image)
    new = [r for r in hm.faults + hm.detections if r.shm_offset is None]
    for rec in sorted(new, key=lambda r: r.seq):
        off[id(rec)] = pos
        pos += 12 if isinstance(rec, Fault) else 25

    def link(entity):
        return 0 if entity is None else off[id(entity)]

    def first(items):
        return items[0] if items else None

    def after(items, i):
        return items[i + 1] if i + 1 < len(items) else None

    out = bytearray(image) + bytearray(pos - len(image))

    def put(entity, record: bytes) -> None:
        start = off[id(entity)]
        out[start:start + len(record)] = record

    modules = list(hm.modules.values())
    for i, m in enumerate(modules):
        put(m, struct.pack("<IIIIIBI", m.id, link(m.parent),
                           link(first(m.diag_resources)),
                           link(first(m.dependencies)),
                           link(first(m.faults)), int(m.criticality),
                           link(after(modules, i))))
    for m in modules:
        for i, f in enumerate(m.faults):
            put(f, struct.pack("<IIBBBB", link(after(m.faults, i)),
                               link(first(f.detections)), int(f.severity),
                               int(f.persistence), f.classification & 0xFF,
                               0))
    for f in hm.faults:
        for i, d in enumerate(f.detections):
            put(d, struct.pack("<IIQIIB", link(after(f.detections, i)),
                               link(d.detector), d.timestamp, d.counter,
                               d.payload, d.flags & 0xFF))
    head = struct.pack("<4sHHIHHHHII", b"SHM1", 1, 0, pos, len(hm.modules),
                       len(hm.diag_resources), len(hm.dependencies),
                       len(hm.faults), len(hm.detections),
                       zlib.crc32(bytes(out[32:])))
    out[:32] = head + struct.pack("<I", zlib.crc32(head))
    return bytes(out)


class _ReferenceReader:
    """The one-pass image reader `codec.deserialize` must agree with: it
    parses, cross-checks and builds every record in a single walk.

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


def reference_deserialize(data: bytes) -> HealthMap:
    """What `codec.deserialize` must return or raise: the map every record
    of the image builds, or the first error a single walk of it meets."""
    return _ReferenceReader(data).run()


def oracle_parent_violations(hm: HealthMap) -> list[Violation]:
    """ParentCycle / DanglingParent violations by walking every module's
    whole parent chain (quadratic in depth)."""
    out = []
    for m in hm.modules.values():
        seen = {m.id}
        cur = m.parent
        while cur is not None:
            if cur.id in seen:
                out.append(Violation("ParentCycle", m.id,
                                     f"cycle through module {cur.id}"))
                break
            if hm.modules.get(cur.id) is not cur:
                out.append(Violation("DanglingParent", m.id,
                                     f"parent {cur.id} not in map"))
                break
            seen.add(cur.id)
            cur = cur.parent
    return out


def oracle_scenario_error(nodes) -> Optional[str]:
    """The message of the first error `Scenario` validation finds in the
    node tree `nodes` (node id -> NodeSpec), or None, by walking every
    node's whole parent chain (quadratic in depth). Nodes are judged in
    order: period, then the climb to a root; a climb that meets an unknown
    parent names the node that references it."""
    for spec in nodes.values():
        if spec.period_us <= 0:
            return f"node {spec.node_id} needs a positive period"
        seen = {spec.node_id}
        nid, cur = spec.node_id, spec.parent_id
        while cur is not None:
            if cur not in nodes:
                return f"node {nid} references unknown parent {cur}"
            if cur in seen:
                return f"node tree cycle through node {cur}"
            seen.add(cur)
            nid, cur = cur, nodes[cur].parent_id
    return None


def nest_xml(depth: int, first_id: int = 0, top: str = "M") -> str:
    """XML for a chain of `depth` modules, each the only child of the one
    before; the first is named `top`, the others "M"."""
    names = [top] + ["M"] * (depth - 1)
    return "".join(f'<module id="{first_id + d}" name="{names[d]}" '
                   f'criticality="LOW">' for d in range(depth)) \
        + "</module>" * depth


def reference_decode_entries(data: bytes) -> list[RmEntry]:
    """What `resourcemap.decode_entries` must return: one RmEntry per
    7-byte entry. A byte outside its enum is found by walking the entries
    in order and, within one, the fields in (severity, persistence,
    status) order."""
    fields = (("severity", SEVERITIES), ("persistence", PERSISTENCES),
              ("status", STATUSES))
    entries = []
    for i, (mid, *values) in enumerate(RM_ENTRY.iter_unpack(data)):
        members = []
        for (name, table), value in zip(fields, values):
            if value >= len(table):
                raise MalformedMessageError(
                    f"entry {i}: {name} byte {value} out of range")
            members.append(table[value])
        entries.append(RmEntry(mid, *members))
    return entries


def reference_decode_summary(data: bytes) -> tuple[int, list[RmEntry]]:
    """What `hierarchy.decode_summary` must return or raise."""
    if len(data) < 16:
        raise MalformedMessageError("message shorter than minimum")
    magic, version, node_id, count = struct.unpack_from("<4sHIH", data, 0)
    if magic != b"RMS1":
        raise MalformedMessageError(f"bad magic {magic!r}")
    if version != 1:
        raise MalformedMessageError(f"unsupported version {version}")
    expected = 12 + 7 * count + 4
    if len(data) != expected:
        raise MalformedMessageError(
            f"message length {len(data)}, expected {expected}")
    (stored,) = struct.unpack_from("<I", data, expected - 4)
    if crc32(data[:expected - 4]) != stored:
        raise CrcMismatchError("summary message checksum mismatch")
    return node_id, reference_decode_entries(data[12:expected - 4])


def reference_ingest_summary(parent_hm: HealthMap, parent_rm, message: bytes,
                             mapping, timestamp: int) -> int:
    """What `hierarchy.ingest_summary` must do, entry object by entry
    object: decode the whole summary, skip ZERO entries, record each routed
    faulty entry at its parent module and update the resource map once per
    parent module with the maxima of its faults, also when an entry
    fails. Returns the number of unrouted faulty entries."""
    node_id, entries = reference_decode_summary(message)
    if not mapping.knows_node(node_id):
        raise UnknownNodeError(f"summary from unmapped node {node_id}")
    detector_id = mapping.downlinks.get(node_id)
    has_detector = (detector_id is not None
                    and detector_id in parent_hm.diag_resources)
    worst: dict[int, tuple[Severity, Persistence]] = {}
    skipped = 0
    try:
        for entry in entries:
            if entry.severity == Severity.ZERO:
                continue
            parent_module = mapping.routes.get((node_id, entry.module_id))
            if parent_module is None:
                skipped += 1
                continue
            if not has_detector:
                raise UnknownDetectorError(
                    f"no downlink diag resource for node {node_id}")
            fault, _created = record_event(
                parent_hm, parent_module, entry.module_id & 0xFF,
                entry.severity, max(entry.persistence, Persistence.TRANSIENT),
                detector_id, timestamp, entry.module_id,
                DEFAULT_MERGE_WINDOW_US)
            sev, pers = worst.get(parent_module,
                                  (Severity.ZERO, Persistence.ZERO))
            worst[parent_module] = (max(sev, fault.severity),
                                    max(pers, fault.persistence))
    finally:
        for module_id, (sev, pers) in worst.items():
            parent_rm.update_single_fault(module_id, sev, pers,
                                          ModuleStatus.OWN_FAULT)
    return skipped
