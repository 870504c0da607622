"""Memory footprint model for an MPSoC health map.

Entity counts scale with the core count C:

    modules          M  = 16*C + 10   (16 modules per core: the core plus
                                       15 sub-modules; 10 system modules)
    diag resources   R  = 3*M
    dependencies     D  = M
    faults           F  = 2*D
    detections       FD = 10*F

Byte totals follow from the record sizes of the binary image;
`synthesize_map` builds a concrete map hitting the counts exactly so the
estimate can be cross-checked against the serializer.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codec import (
    DEP_SIZE,
    DET_SIZE,
    DIAG_SIZE,
    FAULT_SIZE,
    HEADER_SIZE,
    MODULE_SIZE,
    counts_fit,
    image_length,
)
from .errors import InvalidCoreCountError
from .model import HealthMap, Persistence, Severity, quote_int
from .resourcemap import RM_ENTRY_SIZE


@dataclass(frozen=True)
class FootprintEstimate:
    core_count: int
    modules: int
    diag_resources: int
    dependencies: int
    faults: int
    detections: int
    total_shm_bytes: int
    rm_bytes: int

    def render(self) -> str:
        rows = [
            ("Header", 1, HEADER_SIZE),
            ("Module", self.modules, MODULE_SIZE),
            ("Diag resource", self.diag_resources, DIAG_SIZE),
            ("Dependency", self.dependencies, DEP_SIZE),
            ("Fault", self.faults, FAULT_SIZE),
            ("Fault detection", self.detections, DET_SIZE),
        ]
        lines = [f"Cores: {self.core_count}",
                 f"{'Entity':<16}{'Amount':>8}{'Size':>6}{'Bytes':>8}"]
        for name, amount, size in rows:
            lines.append(f"{name:<16}{amount:>8}{size:>6}{amount * size:>8}")
        lines.append(f"Total {self.total_shm_bytes}")
        lines.append(f"RM {self.modules} x {RM_ENTRY_SIZE} = "
                     f"{self.rm_bytes} bytes")
        return "\n".join(lines)


def estimate(core_count: int) -> FootprintEstimate:
    """The entity counts and byte totals of a `core_count`-core map. A
    count whose image the header cannot count (above 1 364 cores, where R
    passes 0xFFFF) is refused, quoted by `quote_int`."""
    if core_count < 1:
        raise InvalidCoreCountError("core count must be at least 1")
    m = 16 * core_count + 10
    r = 3 * m
    d = m
    f = 2 * d
    fd = 10 * f
    if not counts_fit(m, r, d, f, fd):
        raise InvalidCoreCountError(
            f"core count {quote_int(core_count)}: an image header cannot "
            f"count the records of that many cores")
    return FootprintEstimate(
        core_count=core_count,
        modules=m,
        diag_resources=r,
        dependencies=d,
        faults=f,
        detections=fd,
        total_shm_bytes=image_length(m, r, d, f, fd),
        rm_bytes=RM_ENTRY_SIZE * m,
    )


def synthesize_map(core_count: int) -> HealthMap:
    """A structurally valid map with exactly the estimated entity counts."""
    est = estimate(core_count)
    hm = HealthMap()
    next_instrument = [1]

    def add_module(module_id: int, parent_id=None) -> int:
        hm.add_module(module_id, parent_id, Severity.LOW)
        for _ in range(3):
            hm.add_diag_resource(next_instrument[0], module_id, kind=0)
            next_instrument[0] += 1
        return module_id

    # 10 system modules plus 16 per core (the core and 15 sub-modules),
    # matching the M = 16*C + 10 total
    module_ids = []
    root = add_module(1)
    module_ids.append(root)
    for i in range(9):                      # remaining system modules
        module_ids.append(add_module(2 + i, root))
    next_id = 11
    for _core in range(core_count):
        core_id = add_module(next_id, root)
        module_ids.append(core_id)
        next_id += 1
        for _ in range(15):                 # core sub-modules
            module_ids.append(add_module(next_id, core_id))
            next_id += 1
    assert len(module_ids) == est.modules

    for i, mid in enumerate(module_ids):    # one dependency per module
        other = module_ids[(i + 1) % len(module_ids)]
        hm.add_dependency(mid, other, Severity.LOW)

    timestamp = 0
    for mid in module_ids:                  # two faults, ten detections each
        detector = hm.modules[mid].diag_resources[0].id
        for classification in (0, 1):
            fault = hm.add_fault(mid, Severity.LOW, Persistence.TRANSIENT,
                                 classification)
            for _ in range(10):
                hm.add_detection(fault, detector, timestamp)
                timestamp += 1
    return hm
