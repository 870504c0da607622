"""Health map toolkit: fault bookkeeping for SoC health management.

Compile an XML system description into a relocatable binary health map,
ingest and classify fault detections, summarize module health into a
resource map with criticality-capped propagation, emit task affinity
masks, and roll summaries up a node hierarchy.
"""

from .affinity import (AffinityMask, TaskRequirement, compute_affinity,
                       format_masks, parse_task_file)
from .codec import (
    append_changes,
    crc32,
    deserialize,
    serialize,
    validate_image,
)
from .compiler import (
    HmDescription,
    Sidecar,
    build_map,
    compile_description,
    compile_xml,
    parse_description,
)
from .errors import HealthMapError
from .faultmgr import (
    DetectionReport,
    prune,
    report_detection,
)
from .footprint import FootprintEstimate, estimate, synthesize_map
from .hierarchy import (
    ChildMapping,
    Scenario,
    decode_summary,
    encode_summary,
    ingest_summary,
    simulate,
)
from .model import (
    HealthMap,
    ModuleStatus,
    Persistence,
    Severity,
)
from .resourcemap import (
    ResourceMap,
    RmEntry,
    init_resource_map,
    render_table,
)

__version__ = "0.1.0"

__all__ = [
    "AffinityMask",
    "ChildMapping",
    "DetectionReport",
    "FootprintEstimate",
    "HealthMap",
    "HealthMapError",
    "HmDescription",
    "ModuleStatus",
    "Persistence",
    "ResourceMap",
    "RmEntry",
    "Scenario",
    "Severity",
    "Sidecar",
    "TaskRequirement",
    "append_changes",
    "build_map",
    "compile_description",
    "compile_xml",
    "compute_affinity",
    "format_masks",
    "parse_task_file",
    "crc32",
    "decode_summary",
    "deserialize",
    "encode_summary",
    "estimate",
    "ingest_summary",
    "init_resource_map",
    "parse_description",
    "prune",
    "render_table",
    "report_detection",
    "serialize",
    "simulate",
    "synthesize_map",
    "validate_image",
]
