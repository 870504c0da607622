"""Seeded input generators for the three workloads.

Everything here is a pure function of a `random.Random`, so one seed
always yields byte-identical inputs; `digest` hashes them so two commits
can be shown to have run the same work. The program under test sees only
the generated XML, images, sidecars, task files and scenario files.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import re

SEVERITIES = ("LOW", "MEDIUM", "HIGH")
CRITICALITIES = ("ZERO", "LOW", "MEDIUM", "HIGH")
MERGE_WINDOW_US = 1_000_000      # faultmgr's default merge window

# 15 sub-modules per core; "A.B" nests B under A, giving depth 3 below the
# core so propagation climbs more than one level.
CORE_SUBMODULES = ("FPU", "ALU", "LSU", "L2", "L2.L1I", "L2.L1D", "MMU",
                   "MMU.TLB", "BPU", "DEC", "ROB", "RF", "VEC", "PMU", "CSR")
SYSTEM_MODULES = ("NOC", "MEM", "DMA", "PWR", "CLK", "IO", "SEC", "DBG", "L3")
CORE_BASE = 100                  # core k has module ids 100 + 100k + local
CORE_STRIDE = 100
INSTRUMENTS_PER_MODULE = 2

TASKS = """\
task fpu_job needs=FPU
task vec_job needs=FPU,VEC maxSev=LOW maxPers=TRANSIENT
task mem_job needs=L2.L1D,MMU.TLB maxSev=MEDIUM maxPers=INTERMITTENT
task tolerant_job needs=ALU maxSev=HIGH maxPers=PERMANENT
task strict_job maxSev=LOW
task any_core
"""


def digest(*parts) -> str:
    """sha256 over the given str/bytes parts, each length-prefixed."""
    h = hashlib.sha256()
    for part in parts:
        data = part.encode() if isinstance(part, str) else bytes(part)
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest()[:16]


def zipf_picker(rng: random.Random, items, s: float = 1.1):
    """Return pick() drawing from `items` with weight 1/rank**s; the rank
    order is a seeded shuffle, so which items are hot depends on the seed."""
    order = list(items)
    rng.shuffle(order)
    cum = list(itertools.accumulate(1.0 / (r ** s)
                                    for r in range(1, len(order) + 1)))
    return lambda: rng.choices(order, cum_weights=cum)[0]


def pick_severity(rng: random.Random) -> str:
    return rng.choices(SEVERITIES, weights=(6, 3, 1))[0]


def pick_class(rng: random.Random) -> int:
    """Mostly the two classes synthesized maps already carry (0/1), a few
    new ones, all within the u8 range."""
    r = rng.random()
    return 0 if r < 0.6 else 1 if r < 0.95 else rng.randint(2, 255)


def next_timestamp(rng: random.Random, t: int) -> int:
    """Advance a clock so that consecutive reports fall partly inside and
    partly outside the merge window."""
    if rng.random() < 0.7:
        return t + int(rng.expovariate(1 / 200_000)) + 1
    return t + rng.randint(MERGE_WINDOW_US + 1, 5 * MERGE_WINDOW_US)


# -- SoC description --------------------------------------------------------

def soc_xml(rng: random.Random, cores: int) -> str:
    """XML description of a `cores`-core SoC: 10 system modules plus 16 per
    core via <template>, i.e. the footprint model's M = 16*C + 10."""
    sub_crit = [rng.choice(CRITICALITIES[1:]) if rng.random() < 0.85
                else "ZERO" for _ in CORE_SUBMODULES]
    lines = ['<healthmap version="1">',
             '  <module id="1" name="SYS" criticality="ZERO">',
             '    <instrument id="1" kind="0"/>']
    next_inst = 2
    for i, name in enumerate(SYSTEM_MODULES):
        crit = rng.choice(CRITICALITIES)
        lines.append(f'    <module id="{2 + i}" name="{name}" '
                     f'criticality="{crit}">')
        for _ in range(INSTRUMENTS_PER_MODULE):
            lines.append(f'      <instrument id="{next_inst}" kind="3"/>')
            next_inst += 1
        lines.append('    </module>')
    lines.append(f'    <template name="cores" count="{cores}" '
                 f'baseId="{CORE_BASE}" idStride="{CORE_STRIDE}">')
    lines.append('      <module id="0" name="C{i}" criticality="MEDIUM" '
                 'coreId="{i}">')
    lines.append('        <instrument id="1" kind="1"/>')
    inst = 2

    def emit(path: tuple[str, ...], depth: int) -> None:
        nonlocal inst
        pad = "  " * (depth + 4)
        local = CORE_SUBMODULES.index(".".join(path)) + 1
        crit = sub_crit[local - 1]
        lines.append(f'{pad}<module id="{local}" name="{path[-1]}" '
                     f'criticality="{crit}">')
        for _ in range(INSTRUMENTS_PER_MODULE):
            lines.append(f'{pad}  <instrument id="{inst}" kind="2"/>')
            inst += 1
        for child in CORE_SUBMODULES:
            parts = tuple(child.split("."))
            if parts[:-1] == path:
                emit(parts, depth + 1)
        lines.append(f'{pad}</module>')

    for name in CORE_SUBMODULES:
        if "." not in name:
            emit((name,), 0)
    lines.append('      </module>')
    lines.append('    </template>')
    lines.append('  </module>')

    def core_module(k: int, sub: str = "") -> int:
        local = CORE_SUBMODULES.index(sub) + 1 if sub else 0
        return CORE_BASE + k * CORE_STRIDE + local

    deps = []
    for k in range(cores):
        # interconnect and memory faults reach every core, one hop
        deps.append((2, core_module(k), "LOW"))
        deps.append((3, core_module(k, "L2"), "MEDIUM"))
        deps.append((core_module(k, "L2.L1D"), core_module(k, "LSU"),
                     rng.choice(SEVERITIES)))
        deps.append((core_module(k, "FPU"), core_module(k, "VEC"), "LOW"))
    for provider, dependent, sev in deps:
        lines.append(f'  <dependency provider="{provider}" '
                     f'dependent="{dependent}" severity="{sev}"/>')
    lines.append('</healthmap>')
    return "\n".join(lines) + "\n"


# -- field_image --------------------------------------------------------------

def synthesized_names(hm) -> dict[int, str]:
    """Dotted names for a `footprint.synthesize_map` map: SYS, SYS.S<n>
    for system modules, SYS.C<k> for cores and SYS.C<k>.U<j> below."""
    has_children = {m.parent.id for m in hm.modules.values() if m.parent}
    names: dict[int, str] = {}
    system = cores = 0
    for mid, m in hm.modules.items():
        if m.parent is None:
            names[mid] = "SYS"
        elif m.parent.parent is None and mid in has_children:
            names[mid] = f"SYS.C{cores}"
            cores += 1
        elif m.parent.parent is None:
            system += 1
            names[mid] = f"SYS.S{system}"
        else:
            sibling = sum(1 for o in names if hm.modules[o].parent is m.parent)
            names[mid] = f"{names[m.parent.id]}.U{sibling + 1}"
    return names


def sidecar_text(names: dict[int, str]) -> str:
    """Sidecar lines; SYS.C<k> carries OS core id k."""
    lines = []
    for mid, name in names.items():
        core = re.fullmatch(r"SYS\.C(\d+)", name)
        lines.append(f"{mid} {name}" + (f" core={core[1]}" if core else ""))
    return "\n".join(lines) + "\n"


def field_image_ops(rng: random.Random, detector_ids, core_names,
                    injects: int, queries: int) -> list[tuple]:
    """A fixed sequence of `hm inject` / `hm rm` operations at seeded
    positions. Inject: ("inject", detector, sev, class, t); rm: ("rm",
    maintenance name or None)."""
    ops: list[tuple] = [("inject", *r) for r in
                        detection_reports(rng, detector_ids, injects)]
    for _ in range(queries):
        ops.insert(rng.randint(1, len(ops)), (
            "rm", rng.choice(core_names) if rng.random() < 0.5 else None))
    return ops


# -- detection reports (field_image, resident_sched) --------------------------

def detection_reports(rng: random.Random, detector_ids,
                      count: int) -> list[tuple[int, str, int, int]]:
    """(detector, severity name, class, timestamp) with Zipf detectors. A
    third of the reports repeat the previous detector and class shortly
    after (a flapping sensor), so merges into an existing detection occur
    next to new detections and new faults."""
    pick_detector = zipf_picker(rng, detector_ids)
    out = []
    t = 0
    for _ in range(count):
        if out and rng.random() < 0.3:
            det, _sev, cls, _t = out[-1]
            t += rng.randint(1, MERGE_WINDOW_US // 4)
        else:
            det, cls = pick_detector(), pick_class(rng)
            t = next_timestamp(rng, t)
        out.append((det, pick_severity(rng), cls, t))
    return out


# -- rollup -------------------------------------------------------------------

ROLLUP_CHILDREN = 8
ROLLUP_CHILD_CORES = 16
ROLLUP_CHILD_PERIOD_US = 10_000
ROLLUP_ROOT_PERIOD_US = 50_000
ROLLUP_DURATION_US = 1_000_000
ROLLUP_EVENTS = 2000
# child modules left unrouted, so the parent skips their faulty entries:
# the child's root (always faulty once anything is), DBG and core 0's PMU
ROLLUP_UNMAPPED = (1, 2 + SYSTEM_MODULES.index("DBG"),
                   CORE_BASE + 1 + CORE_SUBMODULES.index("PMU"))


def board_xml(children: int) -> str:
    """Root node: BOARD with, per child k, NODE<k> (carrying the downlink
    instrument 10k+1) and its SYS and CORES modules."""
    lines = ['<healthmap version="1">',
             '  <module id="1" name="BOARD" criticality="ZERO">']
    for k in range(1, children + 1):
        lines += [
            f'    <module id="{10 * k}" name="NODE{k}" criticality="MEDIUM">',
            f'      <instrument id="{10 * k + 1}" kind="7"/>',
            f'      <module id="{10 * k + 2}" name="SYS" criticality="LOW"/>',
            f'      <module id="{10 * k + 3}" name="CORES" '
            f'criticality="HIGH"/>',
            '    </module>']
    lines += ['  </module>', '</healthmap>']
    return "\n".join(lines) + "\n"


def board_mapping(node: int, child_module_ids) -> str:
    lines = [f"downlink {node} {10 * node + 1}"]
    for mid in child_module_ids:
        if mid in ROLLUP_UNMAPPED:
            continue
        target = 10 * node + (3 if mid >= CORE_BASE else 2)
        lines.append(f"child {node} {mid} -> {target}")
    return "\n".join(lines)


def rollup_files(rng: random.Random) -> dict[str, str]:
    """All files of the roll-up scenario, keyed by file name; `run.scn` is
    the scenario. Child node k uses child<k>.xml; the board is node 0."""
    files = {"board.xml": board_xml(ROLLUP_CHILDREN)}
    children_modules: dict[int, list[int]] = {}
    detectors: dict[int, list[int]] = {}
    for k in range(1, ROLLUP_CHILDREN + 1):
        xml = soc_xml(rng, ROLLUP_CHILD_CORES)
        files[f"child{k}.xml"] = xml
        children_modules[k] = xml_ids(xml, "module")
        detectors[k] = xml_ids(xml, "instrument")
    files["board.map"] = "\n".join(
        board_mapping(k, children_modules[k])
        for k in range(1, ROLLUP_CHILDREN + 1)) + "\n"
    pickers = {k: zipf_picker(rng, d) for k, d in detectors.items()}
    lines = [f"duration {ROLLUP_DURATION_US}",
             f"node 0 hm=board.xml map=board.map "
             f"period={ROLLUP_ROOT_PERIOD_US} parent=none"]
    for k in range(1, ROLLUP_CHILDREN + 1):
        lines.append(f"node {k} hm=child{k}.xml map=none "
                     f"period={ROLLUP_CHILD_PERIOD_US} parent=0")
    events = sorted((rng.randrange(ROLLUP_DURATION_US), rng.randint(
        1, ROLLUP_CHILDREN)) for _ in range(ROLLUP_EVENTS))
    for t, k in events:
        lines.append(f"at {t} node {k} detect {pickers[k]()} "
                     f"sev={pick_severity(rng)} class={pick_class(rng)}")
    files["run.scn"] = "\n".join(lines) + "\n"
    return files


def xml_ids(xml: str, tag: str) -> list[int]:
    """Absolute ids of every <tag> in a soc_xml description, templates
    expanded by the same rule the compiler documents."""
    pattern = re.compile(rf'<{tag} id="(\d+)"')
    head, _, rest = xml.partition("<template")
    body, _, tail = rest.partition("</template>")
    count = int(re.search(r'count="(\d+)"', body).group(1))
    ids = [int(x) for x in pattern.findall(head + tail)]
    local = [int(x) for x in pattern.findall(body)]
    for k in range(count):
        ids += [CORE_BASE + k * CORE_STRIDE + x for x in local]
    return ids
