"""Growth and depth sweep (traced runs only; not a workload).

Times four steps on `footprint.synthesize_map(C)` maps (and, for the
compiler, the same-sized SoC XML) over doubling core counts, and fits the
growth exponent of time against module count. A size whose call runs over
the per-size budget is recorded as "timeout" along with every larger size,
which is then not run; a parent chain deeper than propagation can recurse
is recorded as "error". Neither is ever dropped, so known defects stay
visible in the numbers.
"""

from __future__ import annotations

import math
import random
import statistics
import time

import inputs

from healthmap import codec, compiler, footprint, resourcemap
from healthmap.model import HealthMap, Persistence, Severity

SIZES = (1, 2, 4, 8, 16, 32, 64, 128)
BUDGET_S = 1.0
REPEATS = 3
DEPTHS = (100, 200, 400, 600, 800, 1200)
FIT_FLOOR_S = 0.5e-3      # below this, timer noise dominates the fit


def timed(call) -> float:
    """Median of up to REPEATS calls; a single call when one is slow."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
        if times[-1] > BUDGET_S / REPEATS:
            break
    return statistics.median(times)


def chain_map(depth: int) -> HealthMap:
    """Modules 1..depth, each the parent of the next, one fault at the
    leaf, so propagation climbs the whole chain."""
    hm = HealthMap()
    for mid in range(1, depth + 1):
        hm.add_module(mid, mid - 1 if mid > 1 else None, Severity.LOW)
    hm.add_diag_resource(1, depth)
    hm.add_fault_with_detection(depth, Severity.HIGH, Persistence.TRANSIENT,
                                0, 1, 0)
    return hm


def fit_exponent(points: dict[int, object]) -> float:
    """Least-squares slope of log(time) on log(modules); 0 if under two
    usable points."""
    xy = [(math.log(16 * c + 10), math.log(t)) for c, t in points.items()
          if isinstance(t, float) and t >= FIT_FLOOR_S]
    if len(xy) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in xy)
    my = statistics.fmean(y for _, y in xy)
    sxx = sum((x - mx) ** 2 for x, _ in xy)
    return sum((x - mx) * (y - my) for x, y in xy) / sxx


def run_sweep() -> dict:
    steps = ("codec.serialize", "codec.deserialize",
             "resourcemap.init_resource_map", "compiler.parse_description")
    table: dict[str, dict] = {step: {} for step in steps}
    for cores in SIZES:
        if all(table[s].get(cores // 2) == "timeout" for s in steps):
            for step in steps:
                table[step][cores] = "timeout"
            continue
        hm = footprint.synthesize_map(cores)
        image = codec.serialize(hm)
        xml = inputs.soc_xml(random.Random(cores), cores)
        calls = {
            "codec.serialize": lambda: codec.serialize(hm),
            "codec.deserialize": lambda: codec.deserialize(image),
            "resourcemap.init_resource_map":
                lambda: resourcemap.init_resource_map(hm),
            "compiler.parse_description":
                lambda: compiler.parse_description(xml),
        }
        for step in steps:
            if table[step].get(cores // 2) == "timeout":
                table[step][cores] = "timeout"
                continue
            seconds = timed(calls[step])
            table[step][cores] = "timeout" if seconds > BUDGET_S else seconds
    depth = {}
    for d in DEPTHS:
        hm = chain_map(d)
        try:
            depth[d] = timed(lambda: resourcemap.init_resource_map(hm))
        except RecursionError:
            depth[d] = "error"
    return {
        "sizes": table,
        "depth": {"resourcemap.init_resource_map": depth},
        "exponents": {step: fit_exponent(points)
                      for step, points in table.items()},
    }
