"""Host-speed reference for timings taken on a shared machine.

The machine this benchmark was written on changes speed by up to 1.5x
within a minute (other tenants share its cores), which moves every
wall-clock timing of a run together. So each run also times a fixed
reference loop between its operations, and the gated metrics are given at
*reference speed*, the speed at which that loop takes REFERENCE_S:

    reference-speed time = wall time * REFERENCE_S / (recent loop times)

The loop works the interpreter the way healthmap's load path does
(struct unpacking, building and linking small objects, dicts, a sort) but
never calls the package, so a change to the program moves reference-speed
times and a change in host speed mostly does not. Over 80 s of alternating
calls, 5 s medians of `deserialize` moved by up to 1.39x in wall time and
by 1.16x at reference speed (1.07x outside one 10 s window). At reference
speed the two clocks agree; runs print the wall-clock values too.
"""

from __future__ import annotations

import gc
import statistics
import struct
import time
from dataclasses import dataclass

REFERENCE_S = 1.5e-3
WINDOW = 5                 # loop timings the current estimate rests on

_RECORD = struct.Struct("<IIQIIB")
_DATA = bytes(range(256)) * 120


@dataclass(eq=False)
class _Node:
    key: int
    value: int
    stamp: int
    parent: object = None
    children: list = None


def reference_loop() -> int:
    nodes = {}
    prev = None
    for off in range(0, len(_DATA) - _RECORD.size, _RECORD.size):
        a, b, stamp, c, _d, flags = _RECORD.unpack_from(_DATA, off)
        node = _Node(a ^ flags, b + c, stamp, prev, [])
        if prev is not None:
            prev.children.append(node)
        nodes[off] = node
        prev = node
    ordered = sorted(nodes.values(), key=lambda n: n.value)
    return sum(n.stamp & 0xFF for n in ordered)


class Speed:
    """Estimate of host speed from recent timings of the reference loop."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> float:
        """Time the loop once; returns the seconds it took."""
        # a collection inside the loop would scan the program's heap and
        # make the reference depend on the program's state
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            reference_loop()
            elapsed = time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()
        self.samples.append(elapsed)
        return elapsed

    def factor(self, since: int | None = None) -> float:
        """Multiply a wall time by this to get reference-speed time; from
        the last WINDOW loop timings, or from all since index `since`."""
        recent = self.samples[-WINDOW:] if since is None else \
            self.samples[since:]
        return REFERENCE_S / statistics.median(recent)
