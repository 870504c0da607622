"""In-memory span tracer that wraps healthmap's public functions from the
outside; nothing in the package is modified on disk.

A wrapper replaces a function under every name its callers look it up
by: the defining module's attribute, each `from`-import of it in other
healthmap modules and the package namespace, and class attributes for
methods. Everything runs on one thread, so spans nest by call stack: each
span records (layer, name, start, end, parent index). Counts are taken at
the same wrappers, so ratios are measured where the work happens.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import Counter


def changed_bytes(old: bytes, new: bytes) -> list[int]:
    """Offsets below len(old) where `new` differs from `old`."""
    out = []
    step = 256
    for start in range(0, len(old), step):
        a, b = old[start:start + step], new[start:start + step]
        if a != b:
            out += [start + i for i, (x, y) in enumerate(zip(a, b)) if x != y]
    return out


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []     # [layer, name, start, end, parent]
        self.counts: Counter = Counter()
        self.appends: list[tuple[bytes, bytes]] = []   # append_changes in/out
        self.active = False
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- wrapping -----------------------------------------------------------

    def _span(self, layer, name, fn, before=None, after=None, label=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            token = before(args, kwargs) if before else None
            with tracer.region(layer, label(args) if label else name):
                result = fn(*args, **kwargs)
            if after:
                after(token, args, kwargs, result)
            return result
        return wrapper

    @contextlib.contextmanager
    def region(self, layer, name):
        """A span around a block: a wrapped call, or benchmark code running
        inside one, whose time is then not billed to the caller's self
        time."""
        if not self.active:
            yield
            return
        span = [layer, name, time.perf_counter(), 0.0,
                self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()

    def _counter(self, layer, name, fn):
        """Count calls, keyed by the innermost open span, without a span of
        their own (used for the recursive propagation step)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                parent = (tracer.spans[tracer._stack[-1]][1]
                          if tracer._stack else "-")
                tracer.counts[f"{layer}.{name}.calls@{parent}"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _replace_everywhere(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "healthmap" and not mod_name.startswith(
                    "healthmap."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def wrap_function(self, module, name, **hooks) -> None:
        layer = module.__name__.rsplit(".", 1)[-1]
        original = getattr(module, name)
        self._replace_everywhere(original,
                                 self._span(layer, name, original, **hooks))

    def wrap_method(self, cls, name, layer, count_only=False) -> None:
        original = cls.__dict__[name]
        wrapper = (self._counter(layer, name, original) if count_only
                   else self._span(layer, name, original))
        self._undo.append((cls, name, original))
        setattr(cls, name, wrapper)

    def uninstall(self) -> None:
        self.active = False
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the time covered by its direct children."""
        child = [0.0] * len(self.spans)
        for layer, name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[3] - s[2] - c for s, c in zip(self.spans, child)]

    def durations(self, name: str, self_time: bool = False) -> list[float]:
        selfs = self.self_times() if self_time else None
        return [selfs[i] if self_time else s[3] - s[2]
                for i, s in enumerate(self.spans)
                if s[1] == name or s[1].startswith(name + ":")]

    def within(self, inner: str, outer_prefix: str) -> float:
        """Total duration of `inner` spans that have an ancestor whose name
        starts with `outer_prefix`."""
        total = 0.0
        for s in self.spans:
            if s[1] != inner:
                continue
            p = s[4]
            while p >= 0 and not self.spans[p][1].startswith(outer_prefix):
                p = self.spans[p][4]
            if p >= 0:
                total += s[3] - s[2]
        return total

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for layer, name, start, end, parent in self.spans:
                fh.write(json.dumps({"layer": layer, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent}) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer."""
    from healthmap import (affinity, cli, codec, compiler, faultmgr,
                           footprint, hierarchy, model, resourcemap)

    counts = tracer.counts

    def detections_before(args, kwargs):
        return len(args[0].detections)

    def classify_report(before, args, kwargs, result):
        _fault, created = result
        added = len(args[0].detections) - before
        counts["faultmgr.report_detection.calls"] += 1
        counts["faultmgr.report_detection.created" if created else
               "faultmgr.report_detection.appended" if added else
               "faultmgr.report_detection.merged"] += 1

    def append_bytes(_before, args, kwargs, result):
        # diffing here would bill its cost to the enclosing spans, so keep
        # the two images and diff them in layer_metrics
        tracer.appends.append((args[0], result))

    def skipped(_before, args, kwargs, result):
        counts["hierarchy.ingest_summary.skipped"] += result

    def cli_label(args):
        argv = args[0] if args else None
        return f"main:{argv[0]}" if argv else "main"

    tracer.wrap_function(cli, "main", label=cli_label)
    for name in ("serialize", "deserialize", "validate_image"):
        tracer.wrap_function(codec, name)
    tracer.wrap_function(codec, "append_changes", after=append_bytes)
    for name in ("parse_description", "build_map"):
        tracer.wrap_function(compiler, name)
    tracer.wrap_function(faultmgr, "report_detection",
                         before=detections_before, after=classify_report)
    for name in ("init_resource_map", "render_table"):
        tracer.wrap_function(resourcemap, name)
    tracer.wrap_function(affinity, "compute_affinity")
    for name in ("encode_summary", "decode_summary", "simulate"):
        tracer.wrap_function(hierarchy, name)
    tracer.wrap_function(hierarchy, "ingest_summary", after=skipped)
    tracer.wrap_function(footprint, "synthesize_map")
    tracer.wrap_method(resourcemap.ResourceMap, "encode", "resourcemap")
    tracer.wrap_method(resourcemap.ResourceMap, "update_single_fault",
                       "resourcemap", count_only=True)
    tracer.wrap_method(model.HealthMap, "subtree_ids", "model")
