"""Outside-in layer tracing: wrap a package's public functions from outside.

Each public function of each layer module is replaced by a timing wrapper in
every namespace that holds it: the package, its own module, and every other
module that imported it by name. Patching only the defining module would miss
calls such as ``bounds -> verify_ensemble``, which go through the importing
module's namespace.

A span is recorded per call (layer.function, start, end, parent span, op).
Self time is a span's duration minus the time its child spans cover. Spans
stay in memory until ``write_spans``. With ``alloc=True`` each span also
records its tracemalloc peak above the traced memory at its start.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
import tracemalloc
from collections import defaultdict


class LayerTracer:
    def __init__(self, package, layers, observers=None, alloc: bool = False):
        self.package = package
        self.layers = tuple(layers)
        self.observers = observers or {}
        self.alloc = alloc
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.alloc_peak: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.op = -1
        self._stack: list[list] = []
        self._patches: list[tuple] = []

    # -------------------------------------------------------------- patching

    def install(self) -> None:
        modules = {name: importlib.import_module(f"{self.package.__name__}.{name}") for name in self.layers}
        wrappers = {}
        for layer, module in modules.items():
            for name, fn in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for namespace in (self.package, *modules.values()):
            for attr, value in list(vars(namespace).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((namespace, attr, value))
                    setattr(namespace, attr, hit[1])
        if self.alloc:
            tracemalloc.start()

    def uninstall(self) -> None:
        if self.alloc:
            tracemalloc.stop()
        for namespace, attr, value in reversed(self._patches):
            setattr(namespace, attr, value)
        self._patches.clear()

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # --------------------------------------------------------------- wrapper

    def _wrap(self, key: str, fn):
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        calls, self_s, alloc_peak = self.calls, self.self_s, self.alloc_peak
        observe = self.observers.get(key)
        alloc = self.alloc
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if alloc:
                current, peak = tracemalloc.get_traced_memory()
                if parent is not None:
                    parent[4] = max(parent[4], peak)
                tracemalloc.reset_peak()
            else:
                current = 0
            span_id = len(spans) + len(stack)
            # [start, child time, span id, parent id, peak memory, memory at start]
            frame = [clock(), 0.0, span_id, parent[2] if parent else -1, current, current]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                calls[key] += 1
                self_s[key] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                if alloc:
                    frame[4] = max(frame[4], tracemalloc.get_traced_memory()[1])
                    tracemalloc.reset_peak()
                    alloc_peak[key] = max(alloc_peak[key], frame[4] - frame[5])
                    if parent is not None:
                        parent[4] = max(parent[4], frame[4])
                spans.append((frame[2], frame[3], tracer.op, key, frame[0], end))
            if observe is not None:
                observe(tracer.counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # --------------------------------------------------------------- reports

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """calls, self seconds and alloc peak (bytes) summed or maxed per layer."""
        out = {layer: {"calls": 0, "self_s": 0.0, "alloc_peak": 0} for layer in self.layers}
        for key, count in self.calls.items():
            layer = key.split(".", 1)[0]
            out[layer]["calls"] += count
            out[layer]["self_s"] += self.self_s[key]
        for key, peak in self.alloc_peak.items():
            layer = key.split(".", 1)[0]
            out[layer]["alloc_peak"] = max(out[layer]["alloc_peak"], peak)
        return out

    def write_spans(self, path) -> None:
        """One JSON document: span rows [id, parent, op, name, start, end]."""
        rows = sorted(self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["id", "parent", "op", "name", "start_s", "end_s"], "spans": rows}, fh)
