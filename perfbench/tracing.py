"""Spans around every call into markovgeo's layer modules, recorded from outside.

``Tracer.install`` rebinds each public function of the layer modules, wherever
markovgeo binds it (the package, the defining module, and every module that
imported it), to a wrapper that records a span; ``uninstall`` puts the
originals back. Calls the program makes between its own modules are therefore
traced too. Times are CPU seconds of the client's thread, as in speed.py. A function's
self time is its span time minus the time of the traced calls made inside it.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import time
import types

LAYERS = ("graph", "spectral", "coordinates", "divergence", "potential", "inference")
# spans kept for the trace file; the per-function totals count every call
SPAN_CAP = 50_000


class Tracer:
    def __init__(self):
        # name -> [calls, self seconds]
        self.totals = {}
        # (span id, parent span id, query id, name, start, end)
        self.spans = []
        self.query_id = None
        self._stack = []
        self._ids = itertools.count()
        self._patches = []

    def _wrap(self, name, fn):
        totals = self.totals.setdefault(name, [0, 0.0])
        stack, spans, ids, clock = self._stack, self.spans, self._ids, time.thread_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [next(ids), 0.0]  # span id, seconds spent in traced children
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                totals[0] += 1
                totals[1] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                if len(spans) < SPAN_CAP:
                    spans.append((frame[0], parent and parent[0], self.query_id, name, start, end))

        return traced

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"markovgeo.{layer}"]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if isinstance(fn, types.FunctionType) and fn.__module__ == module.__name__:
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        for name, module in list(sys.modules.items()):
            if name != "markovgeo" and not name.startswith("markovgeo."):
                continue
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def write(self, path):
        with open(path, "w") as fh:
            fh.write(json.dumps({"totals": self.totals, "spans_kept": len(self.spans)}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
