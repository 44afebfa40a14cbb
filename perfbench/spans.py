"""In-memory span tracer for the softrig layers.

``Tracer.install`` wraps every public function and every public method of
the ten layer modules and rebinds each wrapper at every ``softrig.*``
module attribute that referred to the original, so ``from .x import f``
call sites, intra-module calls and any call site added later are all
timed.  Each call updates per-name counters (calls, inclusive seconds,
self seconds) under the current scope; self time is a span's duration
minus the time its child spans cover.  While ``record`` is on, the first
SPAN_CAP spans (name, start, end, parent) are also kept in flat arrays and
written out by ``dump_spans``.
"""
from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from array import array

PACKAGE = "softrig"
SPAN_CAP = 50_000          # spans kept in memory; counters cover every call
LAYERS = ("scenario", "geometry", "spiral", "jacobian", "wheelmodel",
          "thermal", "planner", "simulator", "outputs", "cli")


class Tracer:
    def __init__(self):
        self.scope = "op"
        self.record = False
        self.stats: dict[tuple[str, str], list] = {}
        self._stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._span_name = array("l")
        self._span_parent = array("l")
        self._span_start = array("d")
        self._span_end = array("d")

    def _open_span(self, name: str, start: float) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self._names)
            self._names.append(name)
        parent = self._stack[-1][1] if self._stack else -1
        self._span_name.append(name_id)
        self._span_parent.append(parent)
        self._span_start.append(start)
        self._span_end.append(math.nan)
        return len(self._span_name) - 1

    def _wrap(self, name: str, fn):
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = clock()
            recording = tracer.record and len(tracer._span_name) < SPAN_CAP
            frame = [0.0, tracer._open_span(name, t0) if recording else -1]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                key = (tracer.scope, name)
                entry = tracer.stats.get(key)
                if entry is None:
                    entry = tracer.stats[key] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += dur
                entry[2] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if frame[1] >= 0:
                    tracer._span_end[frame[1]] = t1

        return traced

    def install(self) -> None:
        """Wrap the layers' public callables at every softrig binding."""
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._restore.append((obj, meth, fn))
                            setattr(obj, meth,
                                    self._wrap(f"{layer}.{attr}.{meth}", fn))
        prefix = PACKAGE + "."
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE
                                   or mod_name.startswith(prefix)):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def scope_stats(self, scope: str) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, inclusive seconds, self seconds) for one scope."""
        return {name: tuple(v) for (sc, name), v in self.stats.items()
                if sc == scope}

    def dump_spans(self, path: str, trace_id: str) -> int:
        """Write the recorded spans as JSON; returns the span count."""
        t_ref = self._span_start[0] if self._span_start else 0.0
        spans = [[self._names[n], p, round((s - t_ref) * 1e6, 3),
                  round((e - t_ref) * 1e6, 3)]
                 for n, p, s, e in zip(self._span_name, self._span_parent,
                                       self._span_start, self._span_end)]
        with open(path, "w") as fh:
            json.dump({"trace_id": trace_id,
                       "columns": ["name", "parent", "start_us", "end_us"],
                       "spans": spans}, fh)
            fh.write("\n")
        return len(spans)
