"""Span tracer that instruments shapecorr from outside, by rebinding names.

Every public function defined in a shapecorr module becomes a span, except
the few called per BVH node or per point (a span each would cost more than
the work it times). Named methods become spans or bare call counters.

A module often imports a function by name (``pipeline`` binds ``compose``,
``decimate`` binds ``project_points_to_surface``), so patching the defining
module alone would miss those calls: every attribute of every loaded
shapecorr module that *is* the original function object is replaced.
Modules are reached through ``importlib`` because the package re-exports
some functions under their module's name (``shapecorr.decimate``).

A self time is a span's duration minus the time of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time
from collections import defaultdict

import layers

PACKAGE = "shapecorr"
UNTRACED = frozenset({"geometry.closest_points_on_triangles",
                      "spatial.ray_triangle_intersections"})


class Tracer:
    def __init__(self):
        self.phase = "setup"  # the benchmark switches this to "loop"
        self.unit = 0  # id shared by the spans of one instance or pass
        self.spans = []  # (name, parent index, unit, phase, start, end)
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.counts = defaultdict(float)  # (phase, key) -> summed value
        self.peaks = defaultdict(float)  # (phase, key) -> largest value
        self.wrapped = set()
        self.absent = []
        self._stack = []  # [span index, seconds spent in children]
        self._patches = []  # (owner, attribute, original)

    # --- recording ---

    def add(self, key, value=1):
        self.counts[(self.phase, key)] += value

    def peak(self, key, value):
        k = (self.phase, key)
        self.peaks[k] = max(self.peaks[k], value)

    def _span(self, name, fn, before, after):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pre = before(tracer, args, kwargs) if before else None
            parent = tracer._stack[-1][0] if tracer._stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            frame = [index, 0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                duration = end - start
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                tracer.spans[index] = (name, parent, tracer.unit,
                                       tracer.phase, start, end)
                s = tracer.stats[(tracer.phase, name)]
                s[0] += 1
                s[1] += duration
                s[2] += duration - frame[1]
            if after:
                after(tracer, args, kwargs, result, pre)
            return result
        return wrapper

    def _counter(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.stats[(tracer.phase, name)][0] += 1
            return fn(*args, **kwargs)
        return wrapper

    # --- patching ---

    def install(self):
        """Wrap every public module function, the methods of
        ``layers.METHODS`` as spans and those of ``layers.COUNTED`` as call
        counters, with the hooks of ``layers.BEFORE``/``layers.AFTER``."""
        before, after = layers.BEFORE, layers.AFTER
        counted = layers.COUNTED
        pkg = importlib.import_module(PACKAGE)
        replace = {}
        for info in pkgutil.iter_modules(pkg.__path__):
            mod = importlib.import_module(f"{PACKAGE}.{info.name}")
            for attr, fn in vars(mod).items():
                name = f"{info.name}.{attr}"
                if (attr.startswith("_") or name in UNTRACED
                        or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                replace[id(fn)] = (fn, self._span(name, fn, before.get(name),
                                                  after.get(name)))
                self.wrapped.add(name)
        for mod in [m for n, m in sys.modules.items()
                    if n == PACKAGE or n.startswith(PACKAGE + ".")]:
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1])
        for target in layers.METHODS + counted:
            module, cls_name, meth = target.rsplit(".", 2)
            try:
                cls = getattr(importlib.import_module(
                    f"{PACKAGE}.{module}"), cls_name)
                fn = cls.__dict__[meth]
            except (ImportError, AttributeError, KeyError):
                self.absent.append(target)
                continue
            wrapper = (self._counter(target, fn) if target in counted else
                       self._span(target, fn, before.get(target),
                                  after.get(target)))
            self._patch(cls, meth, wrapper)
            self.wrapped.add(target)

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # --- reading ---

    def _stat(self, phase, name, i):
        return self.stats[(phase, name)][i] if (phase, name) in self.stats \
            else 0

    def calls(self, phase, name):
        return self._stat(phase, name, 0)

    def total(self, phase, name):
        return self._stat(phase, name, 1)

    def self_time(self, phase, name):
        return self._stat(phase, name, 2)

    def self_times(self, phase):
        """Self seconds per span name in one phase, largest first."""
        out = {n: s[2] for (p, n), s in self.stats.items()
               if p == phase and (s[1] or s[2])}
        return dict(sorted(out.items(), key=lambda kv: -kv[1]))

    def dump(self):
        """JSON-ready record of every span and counter."""
        return {
            "spans": [list(s) for s in self.spans if s is not None],
            "stats": [[p, n, *s] for (p, n), s in sorted(self.stats.items())],
            "counts": [[p, k, v] for (p, k), v in sorted(self.counts.items())],
            "peaks": [[p, k, v] for (p, k), v in sorted(self.peaks.items())],
            "absent": self.absent,
        }
