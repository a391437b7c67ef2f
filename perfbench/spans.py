"""In-memory span tracer for the benchmark's traced run.

While installed, every public function of each qdiscord layer module is
replaced by a wrapper that records one span per call: name, start, end,
parent span, item id, and whether the call raised. Modules import each
other's functions by name (``from .linalg import hermitian_eig``), so the
wrapper replaces the name in every qdiscord module that bound it, not only
in the defining module. ``DensityMatrix`` construction is traced through the
class's ``__init__``. The numpy kernels are counted, not spanned, so a
layer's self time still includes the kernels it calls.

Spans live in flat arrays and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("cli", "states", "linalg", "measures", "channel", "discord", "oracles")
KERNELS = ("eigh", "eigvalsh", "svd")
ITEM_SPAN = "bench.item"


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.kernel_calls = Counter()
        self._stack = [-1]
        self._current_item = -1
        self._item_span = self._wrap(ITEM_SPAN, lambda fn: fn())

    def _wrap(self, name, fn):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.item.append(self._current_item)
            self.raised.append(0)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            started = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.raised[idx] = 1
                raise
            finally:
                self.end[idx] = clock()
                self.start[idx] = started
                stack.pop()

        return wrapper

    def _count(self, name, fn):
        calls = self.kernel_calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def call_item(self, item_id, fn):
        """Run ``fn`` as the root span of one benchmark item."""
        self._current_item = item_id
        try:
            return self._item_span(fn)
        finally:
            self._current_item = -1

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer's public functions; restore the originals on exit."""
        undo = []

        def replace(owner, attr, value):
            undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

        try:
            modules = [
                m for n, m in list(sys.modules.items())
                if n == "qdiscord" or n.startswith("qdiscord.")
            ]
            for layer in LAYERS:
                module = importlib.import_module(f"qdiscord.{layer}")
                for attr, obj in list(vars(module).items()):
                    if (
                        attr.startswith("_")
                        or isinstance(obj, type)
                        or not callable(obj)
                        or getattr(obj, "__module__", None) != module.__name__
                    ):
                        continue
                    wrapper = self._wrap(f"{layer}.{attr}", obj)
                    for owner in modules:
                        for name, value in list(vars(owner).items()):
                            if value is obj:
                                replace(owner, name, wrapper)
            density = importlib.import_module("qdiscord.states").DensityMatrix
            replace(density, "__init__",
                    self._wrap("states.DensityMatrix", density.__init__))
            for kernel in KERNELS:
                replace(np.linalg, kernel,
                        self._count(f"numpy.linalg.{kernel}", getattr(np.linalg, kernel)))
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

    def totals(self):
        """Per span name: (calls, self seconds, calls that raised).

        Self time is a span's duration minus the durations of its direct
        children; calls are single-threaded, so children never overlap.
        """
        start = np.frombuffer(self.start, dtype=np.float64)
        duration = np.frombuffer(self.end, dtype=np.float64) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        raised = np.frombuffer(self.raised, dtype=np.int8)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=duration[nested],
                            minlength=duration.size)
        own = duration - child
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        self_s = np.bincount(name_id, weights=own, minlength=k)
        errors = np.bincount(name_id, weights=raised, minlength=k)
        return {
            name: (int(calls[i]), float(self_s[i]), int(errors[i]))
            for i, name in enumerate(self.names)
        }

    def write(self, path):
        """Dump every span as one tab-separated line, times in microseconds."""
        origin = self.start[0] if self.start else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span\tname\tparent\titem\tstart_us\tend_us\traised\n")
            for i in range(len(self.start)):
                handle.write(
                    f"{i}\t{self.names[self.name_id[i]]}\t{self.parent[i]}\t"
                    f"{self.item[i]}\t{(self.start[i] - origin) * 1e6:.3f}\t"
                    f"{(self.end[i] - origin) * 1e6:.3f}\t{self.raised[i]}\n"
                )
