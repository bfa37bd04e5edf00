"""In-memory span tracer for the benchmark's traced run.

Each wrapped public function records one span per call: its name, start,
end, parent span, the benchmark op it belongs to, a small integer tag and
whether it raised.  Spans live in flat arrays while the traced pass runs
and are written out once, at the end.  Self time is derived afterwards:
a span's duration minus the durations of its direct children.
"""
from __future__ import annotations

import tracemalloc
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self):
        self.names: list = []
        self._index: dict = {}
        self.name = array("H")
        self.parent = array("l")
        self.op = array("l")
        self.tag = array("q")
        self.raised = array("b")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.current_op = -1
        self.recorded_calls: dict = {}   # span name -> [(args, kwargs)] kept for replay
        self._installed: list = []       # (module, attribute, original)

    def _name_id(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def _open(self, name_id: int, tag: int) -> int:
        sid = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.op.append(self.current_op)
        self.tag.append(tag)
        self.raised.append(0)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(sid)
        return sid

    @contextmanager
    def span(self, name: str, tag: int = 0):
        """Record a span around a block of the benchmark's own code."""
        sid = self._open(self._name_id(name), tag)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.start[sid] = t0
            self.end[sid] = t1

    def wrap(self, name: str, fn, tag=None, record: bool = False):
        """Return ``fn`` wrapped so each call records a span named ``name``.

        ``tag(args, kwargs)`` maps the call to an int stored with the span;
        ``record`` keeps the arguments of every call for a later replay.
        """
        name_id = self._name_id(name)
        calls = self.recorded_calls.setdefault(name, []) if record else None

        def traced(*args, **kwargs):
            if calls is not None:
                calls.append((args, kwargs))
            sid = self._open(name_id, tag(args, kwargs) if tag else 0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.raised[sid] = 1
                raise
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.start[sid] = t0
                self.end[sid] = t1

        traced.__wrapped__ = fn
        return traced

    def install(self, modules, hooks) -> None:
        """Replace every module attribute bound to a hooked function.

        ``hooks`` maps a function to ``(span name, tag, record)``.  Every
        attribute of every module in ``modules`` that is that function gets
        the one wrapper, so each caller's own name lookup finds it.
        """
        wrappers = {id(fn): self.wrap(name, fn, tag, record) for fn, (name, tag, record) in hooks.items()}
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._installed.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def arrays(self) -> dict:
        """Spans as numpy columns, with each span's self time in seconds."""
        start = np.array(self.start, dtype=np.float64)
        end = np.array(self.end, dtype=np.float64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return {
            "name": np.array(self.name, dtype=np.int64),
            "parent": parent,
            "op": np.array(self.op, dtype=np.int64),
            "tag": np.array(self.tag, dtype=np.int64),
            "raised": np.array(self.raised, dtype=bool),
            "start": start,
            "end": end,
            "dur": dur,
            "self": dur - child,
        }

    def save(self, path) -> None:
        cols = self.arrays()
        np.savez(path, names=np.array(self.names), **cols)


def replay_peak_alloc(fn, calls) -> float:
    """Largest tracemalloc peak of one call of ``fn`` over ``calls`` [bytes].

    Runs apart from the timed spans, because allocation tracing slows
    Python-heavy calls and would distort their times.
    """
    peak = 0
    tracemalloc.start()
    try:
        for args, kwargs in calls:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            fn(*args, **kwargs)
            peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return float(peak)
