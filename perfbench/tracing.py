"""In-memory span recorder for the traced benchmark run.

The tracer wraps public functions at the name their caller looks up
(a module attribute, a class attribute, or an attribute of one object),
records one span per call, and restores every name on exit.  Spans stay
in memory until the run ends; self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import contextlib
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np


class Tracer:
    """Collects the spans and counters of one traced round.

    Spans live in parallel flat arrays rather than one object per span, so
    a long traced round adds nothing for the garbage collector to scan.
    """

    def __init__(self):
        self.names: list = []
        self.t0 = array("d")
        self.t1 = array("d")
        self.parent = array("q")
        self.points = array("q")
        self.counts: defaultdict = defaultdict(int)
        self.values: defaultdict = defaultdict(list)
        self._stack: list = []

    def _open(self, name: str, points: int) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.points.append(points)
        self.t1.append(0.0)
        self._stack.append(idx)
        self.t0.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.t1[idx] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Span around a block of benchmark code (a call into a layer)."""
        idx = self._open(name, 0)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name, fn, points=None, on_result=None):
        """Traced stand-in for ``fn``.

        ``name`` is a span name or a callable mapping the call's arguments
        to one; ``points(args)`` sizes array calls; ``on_result(result)``
        records counters from the return value.
        """

        def traced(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            idx = self._open(span_name, points(args) if points else 0)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_result is not None:
                on_result(result)
            return result

        return traced


@contextlib.contextmanager
def patched(targets):
    """Set each (owner, attribute, replacement) and restore it on exit.

    An attribute the owner did not hold itself (an instance attribute
    shadowing a method) is deleted again rather than restored.
    """
    saved = []
    try:
        for owner, attr, replacement in targets:
            own = attr in vars(owner)
            saved.append((owner, attr, own, vars(owner).get(attr)))
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, own, original in reversed(saved):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


class SpanStats:
    """Per-name aggregates of one or more traced rounds."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.points = defaultdict(int)
        self.self_samples = defaultdict(list)
        self.children = defaultdict(lambda: defaultdict(int))

    def add(self, tr: Tracer) -> None:
        dur = [b - a for a, b in zip(tr.t0, tr.t1)]
        child_time = [0.0] * len(dur)
        for i, p in enumerate(tr.parent):
            if p >= 0:
                child_time[p] += dur[i]
                self.children[tr.names[p]][tr.names[i]] += 1
        for i, name in enumerate(tr.names):
            own = dur[i] - child_time[i]
            self.calls[name] += 1
            self.total[name] += dur[i]
            self.self_time[name] += own
            self.points[name] += tr.points[i]
            self.self_samples[name].append(own)

    def mean_us(self, name: str) -> float:
        n = self.calls[name]
        return 1e6 * self.total[name] / n if n else 0.0

    def ns_per_point(self, name: str) -> float:
        n = self.points[name]
        return 1e9 * self.total[name] / n if n else 0.0

    def self_percentile_us(self, name: str, q: float) -> float:
        samples = self.self_samples[name]
        return 1e6 * float(np.percentile(samples, q)) if samples else 0.0


def write_spans(path, rounds) -> None:
    """One CSV line per span: round, index, name, parent, start, duration, points."""
    with open(path, "w") as fh:
        fh.write("round,index,name,parent,start_s,duration_s,points\n")
        for r, tr in enumerate(rounds):
            base = tr.t0[0] if tr.names else 0.0
            for i, name in enumerate(tr.names):
                fh.write(f"{r},{i},{name},{tr.parent[i]},{tr.t0[i] - base:.9f},"
                         f"{tr.t1[i] - tr.t0[i]:.9f},{tr.points[i]}\n")
