"""In-memory spans and interval-union self time.

A span is one timed call at a layer boundary: ``layer``, ``name``,
``start``/``end`` on the monotonic clock, the index of the span that was
open when it started (``parent``, -1 for none) and a dict of counts taken at
the boundary. Monte-Carlo chunks run on worker threads, so sibling spans
overlap; a layer's self time is therefore the measure of the union of its
spans minus the union of its children's intervals, never a sum of
durations.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager


def union(intervals) -> list[tuple[float, float]]:
    """Merge (start, end) intervals into sorted disjoint ones."""
    out: list[list[float]] = []
    for a, b in sorted(intervals):
        if b <= a:
            continue
        if out and a <= out[-1][1]:
            out[-1][1] = max(out[-1][1], b)
        else:
            out.append([a, b])
    return [(a, b) for a, b in out]


def subtract(base, remove) -> float:
    """Measure of union(base) minus union(remove)."""
    xs, ys = union(base), union(remove)
    overlap = 0.0
    i = j = 0
    while i < len(xs) and j < len(ys):
        lo = max(xs[i][0], ys[j][0])
        hi = min(xs[i][1], ys[j][1])
        if hi > lo:
            overlap += hi - lo
        if xs[i][1] < ys[j][1]:
            i += 1
        else:
            j += 1
    return sum(b - a for a, b in xs) - overlap


def layer_self_times(spans: list[dict]) -> dict[str, float]:
    """Self time per layer: union of the layer's spans minus their children.

    A child that belongs to the same layer (a nested call) is not removed,
    because the layer already owns that time.
    """
    by_layer: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_layer.setdefault(s["layer"], []).append(i)
    out = {}
    for layer, idx in by_layer.items():
        members = set(idx)
        own = [(spans[i]["start"], spans[i]["end"]) for i in idx]
        kids = [(s["start"], s["end"]) for s in spans
                if s["parent"] in members and s["layer"] != layer]
        out[layer] = subtract(own, kids)
    return out


class Recorder:
    """Collects spans from any thread of one process.

    A span opened on a worker thread with nothing open on that thread is
    parented to the innermost span open on the recorder's home thread:
    worker threads only exist inside a call the home thread is waiting on.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home = threading.get_ident()
        self._home_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._home:
            return self._home_stack
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    @contextmanager
    def span(self, layer: str, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else (
            self._home_stack[-1] if self._home_stack else -1)
        rec = {"layer": layer, "name": name, "parent": parent,
               "start": time.monotonic(), "end": None, "counts": {}}
        with self._lock:
            self.spans.append(rec)
            idx = len(self.spans) - 1
        stack.append(idx)
        try:
            yield rec["counts"]
        finally:
            rec["end"] = time.monotonic()
            stack.pop()
