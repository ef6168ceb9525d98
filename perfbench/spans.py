"""In-memory span recording around the pipeline's public functions, and the
per-layer arithmetic over the recorded spans.

A span is the tuple ``(name, start, end, parent, call, run)``: ``parent`` is
the index of the enclosing span (-1 at the top), ``call`` the index of the
closed-loop call it belongs to and ``run`` the index of the identification
run (the enclosing ``solver.run_irgnm`` span, -1 outside any run).  Spans
stay in a list while the benchmark runs and are written out at the end.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

#: The span that opens an identification run; its children share its run id.
RUN_SPAN = "solver.run_irgnm"


class Patches:
    """Module attributes replaced for the duration of a measurement."""

    def __init__(self):
        self._saved = []

    def set(self, module, attr, value):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


class Tracer:
    """Span recorder.  :meth:`wrap` returns a function that records one span
    per call of ``fn``; :meth:`patch` installs such a wrapper where callers
    look the function up, so the program itself is not modified."""

    def __init__(self):
        self.spans: list = []
        self.call_index = -1
        self.run = -1
        self._runs = 0
        self._stack: list[int] = []
        self._patches = Patches()

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        opens_run = name == RUN_SPAN

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            if opens_run:
                self.run = self._runs
                self._runs += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.call_index, self.run)
                if opens_run:
                    self.run = -1

        return traced

    def call(self, name, fn, *args, **kwargs):
        return self.wrap(name, fn)(*args, **kwargs)

    def patch(self, module, attr, name):
        self._patches.set(module, attr, self.wrap(name, getattr(module, attr)))

    def restore(self):
        self._patches.restore()

    def durations(self, name) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def write_jsonl(self, path):
        keys = ("name", "start", "end", "parent", "call", "run")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def covered(intervals, lo=float("-inf"), hi=float("inf")) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it its children cover."""
    children = defaultdict(list)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - covered(children[i], start, end)
        for i, (name, start, end, *_) in enumerate(spans)
    ]


def layer_stats(spans) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``busy_s`` (union of its spans, so nested
    spans of one name count once) and ``self_s`` (sum of self times)."""
    intervals = defaultdict(list)
    own = defaultdict(float)
    for span, self_s in zip(spans, self_times(spans)):
        intervals[span[0]].append((span[1], span[2]))
        own[span[0]] += self_s
    return {
        name: {"calls": len(ivs), "busy_s": covered(ivs), "self_s": own[name]}
        for name, ivs in intervals.items()
    }
