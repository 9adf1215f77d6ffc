"""In-memory span recorder for the traced pass, and the summary statistics.

A span is (name, start, end, parent, workload).  Spans stay in a list and are
written once, when the run ends.  Public functions of the measured modules are
wrapped by swapping the module attribute for the length of the traced pass;
the program's sources are untouched.
"""

from __future__ import annotations

import contextlib
import json
import math
from time import perf_counter

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def _open(self, name: str, meta) -> dict:
        rec = {"name": name, "start": 0.0, "end": 0.0,
               "parent": self._stack[-1] if self._stack else -1, "meta": meta}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        rec["start"] = perf_counter()
        return rec

    def _close(self, rec: dict) -> None:
        rec["end"] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, **meta):
        """Span around a block; yields (record, list of the spans opened inside it)."""
        rec = self._open(name, meta)
        first = len(self.spans)
        inner: list[dict] = []
        try:
            yield rec, inner
        finally:
            self._close(rec)
            inner.extend(self.spans[first:])

    def wrap(self, name: str, fn, note=None):
        """fn recording one span per call; note(args, result) goes into meta after the clock stops."""
        def traced(*args, **kwargs):
            rec = self._open(name, None)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if note is not None:
                rec["meta"] = note(args, out)
            return out
        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Wrap each (owner, attribute, span name, note) for the length of the block."""
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in targets]
        for owner, attr, name, note in targets:
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), note))
        try:
            yield
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([dict(s, workload=self.workload) for s in self.spans], fh)


def span(tracer: Tracer | None, name: str, **meta):
    """tracer.span, or a block that records nothing when tracing is off."""
    if tracer is None:
        return contextlib.nullcontext((None, []))
    return tracer.span(name, **meta)


def duration(spans, *names) -> float:
    return sum(s["end"] - s["start"] for s in spans if s["name"] in names)


def median(values) -> float:
    v = sorted(values)
    n = len(v)
    return 0.5 * (v[(n - 1) // 2] + v[n // 2])


def tail(values) -> tuple[float, float]:
    """(percentile, value) at the highest ladder percentile with >= 10 samples above it.

    With fewer than 40 samples no ladder percentile qualifies; the maximum is
    returned with percentile 100.
    """
    v = sorted(values)
    n = len(v)
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= 10:
            return p, v[rank - 1]
    return 100.0, v[-1]
