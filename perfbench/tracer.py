"""Spans recorded around the benchmark's calls into the library.

A ``Recorder`` times every call it wraps. With ``keep=False`` it only adds
each call's duration to a per-name total, which is what the untraced runs
need for their end-to-end metrics. With ``keep=True`` it also keeps every
span (id, parent id, name, start, end) in memory, so the traced run can
report per-layer self times and write the spans out when it ends.

Every top-level span is one step of a pass; the recorder keeps, per step,
its duration and the calls' totals within it. Given a ``gauge`` it also
reads the gauge before and after each step, outside the step's time.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Recorder:
    def __init__(self, keep: bool, gauge=None):
        self.keep = keep
        self.gauge = gauge
        self.totals = defaultdict(float)  # name -> summed duration, seconds
        self.spans = []                   # (id, parent, name, start, end)
        self.steps = []   # (name, seconds, call totals, gauge before, after)
        self._open = []                   # ids of the spans now running
        self._depth = 0
        self._last_gauge = None

    @contextmanager
    def span(self, name: str):
        step = self._depth == 0
        if step:
            before = self._read_gauge(self._last_gauge)
            totals = dict(self.totals)
        self._depth += 1
        sid = parent = None
        if self.keep:
            sid = len(self.spans)
            parent = self._open[-1] if self._open else None
            self.spans.append(None)
            self._open.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._depth -= 1
            self.totals[name] += end - start
            if self.keep:
                self._open.pop()
                self.spans[sid] = (sid, parent, name, start, end)
            if step:
                self._last_gauge = self._read_gauge(None)
                calls = {k: v - totals.get(k, 0.0)
                         for k, v in self.totals.items()}
                self.steps.append((name, end - start, calls, before,
                                   self._last_gauge))

    def _read_gauge(self, last):
        if self.gauge is None:
            return None
        return last or self.gauge()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def self_times(self) -> dict:
        """Per name: summed span duration minus the time its children cover."""
        child = defaultdict(float)
        for (_, parent, _, start, end) in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for (sid, _, name, start, end) in self.spans:
            out[name] += (end - start) - child[sid]
        return dict(out)


def kept_span_cost(spans: int = 2000, pairs: int = 100) -> float:
    """Seconds a kept span costs over an untraced one, inside a step.

    The median over back-to-back pairs of short untraced and traced
    blocks, so that host drift, which swamps a difference of a microsecond
    between separate timings, falls mostly on both sides of a pair.
    """
    def per_span(keep: bool) -> float:
        rec = Recorder(keep=keep)
        with rec.span("step"):
            start = perf_counter()
            for _ in range(spans):
                with rec.span("call"):
                    pass
            return (perf_counter() - start) / spans

    def pair() -> float:
        untraced = per_span(False)
        return per_span(True) - untraced

    return statistics.median(pair() for _ in range(pairs))


def write_spans(path, passes) -> None:
    """Write ``[(pass_label, Recorder), ...]`` as one JSON object per span."""
    with open(path, "w", encoding="utf-8") as fh:
        for label, rec in passes:
            for (sid, parent, name, start, end) in rec.spans:
                fh.write(json.dumps({"pass": label, "id": sid,
                                     "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")
