"""Spans around the package's public entry points, recorded from outside.

``instrument(tracer)`` temporarily replaces each public function listed in
``ENTRY_POINTS`` with a wrapper that records a span (name, start, end,
parent, operation id) and restores the originals on exit.  Nothing inside
the package is changed.  Spans stay in memory; ``self_times`` turns them
into per-layer self time, the span's duration minus its children's.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass

from bytecode_energy import cli, diagnostics, inference, ingest, predict


def _rows(dataset) -> int:
    return len(dataset.records) + len(dataset.baselines)


# (owner, attribute, span name, counter).  The owner is where callers look
# the name up: ``cli`` imported ``load_measurements`` into its own
# namespace.  A counter maps the call's result to a count of work done.
ENTRY_POINTS = (
    (cli, "main", "cli.main", None),
    (cli, "load_measurements", "ingest.load_measurements", _rows),
    (ingest.MeasurementDataset, "corrected", "ingest.corrected", None),
    (ingest.MeasurementDataset, "by_key", "ingest.by_key", None),
    (inference, "fit", "inference.fit", None),
    (inference, "summarize_draws", "inference.summarize_draws", None),
    (inference.PosteriorModel, "save", "inference.save", None),
    (inference.PosteriorModel, "load", "inference.load", None),
    (diagnostics, "report", "diagnostics.report", None),
    (predict.ProgramManifest, "parse", "predict.parse", None),
    (predict, "predict_program", "predict.predict_program", None),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None        # index into Tracer.spans
    op: int                   # operation id shared by one operation's spans


class Tracer:
    """In-memory span recorder for one single-threaded benchmark run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._op = -1

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self._op += 1
        record = Span(name, time.perf_counter(), 0.0, parent, self._op)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, func, name: str, counter=None):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(name):
                result = func(*args, **kwargs)
            if counter is not None:
                self.counts[name] = self.counts.get(name, 0) + counter(result)
            return result
        return traced

    def durations(self, name: str) -> list[float]:
        """Durations of the spans called ``name``, in call order."""
        return [s.end - s.start for s in self.spans if s.name == name]

    def durations_with_parent(self, name: str) -> list[tuple[float, str]]:
        """(duration, parent span name) of the spans called ``name``."""
        return [(s.end - s.start,
                 self.spans[s.parent].name if s.parent is not None else "")
                for s in self.spans if s.name == name]

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, summed over all operations."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        totals: dict[str, float] = {}
        for s, inner in zip(self.spans, child_time):
            totals[s.name] = totals.get(s.name, 0.0) + (s.end - s.start - inner)
        return totals


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap every entry point in ``ENTRY_POINTS``; restore them on exit."""
    saved = []
    try:
        for owner, attr, name, counter in ENTRY_POINTS:
            raw = owner.__dict__[attr]
            saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                traced = tracer.wrap(getattr(owner, attr), name, counter)
                setattr(owner, attr, staticmethod(traced))
            else:
                setattr(owner, attr, tracer.wrap(raw, name, counter))
        yield tracer
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


SPAN_COST_REPEATS = 20000


def span_cost_s() -> float:
    """Seconds one traced call adds over a direct call (median of 5)."""
    tracer = Tracer()

    def noop():
        return None

    traced = tracer.wrap(noop, "calibration")
    samples = []
    for _ in range(5):
        tracer.spans.clear()
        t0 = time.perf_counter()
        for _ in range(SPAN_COST_REPEATS):
            noop()
        t1 = time.perf_counter()
        for _ in range(SPAN_COST_REPEATS):
            traced()
        t2 = time.perf_counter()
        samples.append(((t2 - t1) - (t1 - t0)) / SPAN_COST_REPEATS)
    samples.sort()
    return max(samples[len(samples) // 2], 0.0)
