"""In-memory spans and counters for the traced benchmark run.

A span records a name, a start and end on the ``perf_counter`` clock, the
index of the span that was open when it started (its parent) and the id of
the op it belongs to.  Spans stay in memory while the benchmark runs and are
written out once, at the end, so the only cost inside a timed op is two clock
reads and a list append per span.

With ``enabled=False`` every span is a shared no-op context manager and
counts are dropped, which is how the untraced run measures end-to-end
metrics.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path

_NULL = contextlib.nullcontext()


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: int


class Tracer:
    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.counts: dict[int, dict[str, float]] = {}
        self.run_id = 0
        self._open: list[int] = []

    def new_run(self) -> int:
        """Start a new op; spans and counts after this share its run id."""
        self.run_id += 1
        return self.run_id

    def span(self, name: str):
        if not self.enabled:
            return _NULL
        return self._span(name)

    @contextlib.contextmanager
    def _span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        span = Span(name, time.perf_counter(), 0.0, parent, self.run_id)
        self.spans.append(span)
        self._open.append(index)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            run = self.counts.setdefault(self.run_id, {})
            run[name] = run.get(name, 0) + value

    def totals(self, run_id: int) -> dict[str, float]:
        """Summed duration of each span name within one op."""
        out: dict[str, float] = {}
        for span in self.spans:
            if span.run_id == run_id:
                out[span.name] = out.get(span.name, 0.0) + span.end - span.start
        return out

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover.

        Children of one span never overlap, because every op runs on one
        thread, so the covered time is the sum of the children's durations.
        """
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.end - span.start
        return [s.end - s.start - c for s, c in zip(self.spans, covered)]

    def write(self, path: Path) -> None:
        """Write one JSON line per span, with its self time."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span, self_s in zip(self.spans, self.self_times()):
                fh.write(json.dumps({**asdict(span), "self_s": self_s}) + "\n")
