"""In-memory spans around the benchmark's calls into the package.

A span records its name, start, end, parent span and workload. Spans stay
in memory; the runner writes them out when the run ends. A disabled tracer
records nothing, so untraced rounds pay only for a no-op context manager.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Optional


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    workload: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, workload: str, enabled: bool = True):
        self.workload = workload
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def span(self, name: str):
        """Context manager timing one call; nests under the open span."""
        return self._record(name) if self.enabled else nullcontext()

    @contextmanager
    def _record(self, name: str):
        span = Span(
            id=len(self.spans),
            name=name,
            start=time.perf_counter(),
            end=float("nan"),
            parent=self._stack[-1] if self._stack else None,
            workload=self.workload,
        )
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = time.perf_counter()

    def self_times(self) -> dict[str, float]:
        """Per name: summed duration minus the time its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        totals: dict[str, float] = {}
        for span in self.spans:
            own = span.duration - child_time[span.id]
            totals[span.name] = totals.get(span.name, 0.0) + own
        return totals
