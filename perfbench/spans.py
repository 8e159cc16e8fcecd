"""In-memory spans around the benchmark's calls into the package.

Spans are recorded only by the benchmark's own code, never inside the
library.  Each span has a name, a start and end from ``perf_counter``, the
index of its parent span (the span open when it started) and an instance
id shared by the spans of one decided instance.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Optional, Tuple


@dataclass
class Span:
    name: str
    instance: str
    parent: Optional[int]
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; ``span`` is a context manager."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, instance: str):
        parent = self._open[-1] if self._open else None
        rec = Span(name, instance, parent, time.perf_counter())
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._open.pop()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


class NullTracer:
    """Tracing off: ``span`` records nothing."""

    enabled = False
    spans: List[Span] = []

    def span(self, name: str, instance: str):
        return contextlib.nullcontext()


def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the time its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [
        s.duration - covered(children.get(i, ()), s.start, s.end)
        for i, s in enumerate(spans)
    ]
