"""Spans recorded by the benchmark around each call into a layer.

A span has a name, a start, an end, its parent span and the job it
belongs to.  Spans stay in memory and are written out as JSON lines
when the run ends.  A disabled recorder hands out one shared no-op
context, so untimed-by-design runs pay one attribute lookup per call.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, List, Optional

_NULL = nullcontext()


@dataclass
class Span:
    id: int
    name: str
    job: int
    parent: Optional[int]
    start: float
    end: float = 0.0


class Spans:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._open: List[int] = []

    def span(self, name: str, job: int):
        if not self.enabled:
            return _NULL
        return self._span(name, job)

    @contextmanager
    def _span(self, name: str, job: int) -> Iterator[None]:
        span = Span(
            id=len(self.spans),
            name=name,
            job=job,
            parent=self._open[-1] if self._open else None,
            start=time.perf_counter(),
        )
        self.spans.append(span)
        self._open.append(span.id)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def self_seconds(self) -> Dict[int, Dict[str, float]]:
        """Per job, per span name: total self time (duration minus the
        part of the span its children cover)."""
        children: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        out: Dict[int, Dict[str, float]] = {}
        for span in self.spans:
            covered = 0.0
            cursor = span.start
            for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
                lo, hi = max(child.start, cursor), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            per_job = out.setdefault(span.job, {})
            per_job[span.name] = per_job.get(span.name, 0.0) + (
                span.end - span.start - covered
            )
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(asdict(span)) + "\n")
