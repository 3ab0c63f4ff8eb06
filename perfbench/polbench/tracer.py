"""Spans recorded by the benchmark around each call into a program module.

A span has an id, a name, a start and an end (perf_counter seconds), the id
of the span that was open when it began, and the index of the op it belongs
to (-1 outside ops). Spans stay in memory and are written out when the run
ends. With tracing off, `span` hands back one shared no-op context, so the
untraced run pays a method call per layer boundary and nothing else.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int
    op: int


_NULL = contextlib.nullcontext()


class _Open:
    __slots__ = ("tracer", "name", "start", "id", "parent")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.id = tr._next_id
        tr._next_id += 1
        self.parent = tr._stack[-1] if tr._stack else -1
        tr._stack.append(self.id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        tr = self.tracer
        tr._stack.pop()
        tr.spans.append(Span(self.id, self.name, self.start, end, self.parent, tr.op))
        return False


class Tracer:
    """Collects spans when enabled; a no-op otherwise."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._next_id = 0

    def span(self, name: str):
        return _Open(self, name) if self.enabled else _NULL

    def record(self, name: str, seconds: float):
        """A span measured elsewhere (e.g. inside a child process), ending now."""
        end = time.perf_counter()
        self.spans.append(Span(self._next_id, name, end - seconds, end,
                               self._stack[-1] if self._stack else -1, self.op))
        self._next_id += 1

    def durations(self, name: str, ops_only: bool = False) -> list[float]:
        return [s.end - s.start for s in self.spans
                if s.name == name and (s.op >= 0 or not ops_only)]

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name and s.op >= 0)

    def write(self, path, meta: dict):
        with open(path, "w") as fh:
            json.dump(dict(meta, spans=[asdict(s) for s in self.spans]), fh)
