"""In-memory spans recorded around calls into the package's public functions.

A span has a name, a start, an end and the index of the span that
enclosed it. A span's self time is its duration minus the part of its
interval covered by its children, so nested spans are not counted twice.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; nothing leaves memory until :meth:`dump`."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.clock(), float("nan"), parent))
        self._open.append(index)
        try:
            yield index
        finally:
            self._open.pop()
            self.spans[index].end = self.clock()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh, indent=1)
            fh.write("\n")


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus what its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            parent = spans[span.parent]
            clipped = (max(span.start, parent.start), min(span.end, parent.end))
            if clipped[1] > clipped[0]:
                children.setdefault(span.parent, []).append(clipped)
    return [s.duration - _covered(children.get(i, [])) for i, s in enumerate(spans)]


def descendants(spans: list[Span], root: int) -> list[int]:
    """Indices of every span below ``root`` (not ``root`` itself)."""
    below = {root}
    out = []
    for i, span in enumerate(spans):
        if span.parent in below:
            below.add(i)
            out.append(i)
    return out


def layer_totals(spans: list[Span], root: int) -> dict[str, tuple[float, int]]:
    """Per span name under ``root``: (summed self time, number of calls)."""
    selfs = self_times(spans)
    totals: dict[str, tuple[float, int]] = {}
    for i in descendants(spans, root):
        seconds, calls = totals.get(spans[i].name, (0.0, 0))
        totals[spans[i].name] = (seconds + selfs[i], calls + 1)
    return totals


def coverage(spans: list[Span], root: int) -> float:
    """Share of the root's wall time inside its direct children."""
    direct = [(s.start, s.end) for s in spans if s.parent == root]
    return _covered(direct) / spans[root].duration
