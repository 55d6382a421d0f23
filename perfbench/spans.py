"""In-memory span recording and self-time arithmetic.

A span is one timed call at a layer boundary: its name, start and end
(``perf_counter_ns``), the span that was open when it started (its
parent) and the workload item being evaluated at the time (``None``
during set-up).  Calls too frequent to keep one record each — the device
port handlers run about a million times per campaign — are *folded*:
their time and call count are added to the span that is open when they
run, so self-time arithmetic still subtracts them.

A span's self time is its duration minus the part of that interval its
child spans cover, minus the folded time charged to it.  Summed over a
tree, self times add up to the root's duration.
"""

from __future__ import annotations

import json
import time

_now = time.perf_counter_ns


class Span:
    """One recorded call; ``folded`` and ``note`` stay ``None`` unless used."""

    __slots__ = ("name", "start", "end", "parent", "item", "folded", "note")

    def __init__(self, name: str, start: int = 0, end: int = 0, parent=None, item=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.item = item
        #: Folded time (ns) and calls charged to this span, by folded name.
        self.folded: dict[str, list[int]] | None = None
        #: Facts a wrapper attaches (an outcome, a step count).
        self.note: dict | None = None

    @property
    def duration(self) -> int:
        return self.end - self.start


class SpanRecorder:
    """Collects spans in memory; nothing is written until :meth:`dump`."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        #: The item the benchmark is evaluating now (``None``: set-up).
        self.item: int | None = None

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, parent=parent, item=self.item))
        span_id = len(self.spans) - 1
        self._stack.append(span_id)
        self.spans[span_id].start = _now()
        return span_id

    def close(self, span_id: int) -> None:
        self.spans[span_id].end = _now()
        popped = self._stack.pop()
        if popped != span_id:
            raise RuntimeError(f"span {span_id} closed out of order")

    def fold(self, name: str, elapsed_ns: int) -> None:
        """Charge one folded call to the innermost open span."""
        if not self._stack:
            return
        span = self.spans[self._stack[-1]]
        if span.folded is None:
            span.folded = {}
        totals = span.folded.setdefault(name, [0, 0])
        totals[0] += elapsed_ns
        totals[1] += 1

    def dump(self, path) -> None:
        """Write every span once, as JSON lines, after the run."""
        with open(path, "w", encoding="utf-8") as out:
            for span_id, span in enumerate(self.spans):
                record = {
                    "id": span_id,
                    "name": span.name,
                    "start_ns": span.start,
                    "end_ns": span.end,
                    "parent": span.parent,
                    "item": span.item,
                }
                if span.folded:
                    record["folded"] = span.folded
                if span.note:
                    record["note"] = span.note
                out.write(json.dumps(record) + "\n")


def children_of(spans: list[Span]) -> list[list[int]]:
    children: list[list[int]] = [[] for _ in spans]
    for span_id, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(span_id)
    return children


def covered_ns(start: int, end: int, intervals) -> int:
    """Length of ``[start, end)`` covered by the union of ``intervals``."""
    covered = 0
    reach = start
    for low, high in sorted(intervals):
        low, high = max(low, reach), min(high, end)
        if high > low:
            covered += high - low
            reach = high
    return covered


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus its children's cover and folded time."""
    children = children_of(spans)
    result = []
    for span_id, span in enumerate(spans):
        child_cover = covered_ns(
            span.start,
            span.end,
            ((spans[c].start, spans[c].end) for c in children[span_id]),
        )
        folded = sum(totals[0] for totals in (span.folded or {}).values())
        result.append(span.duration - child_cover - folded)
    return result


def within(spans: list[Span], span_id: int, names) -> bool:
    """Whether a proper ancestor of ``span_id`` has one of ``names``."""
    parent = spans[span_id].parent
    while parent is not None:
        if spans[parent].name in names:
            return True
        parent = spans[parent].parent
    return False
