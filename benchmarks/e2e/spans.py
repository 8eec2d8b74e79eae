"""In-memory spans recorded by the benchmark around calls into each
layer's public functions.

A span is (name, start, end, parent span, operation id).  Spans stay in
memory until the traced pass ends; :meth:`Spans.to_chrome` then writes
them as Chrome ``trace_event`` complete events.  A layer's *self time*
is its span's duration minus the part its direct child spans cover —
the number every ``*_s`` per-layer metric reports.

This module imports nothing from ``repro``: a later in-program tracing
issue can replace these outside spans one for one.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from typing import Any, Iterator

#: name of the span that wraps one whole traced operation
ROOT = "op"


class Spans:
    """Span recorder of one traced pass."""

    def __init__(self) -> None:
        #: finished and open spans, in start order; ``parent`` is an
        #: index into this list (None for a root)
        self.records: list[dict[str, Any]] = []
        self._stack: list[int] = []
        #: identifier shared by every span of the current operation;
        #: probes outside any operation record under -1
        self.op_id = -1

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[dict[str, Any]]:
        record = {
            "name": name,
            "op": self.op_id,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self._stack.append(len(self.records))
        self.records.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def operation(self, op_id: int) -> Iterator[dict[str, Any]]:
        """The root span of traced operation ``op_id``."""
        self.op_id = op_id
        try:
            with self.span(ROOT) as record:
                yield record
        finally:
            self.op_id = -1

    # -- reading -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span, index-aligned with ``records``."""
        own = [r["end"] - r["start"] for r in self.records]
        for record in self.records:
            if record["parent"] is not None:
                own[record["parent"]] -= record["end"] - record["start"]
        return own

    def layer_seconds(self) -> dict[str, float]:
        """Per span name: the median over traced operations of the
        name's summed self time within one operation.  Probe spans
        (recorded outside any operation) sum into one value."""
        per_op: dict[str, dict[int, float]] = {}
        for record, own in zip(self.records, self.self_times()):
            ops = per_op.setdefault(record["name"], {})
            ops[record["op"]] = ops.get(record["op"], 0.0) + own
        return {
            name: statistics.median(ops.values())
            for name, ops in per_op.items()
        }

    def coverage(self) -> float:
        """Share of the traced operations' time that lies inside some
        layer span: 1 - (root self time / root duration), summed over
        operations."""
        total = covered = 0.0
        for record, own in zip(self.records, self.self_times()):
            if record["name"] == ROOT:
                duration = record["end"] - record["start"]
                total += duration
                covered += duration - own
        return covered / total if total else 0.0

    def to_chrome(self, pid: int = 0) -> dict[str, Any]:
        """Chrome trace object; ``args`` carry the span id, its parent
        span and the operation id."""
        origin = min((r["start"] for r in self.records), default=0.0)
        events = [
            {
                "name": record["name"],
                "cat": "bench",
                "ph": "X",
                "ts": (record["start"] - origin) * 1e6,
                "dur": (record["end"] - record["start"]) * 1e6,
                "pid": pid,
                "tid": 0,
                "args": {
                    "id": index,
                    "parent": record["parent"],
                    "op": record["op"],
                },
            }
            for index, record in enumerate(self.records)
        ]
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"producer": "benchmarks/e2e"},
        }


class NoSpans:
    """Tracing off: ``span`` costs one shared no-op context manager."""

    _NULL = contextlib.nullcontext()

    def span(self, name: str):
        return self._NULL


NO_SPANS = NoSpans()
