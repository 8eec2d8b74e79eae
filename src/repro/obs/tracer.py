"""Span-based tracing with Chrome ``trace_event`` export.

A :class:`Tracer` collects *spans* (duration events wrapping one unit
of work: a compiler pass, a simulator tier entry, a slab takeover) and
*instant* events (points in time: a message startup, a slab takeover,
a slab bail).  The recorded stream serializes to the Chrome
``trace_event`` JSON format (the ``{"traceEvents": [...]}`` object
form), loadable in ``chrome://tracing`` / Perfetto.

The disabled tracer is the hot-path contract: ``span()`` returns one
shared no-op context manager and ``instant()`` returns immediately, so
instrumented code pays one attribute load and one branch.  Hot inner
loops additionally guard on :attr:`Tracer.enabled` so argument tuples
are never even built.  ``NULL_TRACER`` is the process-wide disabled
instance every instrumented component defaults to.
"""

from __future__ import annotations

import json
import time
from typing import Any


class _NullSpan:
    """Shared no-op context manager handed out by disabled tracers."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def add(self, **args: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _Span:
    """One live duration event; records a complete ("ph": "X") event
    on exit."""

    __slots__ = ("tracer", "name", "cat", "tid", "args", "start_us")

    def __init__(self, tracer: "Tracer", name: str, cat: str, tid: int,
                 args: dict[str, Any]):
        self.tracer = tracer
        self.name = name
        self.cat = cat
        self.tid = tid
        self.args = args
        self.start_us = 0.0

    def __enter__(self) -> "_Span":
        self.start_us = self.tracer._now_us()
        return self

    def __exit__(self, *exc) -> None:
        tracer = self.tracer
        end = tracer._now_us()
        tracer._events.append(
            {
                "name": self.name,
                "cat": self.cat or "default",
                "ph": "X",
                "ts": self.start_us,
                "dur": end - self.start_us,
                "pid": tracer.pid,
                "tid": self.tid,
                "args": self.args,
            }
        )

    def add(self, **args: Any) -> None:
        """Attach arguments discovered while the span is open."""
        self.args.update(args)


class Tracer:
    """Collects trace events; exports Chrome ``trace_event`` JSON.

    Construct with ``enabled=False`` (or use :data:`NULL_TRACER`) for a
    no-op tracer whose ``span``/``instant`` calls cost one branch.
    """

    __slots__ = ("enabled", "pid", "_events", "_t0")

    def __init__(self, enabled: bool = True, pid: int = 0):
        self.enabled = enabled
        self.pid = pid
        self._events: list[dict[str, Any]] = []
        self._t0 = time.perf_counter_ns()

    def _now_us(self) -> float:
        return (time.perf_counter_ns() - self._t0) / 1000.0

    # -- recording ---------------------------------------------------------

    def span(self, name: str, cat: str = "", tid: int = 0, **args: Any):
        """Context manager timing one unit of work as a complete event."""
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, cat, tid, args)

    def instant(self, name: str, cat: str = "", tid: int = 0, **args: Any) -> None:
        """One point-in-time event ("ph": "i", thread scope)."""
        if not self.enabled:
            return
        self._events.append(
            {
                "name": name,
                "cat": cat or "default",
                "ph": "i",
                "s": "t",
                "ts": self._now_us(),
                "pid": self.pid,
                "tid": tid,
                "args": args,
            }
        )

    def counter(self, name: str, cat: str = "", **values: float) -> None:
        """A counter sample ("ph": "C") — one track per ``name``."""
        if not self.enabled:
            return
        self._events.append(
            {
                "name": name,
                "cat": cat or "default",
                "ph": "C",
                "ts": self._now_us(),
                "pid": self.pid,
                "tid": 0,
                "args": values,
            }
        )

    # -- introspection / export --------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    @property
    def events(self) -> list[dict[str, Any]]:
        """The recorded events (live list; treat as read-only)."""
        return self._events

    def clear(self) -> None:
        self._events.clear()

    def to_chrome(self) -> dict[str, Any]:
        """The Chrome trace object form: ``{"traceEvents": [...]}``."""
        return {
            "traceEvents": list(self._events),
            "displayTimeUnit": "ms",
            "otherData": {"producer": "repro.obs"},
        }

    def write(self, path: str) -> None:
        """Serialize to ``path`` as Chrome trace JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_chrome(), handle, indent=1)
            handle.write("\n")


#: the process-wide disabled tracer every component defaults to
NULL_TRACER = Tracer(enabled=False)


def validate_chrome_trace(obj: Any) -> list[str]:
    """Structural check of a Chrome trace object (the CI gate uses it):
    returns a list of problems, empty when the trace is well-formed."""
    problems: list[str] = []
    if not isinstance(obj, dict) or "traceEvents" not in obj:
        return ["not an object with a traceEvents list"]
    events = obj["traceEvents"]
    if not isinstance(events, list):
        return ["traceEvents is not a list"]
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {i} is not an object")
            continue
        for field in ("name", "ph", "ts", "pid", "tid"):
            if field not in event:
                problems.append(f"event {i} missing {field!r}")
        if event.get("ph") == "X" and "dur" not in event:
            problems.append(f"event {i} is complete ('X') but has no dur")
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"event {i} has bad ts {ts!r}")
    return problems
