"""Global message combining.

Paper Section 5.3: "An examination of the message-passing code produced
by the HPF compiler showed that there is considerable scope for
improving the performance of that version by global message combining
across loop nests. The phpf compiler does not currently perform that
optimization."

This module implements that future-work optimization as an optional
post-pass over the communication report (off by default, matching the
paper's compiler):

1. **deduplication** — two references to the *same* data at the same
   placement (e.g. ``X(I, J+1)`` read by two different statements of
   one nest) need one transfer, not two;
2. **combining** — transfers of the *same array* with the *same
   pattern* at the *same placement anchor* (e.g. the ``X(I±1, J+1)``
   halo reads) are merged into a single message: one startup, summed
   payload.

The cost estimator prices a combined event with a single α and the sum
of the members' volumes.
"""

from __future__ import annotations

from ..ir.stmt import Stmt
from .events import CommEvent, CommReport


def _anchor_loop_id(stmt: Stmt, level: int) -> int:
    chain = stmt.loops_enclosing()
    if level <= 0:
        return 0
    if level <= len(chain):
        return chain[level - 1].stmt_id
    return chain[-1].stmt_id if chain else 0


def _position_key(event: CommEvent) -> tuple:
    return tuple(str(d) for d in event.data_position) + tuple(
        str(d) for d in event.executor_position
    )


def _dedupe_key(event: CommEvent) -> tuple:
    return (
        event.ref.symbol.name,
        event.placement_level,
        _anchor_loop_id(event.stmt, event.placement_level),
        str(event.pattern),
        _position_key(event),
    )


def _combine_key(event: CommEvent) -> tuple:
    return (
        event.ref.symbol.name,
        event.placement_level,
        _anchor_loop_id(event.stmt, event.placement_level),
        event.pattern.kind,
        event.pattern.offsets,
        event.pattern.bcast_dims,
    )


def combine_messages(report: CommReport) -> CommReport:
    """Return a new report with duplicate transfers removed and
    same-pattern transfers merged. Reduction combines are untouched."""
    # Stage 1: dedupe identical transfers.
    seen: dict[tuple, CommEvent] = {}
    for event in report.events:
        key = _dedupe_key(event)
        if key in seen:
            seen[key].aliases.append(event)
        else:
            seen[key] = event
    # Stage 2: merge distinct transfers of one array/pattern/anchor.
    merged: dict[tuple, CommEvent] = {}
    for event in seen.values():
        key = _combine_key(event)
        if key in merged:
            merged[key].combined_with.append(event)
        else:
            merged[key] = event
    combined = CommReport(events=list(merged.values()), reduces=list(report.reduces))
    return combined


def combining_stats(before: CommReport, after: CommReport) -> dict[str, int]:
    """Summary of what combining achieved (reporting aid)."""
    dups = sum(e.duplicates for e in after.events)
    merged = sum(len(e.combined_with) for e in after.events)
    return {
        "events_before": len(before.events),
        "events_after": len(after.events),
        "duplicates_removed": dups,
        "messages_merged": merged,
    }
