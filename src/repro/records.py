"""The shared result-record schema.

Every measurement the package reports — a single simulated execution
(:class:`repro.api.RunResult`), one sweep grid point
(:class:`repro.sweep.SweepResult`), or a service job
(:class:`repro.service.JobStatus`) — serializes through one flat JSON
shape so artifacts, CLI ``--json`` output, and the catalog all speak
the same dialect:

* ``schema`` — the versioned schema tag (:data:`RESULT_SCHEMA`), so a
  consumer can reject records written by an incompatible release;
* ``kind`` — what the record describes (``"run"``, ``"sweep-point"``,
  ``"job"``);
* shared measurement names — ``elapsed_s`` (virtual seconds on the
  simulated machine), ``canonical_stats`` (the deterministic clocks +
  traffic payload the determinism gates byte-compare), ``tiers``
  (per-nest tier decisions, surfaced out of the canonical stats), and
  ``fallback_reason`` (why a fast path degraded, present only when one
  fired).

:func:`comparable` strips the execution bookkeeping (worker tags,
wall-clock durations, cache/dedup provenance) that legitimately
differs between two runs of the same experiment, leaving exactly the
fields byte-parity gates may compare.
"""

from __future__ import annotations

from typing import Any, Mapping

#: versioned schema tag carried by every record; bump the trailing
#: integer whenever a field is renamed, removed, or changes meaning
RESULT_SCHEMA = "repro.result/3"

#: record kinds emitted by the package
RECORD_KINDS = ("run", "sweep-point", "job")

#: execution bookkeeping that two byte-identical experiments may
#: legitimately disagree on (worker placement, wall clock, cache luck)
VOLATILE_FIELDS = (
    "worker",
    "duration_s",
    "cache_hit",
    "compile_dedup",
    "attempts",
    "procs_lanes",
    "fallback_reason",
    "reused",
)


def result_record(kind: str, **fields: Any) -> dict[str, Any]:
    """A schema-tagged record: ``{"schema": ..., "kind": kind}`` plus
    ``fields`` in the order given.  Fields with value ``None`` are
    kept — callers decide what to omit before the call."""
    if kind not in RECORD_KINDS:
        raise ValueError(
            f"record kind must be one of {RECORD_KINDS}, got {kind!r}"
        )
    record: dict[str, Any] = {"schema": RESULT_SCHEMA, "kind": kind}
    record.update(fields)
    return record


def tiers_of(canonical_stats: Mapping[str, Any] | None) -> Any:
    """The per-nest tier decisions embedded in a canonical-stats
    payload, or None when the run carried none (estimate/compile
    modes, legacy payloads)."""
    if not canonical_stats:
        return None
    return canonical_stats.get("tiers")


def comparable(record: Mapping[str, Any]) -> dict[str, Any]:
    """``record`` minus :data:`VOLATILE_FIELDS` — the deterministic
    core that byte-parity gates (cold vs warm cache, pool vs batched,
    direct vs service) are allowed to compare."""
    return {
        name: value
        for name, value in record.items()
        if name not in VOLATILE_FIELDS
    }
