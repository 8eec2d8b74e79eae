"""The artifact catalog: a queryable sqlite index over what the
service has built and measured.

The content-addressed :class:`~repro.core.diskcache.CompileCache`
already persists compiled programs, but it is write-only bookkeeping:
a directory of opaque hashes.  The catalog layers provenance and
reuse accounting on top, in two tables:

* **artifacts** — one row per compiled-program pickle the service
  touched: catalog key (the cache's content address), source hash,
  canonical options signature, pipeline fingerprint, on-disk path and
  size, and use counters;
* **results** — one row per evaluated *point identity*
  (:func:`point_key`: source x options closure x measurement mode x
  seed): the pickled :class:`~repro.sweep.spec.SweepResult`, a sha256
  of its canonical stats, and two counters — ``evaluations`` (times
  the point was actually computed; the crash-recovery gates assert
  this stays 1) and ``reuses`` (times a later job was served the
  stored record instead of recomputing).

``repro catalog ls|show|gc`` is the CLI surface; :meth:`Catalog.gc`
drops index rows whose cache files vanished and (optionally) ages out
old entries together with their files.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import time
from copy import copy
from typing import TYPE_CHECKING, Any

from ..core.diskcache import options_signature, pipeline_fingerprint
from ..sweep.spec import SweepJob, SweepResult
from ..jobqueue.db import connect, ensure_schema, transaction

if TYPE_CHECKING:
    from ..core.diskcache import CompileCache

CATALOG_SCHEMA_VERSION = 1

_DDL = """
CREATE TABLE IF NOT EXISTS artifacts (
  key TEXT PRIMARY KEY,
  kind TEXT NOT NULL DEFAULT 'compile',
  program TEXT,
  source_sha TEXT NOT NULL,
  options_signature TEXT NOT NULL,
  pipeline_fingerprint TEXT NOT NULL,
  path TEXT NOT NULL,
  bytes INTEGER,
  created_at REAL NOT NULL,
  last_used REAL NOT NULL,
  uses INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS results (
  point_key TEXT PRIMARY KEY,
  program TEXT,
  mode TEXT,
  procs INTEGER,
  seed INTEGER,
  source_sha TEXT NOT NULL,
  options_signature TEXT NOT NULL,
  canonical_sha TEXT,
  record BLOB NOT NULL,
  job_id INTEGER,
  created_at REAL NOT NULL,
  last_used REAL NOT NULL,
  evaluations INTEGER NOT NULL DEFAULT 1,
  reuses INTEGER NOT NULL DEFAULT 0
);
CREATE INDEX IF NOT EXISTS idx_results_program ON results (program, mode);
CREATE INDEX IF NOT EXISTS idx_artifacts_program ON artifacts (program);
"""


def source_sha(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def point_key(job: SweepJob) -> str:
    """The measurement identity of one grid point: source hash,
    canonical options closure (machine model included), what is
    measured, and the input seed.  Two jobs with equal keys produce
    byte-identical results, so the catalog may serve one's stored
    record to the other."""
    digest = hashlib.sha256()
    digest.update(source_sha(job.source).encode("utf-8"))
    digest.update(b"\0")
    digest.update(options_signature(job.options).encode("utf-8"))
    digest.update(b"\0")
    digest.update(f"{job.mode}:{job.seed}".encode("utf-8"))
    return digest.hexdigest()


def canonical_sha(result: SweepResult) -> str | None:
    """sha256 of the result's canonical-stats JSON (the byte-parity
    payload), or None for modes that carry none."""
    if result.canonical_stats is None:
        return None
    payload = json.dumps(result.canonical_stats, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class Catalog:
    """Sqlite index over compiled artifacts and point results (see
    module doc)."""

    def __init__(self, path: str | os.PathLike):
        self.path = path
        self.conn = connect(path)
        ensure_schema(self.conn, "catalog", CATALOG_SCHEMA_VERSION, _DDL)

    def close(self) -> None:
        self.conn.close()

    # -- recording ---------------------------------------------------------

    def record_compile(
        self, job: SweepJob, cache: "CompileCache | None"
    ) -> str | None:
        """Index the compiled artifact a point's compile produced (or
        reused) in the disk cache; returns the artifact key.  No cache,
        or a compile that never landed on disk (the cache's store is
        best-effort), indexes nothing (None)."""
        if cache is None:
            return None
        key = cache.key(job.source, job.options)
        path = cache.path_for(key)
        try:
            size = path.stat().st_size
        except OSError:
            return None
        now = time.time()
        with transaction(self.conn):
            self.conn.execute(
                "INSERT INTO artifacts (key, kind, program, source_sha,"
                " options_signature, pipeline_fingerprint, path, bytes,"
                " created_at, last_used, uses)"
                " VALUES (?, 'compile', ?, ?, ?, ?, ?, ?, ?, ?, 1)"
                " ON CONFLICT(key) DO UPDATE SET last_used = excluded"
                ".last_used, uses = uses + 1, bytes = excluded.bytes",
                (
                    key,
                    job.program,
                    source_sha(job.source),
                    options_signature(job.options),
                    pipeline_fingerprint(),
                    str(path),
                    size,
                    now,
                    now,
                ),
            )
        return key

    def record_result(
        self, job: SweepJob, result: SweepResult, *, job_id: int | None = None
    ) -> str:
        """Store one freshly evaluated point under its identity key.
        Re-recording the same key (a crash replayed an uncommitted
        evaluation, or two jobs raced) increments ``evaluations`` —
        the counter the exactly-once gates read."""
        key = point_key(job)
        now = time.time()
        with transaction(self.conn):
            self.conn.execute(
                "INSERT INTO results (point_key, program, mode, procs, seed,"
                " source_sha, options_signature, canonical_sha, record,"
                " job_id, created_at, last_used)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)"
                " ON CONFLICT(point_key) DO UPDATE SET"
                " evaluations = evaluations + 1, record = excluded.record,"
                " canonical_sha = excluded.canonical_sha,"
                " last_used = excluded.last_used",
                (
                    key,
                    job.program,
                    job.mode,
                    job.procs,
                    job.seed,
                    source_sha(job.source),
                    options_signature(job.options),
                    canonical_sha(result),
                    pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL),
                    job_id,
                    now,
                    now,
                ),
            )
        return key

    # -- lookup / reuse ----------------------------------------------------

    def lookup(self, job: SweepJob) -> SweepResult | None:
        """The stored result for this point identity, or None.  A hit
        bumps the ``reuses`` counter and comes back tagged
        ``worker="catalog"`` so provenance stays visible; everything
        the byte-parity gates compare is the stored record verbatim."""
        key = point_key(job)
        row = self.conn.execute(
            "SELECT record FROM results WHERE point_key = ?", (key,)
        ).fetchone()
        if row is None:
            return None
        with transaction(self.conn):
            self.conn.execute(
                "UPDATE results SET reuses = reuses + 1, last_used = ?"
                " WHERE point_key = ?",
                (time.time(), key),
            )
        result = copy(pickle.loads(row["record"]))
        result.worker = "catalog"
        return result

    def evaluations(self, job_or_key: "SweepJob | str") -> int:
        """How many times this point identity was actually computed
        (0: never recorded)."""
        key = (
            job_or_key
            if isinstance(job_or_key, str)
            else point_key(job_or_key)
        )
        row = self.conn.execute(
            "SELECT evaluations FROM results WHERE point_key = ?", (key,)
        ).fetchone()
        return row["evaluations"] if row else 0

    # -- querying ----------------------------------------------------------

    def ls(self, kind: str = "all") -> list[dict[str, Any]]:
        """Flat rows for ``repro catalog ls``: artifacts, results, or
        both (tagged by ``table``)."""
        if kind not in ("all", "artifacts", "results"):
            raise ValueError(f"unknown catalog kind {kind!r}")
        rows: list[dict[str, Any]] = []
        if kind in ("all", "artifacts"):
            for row in self.conn.execute(
                "SELECT * FROM artifacts ORDER BY created_at"
            ):
                record = dict(row)
                record["table"] = "artifacts"
                rows.append(record)
        if kind in ("all", "results"):
            for row in self.conn.execute(
                "SELECT point_key, program, mode, procs, seed,"
                " canonical_sha, job_id, created_at, last_used,"
                " evaluations, reuses FROM results ORDER BY created_at"
            ):
                record = dict(row)
                record["table"] = "results"
                rows.append(record)
        return rows

    def show(self, key: str) -> dict[str, Any]:
        """Full detail of one artifact or result row (prefix match on
        the key, like git); the result's record is expanded to its
        ``as_dict()`` form."""
        row = self.conn.execute(
            "SELECT * FROM artifacts WHERE key LIKE ? || '%'", (key,)
        ).fetchone()
        if row is not None:
            record = dict(row)
            record["table"] = "artifacts"
            record["exists"] = os.path.exists(record["path"])
            return record
        row = self.conn.execute(
            "SELECT * FROM results WHERE point_key LIKE ? || '%'", (key,)
        ).fetchone()
        if row is not None:
            record = dict(row)
            record["table"] = "results"
            record["record"] = pickle.loads(record["record"]).as_dict()
            return record
        raise KeyError(f"no catalog entry matches {key!r}")

    def gc(
        self,
        *,
        max_age_days: float | None = None,
        dry_run: bool = False,
    ) -> dict[str, int]:
        """Garbage-collect the catalog: drop artifact rows whose cache
        file vanished (*orphans*), and — when ``max_age_days`` is given
        — artifacts and results not used within the window, unlinking
        aged artifacts' cache files too.  Returns removal counts."""
        removed = {"orphans": 0, "aged_artifacts": 0, "aged_results": 0}
        cutoff = (
            time.time() - max_age_days * 86400.0
            if max_age_days is not None
            else None
        )
        with transaction(self.conn):
            for row in self.conn.execute(
                "SELECT key, path, last_used FROM artifacts"
            ).fetchall():
                missing = not os.path.exists(row["path"])
                aged = cutoff is not None and row["last_used"] < cutoff
                if not (missing or aged):
                    continue
                removed["orphans" if missing else "aged_artifacts"] += 1
                if dry_run:
                    continue
                if aged and not missing:
                    try:
                        os.unlink(row["path"])
                    except OSError:
                        pass
                self.conn.execute(
                    "DELETE FROM artifacts WHERE key = ?", (row["key"],)
                )
            if cutoff is not None:
                stale = self.conn.execute(
                    "SELECT COUNT(*) AS n FROM results WHERE last_used < ?",
                    (cutoff,),
                ).fetchone()["n"]
                removed["aged_results"] = stale
                if not dry_run and stale:
                    self.conn.execute(
                        "DELETE FROM results WHERE last_used < ?", (cutoff,)
                    )
        return removed

    def stats_dict(self) -> dict[str, Any]:
        """Footprint summary (``repro catalog ls --json`` header and
        the CI artifact)."""
        artifacts = self.conn.execute(
            "SELECT COUNT(*) AS n, COALESCE(SUM(bytes), 0) AS bytes,"
            " COALESCE(SUM(uses), 0) AS uses FROM artifacts"
        ).fetchone()
        results = self.conn.execute(
            "SELECT COUNT(*) AS n, COALESCE(SUM(evaluations), 0) AS evals,"
            " COALESCE(SUM(reuses), 0) AS reuses FROM results"
        ).fetchone()
        return {
            "path": str(self.path),
            "schema": CATALOG_SCHEMA_VERSION,
            "artifacts": {
                "entries": artifacts["n"],
                "bytes": artifacts["bytes"],
                "uses": artifacts["uses"],
            },
            "results": {
                "entries": results["n"],
                "evaluations": results["evals"],
                "reuses": results["reuses"],
            },
        }
