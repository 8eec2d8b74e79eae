"""The artifact catalog: a queryable sqlite index over what the
service has built and measured.

The content-addressed :class:`~repro.core.diskcache.CompileCache`
already persists compiled programs, but it is write-only bookkeeping:
a directory of opaque hashes.  The catalog layers provenance and
reuse accounting on top, in two tables of the service's queue.sqlite:

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
import sqlite3
import time
from typing import TYPE_CHECKING, Any, Sequence

from ..core.diskcache import options_signature, pipeline_fingerprint
from ..sweep.spec import SweepJob, SweepResult
from ..jobqueue.db import ensure_schema, transaction

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


#: point keys per ``IN (...)`` list, under sqlite's bound-parameter limit
_IN_CHUNK = 500


def _decode(blob: bytes) -> SweepResult | None:
    """A stored record, or None when the bytes no longer unpickle
    (damaged bytes raise nearly any exception from ``pickle.loads``:
    EOFError, UnpicklingError, AttributeError, ImportError, ...)."""
    try:
        return pickle.loads(blob)
    except Exception:
        return None


class Catalog:
    """Sqlite index over compiled artifacts and point results (see
    module doc) on an open connection — a service's is its queue's."""

    def __init__(self, conn: sqlite3.Connection):
        self.conn = conn
        ensure_schema(conn, "catalog", CATALOG_SCHEMA_VERSION, _DDL)

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
        self,
        job: SweepJob,
        result: SweepResult,
        *,
        job_id: int | None = None,
        cache: "CompileCache | None" = None,
        key: str | None = None,
    ) -> str:
        """Store one freshly evaluated point under its identity key
        (``key``: the :func:`point_key` the caller already holds) and,
        given the compile ``cache``, index its compiled artifact too —
        one transaction (the caller's, when one is open).  Re-recording
        the same key (a crash replayed an uncommitted evaluation, or
        two jobs raced) increments
        ``evaluations`` — the counter the exactly-once gates read —
        and overwrites the stored record."""
        key = key or point_key(job)
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
            self.record_compile(job, cache)
        return key

    # -- lookup / reuse ----------------------------------------------------

    def find(self, keys: Sequence[str]) -> dict[str, SweepResult]:
        """The stored results of the given point identities, by key, in
        one read (no reuse counted); keys with no (decodable) record are
        absent.  Hits come back tagged ``worker="catalog"``; everything
        the byte-parity gates compare is the stored record verbatim.  A
        record that no longer unpickles is a miss: the caller recomputes
        the point and :meth:`record_result` overwrites the row."""
        distinct = list(dict.fromkeys(keys))
        found: dict[str, SweepResult] = {}
        for start in range(0, len(distinct), _IN_CHUNK):
            chunk = distinct[start : start + _IN_CHUNK]
            marks = ",".join("?" * len(chunk))
            for row in self.conn.execute(
                f"SELECT point_key, record FROM results"
                f" WHERE point_key IN ({marks})",
                chunk,
            ):
                result = _decode(row["record"])
                if result is not None:
                    result.worker = "catalog"
                    found[row["point_key"]] = result
        return found

    def count_reuses(self, keys: Sequence[str]) -> None:
        """Bump ``reuses`` and ``last_used`` once per listed key, in one
        transaction (the caller's, when one is open)."""
        now = time.time()
        with transaction(self.conn):
            self.conn.executemany(
                "UPDATE results SET reuses = reuses + 1, last_used = ?"
                " WHERE point_key = ?",
                [(now, key) for key in keys],
            )

    def lookup_many(self, keys: Sequence[str]) -> dict[str, SweepResult]:
        """:meth:`find`, and :meth:`count_reuses` of each hit in ``keys``
        (a key listed twice counts two reuses)."""
        found = self.find(keys)
        if found:
            self.count_reuses([key for key in keys if key in found])
        return found

    def lookup(self, job: SweepJob) -> SweepResult | None:
        """The stored result for this one point identity, or None (see
        :meth:`lookup_many`)."""
        key = point_key(job)
        return self.lookup_many([key]).get(key)

    def evaluations(self, job_or_key: "SweepJob | str") -> int:
        """How many times this point identity was actually computed
        (0: never recorded)."""
        if not isinstance(job_or_key, str):
            job_or_key = point_key(job_or_key)
        row = self.conn.execute(
            "SELECT evaluations FROM results WHERE point_key = ?",
            (job_or_key,),
        ).fetchone()
        return row["evaluations"] if row else 0

    # -- querying ----------------------------------------------------------

    def ls(self, kind: str = "all") -> list[dict[str, Any]]:
        """Flat rows for ``repro catalog ls``: artifacts, results, or
        both (tagged by ``table``)."""
        if kind not in ("all", "artifacts", "results"):
            raise ValueError(f"unknown catalog kind {kind!r}")
        queries = {
            "artifacts": "SELECT * FROM artifacts ORDER BY created_at",
            "results": "SELECT point_key, program, mode, procs, seed,"
            " canonical_sha, job_id, created_at, last_used, evaluations,"
            " reuses FROM results ORDER BY created_at",
        }
        return [
            dict(row, table=table)
            for table, query in queries.items()
            if kind in ("all", table)
            for row in self.conn.execute(query)
        ]

    def show(self, prefix: str) -> dict[str, Any]:
        """Full detail of the one artifact or result row whose key
        starts with ``prefix`` (matched literally, like a git object
        name); the result's record is expanded to its ``as_dict()``
        form (None, with ``error`` set, when it no longer unpickles).
        An empty prefix, a prefix no key starts with, and one that
        several keys start with are each a :class:`KeyError` naming
        the number of matches."""
        tables = (("artifacts", "key"), ("results", "point_key"))
        matches = [
            (table, column, key)
            for table, column in tables
            for (key,) in self.conn.execute(
                f"SELECT {column} FROM {table}"
                f" WHERE substr({column}, 1, ?) = ?",
                (len(prefix), prefix),
            )
        ]
        if not matches:
            raise KeyError(f"no catalog entry matches {prefix!r}")
        if not prefix:
            raise KeyError(
                f"an empty key prefix matches all {len(matches)} catalog"
                " entries"
            )
        if len(matches) > 1:
            raise KeyError(
                f"{len(matches)} catalog entries match {prefix!r};"
                " give a longer key prefix"
            )
        table, column, key = matches[0]
        record = dict(
            self.conn.execute(
                f"SELECT * FROM {table} WHERE {column} = ?", (key,)
            ).fetchone()
        )
        record["table"] = table
        if table == "artifacts":
            record["exists"] = os.path.exists(record["path"])
        else:
            result = _decode(record["record"])
            record["record"] = result.as_dict() if result is not None else None
            if result is None:
                record["error"] = "stored record does not unpickle"
        return record

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
        cutoff = None
        if max_age_days is not None:
            cutoff = time.time() - max_age_days * 86400.0
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
            "path": self.conn.execute("PRAGMA database_list").fetchone()[2],
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
