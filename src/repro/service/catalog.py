"""The artifact catalog: a queryable index, in the service's
queue.sqlite, over what the service has built and measured.

The content-addressed :class:`~repro.core.diskcache.CompileCache`
already persists compiled programs, but it is write-only bookkeeping:
a directory of opaque hashes.  The catalog layers provenance and
reuse accounting on top:

* **artifacts** — one row per compiled-program pickle the service
  touched: catalog key (the cache's content address), source hash,
  canonical options signature, pipeline fingerprint, on-disk path and
  size, and use counters;
* **results** — the queue's done ``ok`` points: a point row holds its
  *point identity* (:func:`point_key`: source x options closure x
  measurement mode x seed) and the one stored copy of its pickled
  :class:`~repro.sweep.spec.SweepResult`.  ``evaluations`` counts the
  rows that measured a key (the crash-recovery gates assert 1),
  ``reuses`` the rows it was served to; a failed point is no result.

``repro catalog ls|show|gc`` is the CLI surface; :meth:`Catalog.gc`
drops index rows whose cache files vanished and (optionally) ages out
old artifacts with their files and old jobs with the results only
they held.
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
from ..jobqueue.queue import AGED_JOBS, gc_jobs

if TYPE_CHECKING:
    from ..core.diskcache import CompileCache

#: v2 reads results from the queue's ``points`` rows; a v1 file's
#: ``results`` table is left as it is and never read
CATALOG_SCHEMA_VERSION = 2

#: the catalog's index over the queue's points holds only the rows that
#: are results: a pending point costs no index write, and it covers
#: every count the catalog takes
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
CREATE INDEX IF NOT EXISTS idx_artifacts_program ON artifacts (program);
CREATE INDEX IF NOT EXISTS idx_points_catalog
  ON points (point_key, reused) WHERE state = 'done' AND ok = 1
"""

#: the rows that hold results: finished and not failed (the index's
#: WHERE, which a query must repeat to use it)
_RESULTS = "state = 'done' AND ok = 1"

#: per key, its counters over the rows that hold it
_COUNTS = (
    "SELECT point_key, COUNT(*) FILTER (WHERE reused = 0) AS evaluations,"
    " COUNT(*) FILTER (WHERE reused = 1) AS reuses,"
    " MIN(finished_at) AS created_at, MAX(finished_at) AS last_used"
    f" FROM points WHERE {_RESULTS}{{where}} GROUP BY point_key"
    " ORDER BY created_at"
)

#: the keys a job gc (cutoff ``?``) leaves no row of
_AGED_RESULTS = (
    "SELECT COUNT(*) FROM (SELECT point_key FROM points"
    f" WHERE {_RESULTS} GROUP BY point_key"
    f" HAVING MIN(job_id IN ({AGED_JOBS})))"
)

#: what a result's job says of it, and what ``ls`` lists of a result
_JOB_FIELDS = ("program", "mode", "procs", "seed")
_LS_FIELDS = (
    "point_key", *_JOB_FIELDS, "canonical_sha", "job_id", "created_at",
    "last_used", "evaluations", "reuses",
)


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


def _decode(blob: bytes) -> Any:
    """A stored pickle, or None when the bytes no longer unpickle
    (damaged bytes raise nearly any exception from ``pickle.loads``:
    EOFError, UnpicklingError, AttributeError, ImportError, ...)."""
    try:
        return pickle.loads(blob)
    except Exception:
        return None


class Catalog:
    """Index over compiled artifacts and point results (see module
    doc) on an open connection to a queue database — a service's is
    its queue's."""

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
        best-effort), indexes nothing (None).  One transaction (the
        caller's, when one is open: a service's point commit)."""
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

    # -- lookup ------------------------------------------------------------

    def _newest(
        self, keys: Sequence[str], columns: str = "result"
    ) -> dict[str, sqlite3.Row]:
        """Per key, ``columns`` of the newest done ``ok`` row that
        measured it, else of the newest that was served it; keys no
        such row holds are absent."""
        rows: dict[str, sqlite3.Row] = {}
        for reused in (0, 1):
            todo = [key for key in dict.fromkeys(keys) if key not in rows]
            for start in range(0, len(todo), _IN_CHUNK):
                chunk = todo[start : start + _IN_CHUNK]
                marks = ",".join("?" * len(chunk))
                for row in self.conn.execute(
                    f"SELECT point_key, {columns} FROM points"
                    f" WHERE point_key IN ({marks}) AND {_RESULTS}"
                    " AND reused = ? ORDER BY finished_at",
                    (*chunk, reused),
                ):
                    rows[row["point_key"]] = row
        return rows

    def find(self, keys: Sequence[str]) -> dict[str, SweepResult]:
        """The stored results of the given point identities, by key, in
        one read per kind of row; keys with no (decodable) result are
        absent.  Hits come back tagged ``worker="catalog"``; everything
        the byte-parity gates compare is the stored record verbatim.  A
        record that no longer unpickles is a miss: the caller measures
        the point again, and that newer row is the key's result."""
        found: dict[str, SweepResult] = {}
        for key, row in self._newest(keys).items():
            result = _decode(row["result"])
            if result is not None:
                result.worker = "catalog"
                found[key] = result
        return found

    def lookup(self, job: SweepJob) -> SweepResult | None:
        """The stored result for this one point identity, or None (see
        :meth:`find`)."""
        key = point_key(job)
        return self.find([key]).get(key)

    def evaluations(self, job_or_key: "SweepJob | str") -> int:
        """How many times this point identity was measured and the
        measurement kept (0: never)."""
        if not isinstance(job_or_key, str):
            job_or_key = point_key(job_or_key)
        return self.conn.execute(
            f"SELECT COUNT(*) FROM points WHERE point_key = ? AND {_RESULTS}"
            " AND reused = 0",
            (job_or_key,),
        ).fetchone()[0]

    # -- querying ----------------------------------------------------------

    def _results(self, where: str = "", params: tuple = ()) -> list[dict]:
        """One dict per result (``where`` narrows the keys): its
        counters, and the job and decoded record (``record``) of the
        row :meth:`find` serves — None for a blob that does not
        unpickle."""
        query = _COUNTS.format(where=where)
        counts = self.conn.execute(query, params).fetchall()
        newest = self._newest(
            [row["point_key"] for row in counts], "job_id, job, result"
        )
        entries = []
        for row in counts:
            served = newest[row["point_key"]]
            job = _decode(served["job"])
            result = _decode(served["result"])
            entries.append(
                dict(
                    row,
                    **{name: getattr(job, name, None) for name in _JOB_FIELDS},
                    source_sha=source_sha(job.source) if job else None,
                    options_signature=(
                        options_signature(job.options) if job else None
                    ),
                    canonical_sha=canonical_sha(result) if result else None,
                    job_id=served["job_id"],
                    record=result,
                )
            )
        return entries

    def ls(self, kind: str = "all") -> list[dict[str, Any]]:
        """Flat rows for ``repro catalog ls``: artifacts, results, or
        both (tagged by ``table``)."""
        if kind not in ("all", "artifacts", "results"):
            raise ValueError(f"unknown catalog kind {kind!r}")
        rows: list[dict[str, Any]] = []
        if kind != "results":
            rows += [
                dict(row, table="artifacts")
                for row in self.conn.execute(
                    "SELECT * FROM artifacts ORDER BY created_at"
                )
            ]
        if kind != "artifacts":
            rows += [
                {**{name: entry[name] for name in _LS_FIELDS},
                 "table": "results"}
                for entry in self._results()
            ]
        return rows

    def show(self, prefix: str) -> dict[str, Any]:
        """Full detail of the one artifact or result whose key starts
        with ``prefix`` (matched literally, like a git object name);
        the result's record is expanded to its ``as_dict()`` form
        (None, with ``error`` set, when it no longer unpickles).  An
        empty prefix, a prefix no key starts with, and one that
        several keys start with are each a :class:`KeyError` naming
        the number of matches."""
        queries = (
            ("artifacts", "SELECT key FROM artifacts"
             " WHERE substr(key, 1, ?) = ?"),
            ("results", "SELECT DISTINCT point_key FROM points"
             f" WHERE {_RESULTS} AND substr(point_key, 1, ?) = ?"),
        )
        matches = [
            (table, key)
            for table, query in queries
            for (key,) in self.conn.execute(query, (len(prefix), prefix))
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
        table, key = matches[0]
        if table == "artifacts":
            record = dict(
                self.conn.execute(
                    "SELECT * FROM artifacts WHERE key = ?", (key,)
                ).fetchone()
            )
            record["exists"] = os.path.exists(record["path"])
        else:
            (record,) = self._results(" AND point_key = ?", (key,))
            result = record["record"]
            record["record"] = result.as_dict() if result is not None else None
            if result is None:
                record["error"] = "stored record does not unpickle"
        record["table"] = table
        return record

    def gc(
        self,
        *,
        max_age_days: float | None = None,
        dry_run: bool = False,
    ) -> dict[str, int]:
        """Garbage-collect the catalog: drop artifact rows whose cache
        file vanished (*orphans*), and — when ``max_age_days`` is given
        — artifacts not used within the window, unlinking their cache
        files too, and the queue's terminal jobs that finished before
        it (``jobs``), with the results no kept job holds
        (``aged_results``).  Returns removal counts."""
        removed = {
            "orphans": 0, "aged_artifacts": 0, "aged_results": 0, "jobs": 0,
        }
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
                removed["aged_results"] = self.conn.execute(
                    _AGED_RESULTS, (cutoff,)
                ).fetchone()[0]
                removed["jobs"] = gc_jobs(self.conn, cutoff, dry_run)
        return removed

    def stats_dict(self) -> dict[str, Any]:
        """Footprint summary (``repro catalog ls --json`` header and
        the CI artifact)."""
        artifacts = self.conn.execute(
            "SELECT COUNT(*) AS n, COALESCE(SUM(bytes), 0) AS bytes,"
            " COALESCE(SUM(uses), 0) AS uses FROM artifacts"
        ).fetchone()
        results = self.conn.execute(
            "SELECT COUNT(DISTINCT point_key) AS n,"
            " COUNT(*) FILTER (WHERE reused = 0) AS evals,"
            " COUNT(*) FILTER (WHERE reused = 1) AS reuses"
            f" FROM points WHERE {_RESULTS}"
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
