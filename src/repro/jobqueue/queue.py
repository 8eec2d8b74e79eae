"""The durable job queue: sweep work that survives the process.

A *job* is a submitted experiment grid — an ordered list of
:class:`~repro.sweep.spec.SweepJob` points.  On submit the grid is
persisted point-by-point to sqlite, pre-partitioned into *shards*
(the durable service plans fusion-preserving groups of points, see
:func:`repro.service.worker.shard_jobs`; the sweep pool submits one
point per shard), and becomes claimable by any worker process sharing
the queue database:

* **states** — a job is ``queued`` → ``running`` → ``done`` (or
  ``failed`` / ``cancelled``); a shard is ``ready`` → ``leased`` →
  ``done``; a point is ``pending`` → ``done``.
* **leases** — claiming a shard takes a lease (owner tag + expiry);
  workers extend it by heartbeating.  A shard whose lease expired —
  or whose owner is a dead local pid — is reclaimable by anyone, so a
  killed worker forfeits only its in-flight shard, never the job.
* **attempt bound** — a shard is handed out at most ``max_attempts``
  times.  When it comes up for claiming again after that, the queue
  gives it up instead: its still-pending points are committed as
  ``ok=False`` results (``worker="abandoned"``, the error naming the
  attempt count and the last owner), so a point that kills every
  worker it meets ends the job instead of circulating forever.
* **durability** — every completed point commits its pickled
  :class:`~repro.sweep.spec.SweepResult` in the same transaction that
  flips the point state, so a crash between points loses nothing and
  a restarted service resumes exactly the pending points.
* **events** — submit/claim/point/shard/terminal transitions append to
  a monotonic per-queue event log that ``JobHandle.stream_events`` and
  ``repro jobs watch`` tail.

The queue stores *work*; measurement artifacts (compiled programs,
per-point results indexed for reuse) live in the
:class:`repro.service.catalog.Catalog`.
"""

from __future__ import annotations

import json
import os
import pickle
import socket
import time
import uuid
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

from .db import connect, ensure_schema, transaction

if TYPE_CHECKING:  # jobs and results cross this module only as pickles
    from ..sweep.spec import SweepJob, SweepResult

QUEUE_SCHEMA_VERSION = 1

#: ``SweepResult.worker`` of a point no run finished: the queue gave
#: it up at the attempt bound (see :meth:`JobQueue._give_up`)
ABANDONED = "abandoned"

#: job states; ``TERMINAL_STATES`` end the job's lifecycle
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")
TERMINAL_STATES = ("done", "failed", "cancelled")

_DDL = """
CREATE TABLE IF NOT EXISTS jobs (
  id INTEGER PRIMARY KEY AUTOINCREMENT,
  name TEXT NOT NULL,
  state TEXT NOT NULL DEFAULT 'queued',
  exec_mode TEXT NOT NULL DEFAULT 'auto',
  n_points INTEGER NOT NULL,
  n_shards INTEGER NOT NULL,
  submitted_at REAL NOT NULL,
  started_at REAL,
  finished_at REAL,
  error TEXT
);
CREATE TABLE IF NOT EXISTS points (
  job_id INTEGER NOT NULL REFERENCES jobs(id) ON DELETE CASCADE,
  idx INTEGER NOT NULL,
  shard INTEGER NOT NULL,
  state TEXT NOT NULL DEFAULT 'pending',
  point_key TEXT NOT NULL,
  label TEXT NOT NULL,
  job BLOB NOT NULL,
  result BLOB,
  reused INTEGER NOT NULL DEFAULT 0,
  finished_at REAL,
  PRIMARY KEY (job_id, idx)
);
CREATE TABLE IF NOT EXISTS shards (
  job_id INTEGER NOT NULL REFERENCES jobs(id) ON DELETE CASCADE,
  shard INTEGER NOT NULL,
  state TEXT NOT NULL DEFAULT 'ready',
  owner TEXT,
  lease_expires REAL,
  heartbeat_at REAL,
  attempts INTEGER NOT NULL DEFAULT 0,
  PRIMARY KEY (job_id, shard)
);
CREATE TABLE IF NOT EXISTS events (
  seq INTEGER PRIMARY KEY AUTOINCREMENT,
  job_id INTEGER NOT NULL,
  ts REAL NOT NULL,
  kind TEXT NOT NULL,
  payload TEXT NOT NULL DEFAULT '{}'
);
CREATE INDEX IF NOT EXISTS idx_points_state
  ON points (job_id, state);
CREATE INDEX IF NOT EXISTS idx_shards_claimable
  ON shards (state, job_id);
CREATE INDEX IF NOT EXISTS idx_events_job
  ON events (job_id, seq);
"""


def make_owner() -> str:
    """A worker identity: ``host:pid:token``.  The host + pid let a
    sibling worker on the same machine detect a dead owner without
    waiting out the lease; the token disambiguates pid reuse."""
    return f"{socket.gethostname()}:{os.getpid()}:{uuid.uuid4().hex[:8]}"


def owner_pid(owner: str | None) -> int | None:
    """The pid inside an owner tag made on *this* host, else None — a
    remote owner's pid means nothing here."""
    host, _, rest = (owner or "").partition(":")
    pid_text = rest.partition(":")[0]
    if host != socket.gethostname() or not pid_text.isdigit():
        return None
    return int(pid_text)


def _owner_is_dead(owner: str | None) -> bool:
    """True only when ``owner`` names a pid on *this* host that no
    longer exists — remote owners are never presumed dead (their lease
    expiry decides)."""
    pid = owner_pid(owner)
    if pid is None or pid == os.getpid():
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except PermissionError:
        return False
    return False


@dataclass
class Event:
    """One row of the append-only event log."""

    seq: int
    job_id: int
    ts: float
    kind: str
    payload: dict[str, Any] = field(default_factory=dict)

    def render(self) -> str:
        detail = " ".join(f"{k}={v}" for k, v in self.payload.items())
        return f"[{self.seq:>5}] job {self.job_id} {self.kind} {detail}".rstrip()


@dataclass
class JobStatus:
    """A job's current shape: state plus point/shard progress."""

    job_id: int
    name: str
    state: str
    exec_mode: str
    n_points: int
    done: int
    failed: int
    reused: int
    n_shards: int
    shards_done: int
    submitted_at: float
    started_at: float | None = None
    finished_at: float | None = None
    error: str | None = None

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def as_dict(self) -> dict[str, Any]:
        """Flat JSON record in the shared :mod:`repro.records` schema
        (``kind="job"``)."""
        from ..records import result_record

        return result_record(
            "job",
            job_id=self.job_id,
            name=self.name,
            state=self.state,
            exec_mode=self.exec_mode,
            points=self.n_points,
            done=self.done,
            failed=self.failed,
            reused=self.reused,
            shards=self.n_shards,
            shards_done=self.shards_done,
            submitted_at=self.submitted_at,
            started_at=self.started_at,
            finished_at=self.finished_at,
            error=self.error,
        )


@dataclass
class Claim:
    """A leased shard: the pending points (original grid index +
    deserialized job) the claimant must evaluate."""

    job_id: int
    shard: int
    owner: str
    exec_mode: str
    #: which handing-out of the shard this is (1 = first)
    attempt: int
    points: list[tuple[int, SweepJob]]


class JobQueue:
    """Durable sqlite-backed queue of sweep jobs (see module doc)."""

    def __init__(
        self,
        path: str | os.PathLike,
        *,
        lease_ttl: float = 60.0,
        max_attempts: int = 3,
    ):
        self.path = path
        self.lease_ttl = float(lease_ttl)
        self.max_attempts = int(max_attempts)
        self.conn = connect(path)
        ensure_schema(self.conn, "queue", QUEUE_SCHEMA_VERSION, _DDL)

    def close(self) -> None:
        self.conn.close()

    # -- event log ---------------------------------------------------------

    def _emit(self, job_id: int, kind: str, **payload: Any) -> None:
        self.conn.execute(
            "INSERT INTO events (job_id, ts, kind, payload) VALUES (?, ?, ?, ?)",
            (job_id, time.time(), kind, json.dumps(payload, default=str)),
        )

    def events_since(self, job_id: int, seq: int = 0) -> list[Event]:
        rows = self.conn.execute(
            "SELECT * FROM events WHERE job_id = ? AND seq > ? ORDER BY seq",
            (job_id, seq),
        ).fetchall()
        return [
            Event(
                seq=row["seq"],
                job_id=row["job_id"],
                ts=row["ts"],
                kind=row["kind"],
                payload=json.loads(row["payload"]),
            )
            for row in rows
        ]

    # -- submit ------------------------------------------------------------

    def submit(
        self,
        jobs: Sequence[SweepJob],
        keys: Sequence[str],
        shards: Sequence[Sequence[int]],
        *,
        name: str = "",
        exec_mode: str = "auto",
    ) -> int:
        """Persist a grid and its shard assignment; returns the job id.
        ``keys`` are the points' catalog identities (for dedup
        accounting), ``shards`` the point-index partition."""
        if len(jobs) != len(keys):
            raise ValueError("one catalog key per grid point required")
        assigned = sorted(i for shard in shards for i in shard)
        if assigned != list(range(len(jobs))):
            raise ValueError("shards must partition the grid exactly")
        now = time.time()
        with transaction(self.conn):
            cursor = self.conn.execute(
                "INSERT INTO jobs (name, state, exec_mode, n_points,"
                " n_shards, submitted_at) VALUES (?, 'queued', ?, ?, ?, ?)",
                (name or "sweep", exec_mode, len(jobs), len(shards), now),
            )
            job_id = cursor.lastrowid
            shard_of = {
                idx: number
                for number, shard in enumerate(shards)
                for idx in shard
            }
            self.conn.executemany(
                "INSERT INTO points (job_id, idx, shard, point_key, label,"
                " job) VALUES (?, ?, ?, ?, ?, ?)",
                [
                    (
                        job_id,
                        idx,
                        shard_of[idx],
                        keys[idx],
                        job.label,
                        pickle.dumps(job, protocol=pickle.HIGHEST_PROTOCOL),
                    )
                    for idx, job in enumerate(jobs)
                ],
            )
            self.conn.executemany(
                "INSERT INTO shards (job_id, shard) VALUES (?, ?)",
                [(job_id, number) for number in range(len(shards))],
            )
            self._emit(
                job_id,
                "submitted",
                name=name,
                points=len(jobs),
                shards=len(shards),
                exec_mode=exec_mode,
            )
        return job_id

    # -- claim / lease -----------------------------------------------------

    def claim(self, owner: str) -> Claim | None:
        """Lease one shard of work, or None when nothing is claimable.
        Prefers fresh ``ready`` shards, then shards whose lease expired
        or whose owner died; completed points of a reclaimed shard are
        *not* reissued.  A shard that comes up after ``max_attempts``
        claims is given up (see :meth:`_give_up`), not handed out."""
        now = time.time()
        with transaction(self.conn):
            while True:
                row = self.conn.execute(
                    "SELECT s.job_id, s.shard, s.state, s.owner, s.attempts,"
                    " j.exec_mode FROM shards s JOIN jobs j ON j.id = s.job_id"
                    " WHERE j.state IN ('queued', 'running')"
                    " AND (s.state = 'ready' OR (s.state = 'leased'"
                    "      AND s.lease_expires < ?))"
                    " ORDER BY s.state = 'ready' DESC, s.job_id, s.shard"
                    " LIMIT 1",
                    (now,),
                ).fetchone()
                if row is None:
                    row = self._find_dead_owner_shard()
                if row is None:
                    return None
                if row["attempts"] < self.max_attempts:
                    break
                self._give_up(row, now)
            job_id, shard = row["job_id"], row["shard"]
            reclaimed = row["state"] == "leased"
            self.conn.execute(
                "UPDATE shards SET state = 'leased', owner = ?,"
                " lease_expires = ?, heartbeat_at = ?, attempts = attempts + 1"
                " WHERE job_id = ? AND shard = ?",
                (owner, now + self.lease_ttl, now, job_id, shard),
            )
            self.conn.execute(
                "UPDATE jobs SET state = 'running', started_at ="
                " COALESCE(started_at, ?) WHERE id = ? AND state = 'queued'",
                (now, job_id),
            )
            pending = self._pending_points(job_id, shard)
            self._emit(
                job_id,
                "reclaimed" if reclaimed else "claimed",
                shard=shard,
                owner=owner,
                pending=len(pending),
                attempt=row["attempts"] + 1,
                # who lost the lease: a supervisor's cue to stop it
                **({"lost": row["owner"]} if reclaimed else {}),
            )
        return Claim(
            job_id=job_id,
            shard=shard,
            owner=owner,
            exec_mode=row["exec_mode"],
            attempt=row["attempts"] + 1,
            points=[(r["idx"], pickle.loads(r["job"])) for r in pending],
        )

    def _pending_points(self, job_id: int, shard: int):
        return self.conn.execute(
            "SELECT idx, job FROM points WHERE job_id = ? AND shard = ?"
            " AND state = 'pending' ORDER BY idx",
            (job_id, shard),
        ).fetchall()

    def _give_up(self, row, now: float) -> None:
        """``row``'s shard has used every allowed claim and is up for
        claiming again (inside :meth:`claim`'s transaction): commit its
        pending points as failures and close it, so the job can end."""
        job_id, shard, attempts = row["job_id"], row["shard"], row["attempts"]
        error = (
            f"abandoned after {attempts} attempts; last owner "
            f"{row['owner'] or 'released its lease'}"
        )
        for point in self._pending_points(job_id, shard):
            result = pickle.loads(point["job"]).result(
                ok=False, error=error, attempts=attempts, worker=ABANDONED
            )
            self.complete_point(job_id, point["idx"], result)
        self.conn.execute(
            "UPDATE shards SET state = 'done', owner = NULL,"
            " lease_expires = NULL WHERE job_id = ? AND shard = ?",
            (job_id, shard),
        )
        self._emit(
            job_id, "abandoned", shard=shard, attempts=attempts,
            owner=row["owner"],
        )
        self._finish_job_if_last(job_id, now)

    def _find_dead_owner_shard(self):
        """A leased, unexpired shard whose owner is a dead local pid —
        reclaimable immediately instead of waiting out the lease."""
        rows = self.conn.execute(
            "SELECT s.job_id, s.shard, s.state, s.owner, s.attempts,"
            " j.exec_mode FROM shards s JOIN jobs j ON j.id = s.job_id"
            " WHERE j.state = 'running' AND s.state = 'leased'"
            " ORDER BY s.job_id, s.shard",
        ).fetchall()
        for row in rows:
            if _owner_is_dead(row["owner"]):
                return row
        return None

    def heartbeat(self, job_id: int, shard: int, owner: str) -> bool:
        """Extend the lease; False means the lease was lost (reclaimed
        by someone else) or the job was cancelled — the worker should
        abandon the shard."""
        now = time.time()
        with transaction(self.conn):
            cancelled = self.conn.execute(
                "SELECT 1 FROM jobs WHERE id = ? AND state = 'cancelled'",
                (job_id,),
            ).fetchone()
            if cancelled:
                return False
            cursor = self.conn.execute(
                "UPDATE shards SET lease_expires = ?, heartbeat_at = ?"
                " WHERE job_id = ? AND shard = ? AND owner = ?"
                " AND state = 'leased'",
                (now + self.lease_ttl, now, job_id, shard, owner),
            )
            return cursor.rowcount > 0

    # -- completion --------------------------------------------------------

    def complete_point(
        self,
        job_id: int,
        idx: int,
        result: SweepResult,
        *,
        reused: bool = False,
    ) -> bool:
        """Commit one point's result (state flip + pickled record in
        one transaction).  Returns False if the point was already done
        — a racing double-completion is dropped, not duplicated."""
        now = time.time()
        with transaction(self.conn):
            cursor = self.conn.execute(
                "UPDATE points SET state = 'done', result = ?, reused = ?,"
                " finished_at = ? WHERE job_id = ? AND idx = ?"
                " AND state = 'pending'",
                (
                    pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL),
                    int(reused),
                    now,
                    job_id,
                    idx,
                ),
            )
            if cursor.rowcount == 0:
                return False
            self._emit(
                job_id,
                "point",
                idx=idx,
                label=result.label,
                ok=result.ok,
                reused=reused,
            )
        return True

    def finish_shard(self, job_id: int, shard: int, owner: str) -> bool:
        """Mark a fully-evaluated shard done (only by its lease owner);
        when it was the last one, the job completes — ``done`` if every
        point has a result, ``failed`` if any is still pending (should
        not happen) — and a terminal event fires."""
        now = time.time()
        with transaction(self.conn):
            pending = self.conn.execute(
                "SELECT COUNT(*) AS n FROM points WHERE job_id = ?"
                " AND shard = ? AND state = 'pending'",
                (job_id, shard),
            ).fetchone()["n"]
            if pending:
                return False
            cursor = self.conn.execute(
                "UPDATE shards SET state = 'done', owner = NULL,"
                " lease_expires = NULL WHERE job_id = ? AND shard = ?"
                " AND owner = ? AND state = 'leased'",
                (job_id, shard, owner),
            )
            if cursor.rowcount == 0:
                return False
            self._emit(job_id, "shard_done", shard=shard, owner=owner)
            self._finish_job_if_last(job_id, now)
        return True

    def _finish_job_if_last(self, job_id: int, now: float) -> None:
        """Inside the transaction that closed a shard: when it was the
        job's last open one, the job is ``done``."""
        left = self.conn.execute(
            "SELECT COUNT(*) AS n FROM shards WHERE job_id = ?"
            " AND state != 'done'",
            (job_id,),
        ).fetchone()["n"]
        if left == 0:
            self.conn.execute(
                "UPDATE jobs SET state = 'done', finished_at = ?"
                " WHERE id = ? AND state = 'running'",
                (now, job_id),
            )
            self._emit(job_id, "done")

    def release_shard(
        self, job_id: int, shard: int, owner: str, reason: str = ""
    ) -> None:
        """Give an unfinished shard back (worker shutting down or
        abandoning a cancelled job): the lease drops and the shard
        becomes ``ready`` again."""
        with transaction(self.conn):
            cursor = self.conn.execute(
                "UPDATE shards SET state = 'ready', owner = NULL,"
                " lease_expires = NULL WHERE job_id = ? AND shard = ?"
                " AND owner = ? AND state = 'leased'",
                (job_id, shard, owner),
            )
            if cursor.rowcount:
                self._emit(
                    job_id, "released", shard=shard, owner=owner, reason=reason
                )

    def cancel(self, job_id: int) -> bool:
        """Cancel a non-terminal job.  In-flight shards notice at their
        next heartbeat; completed point results are kept."""
        now = time.time()
        with transaction(self.conn):
            cursor = self.conn.execute(
                "UPDATE jobs SET state = 'cancelled', finished_at = ?"
                " WHERE id = ? AND state IN ('queued', 'running')",
                (now, job_id),
            )
            if cursor.rowcount == 0:
                return False
            self._emit(job_id, "cancelled")
        return True

    def fail_job(self, job_id: int, error: str) -> None:
        """Terminal failure (submit-side validation, poisoned spec)."""
        now = time.time()
        with transaction(self.conn):
            cursor = self.conn.execute(
                "UPDATE jobs SET state = 'failed', error = ?, finished_at = ?"
                " WHERE id = ? AND state NOT IN ('done', 'cancelled')",
                (error, now, job_id),
            )
            if cursor.rowcount:
                self._emit(job_id, "failed", error=error.splitlines()[-1])

    # -- inspection --------------------------------------------------------

    def status(self, job_id: int) -> JobStatus:
        row = self.conn.execute(
            "SELECT * FROM jobs WHERE id = ?", (job_id,)
        ).fetchone()
        if row is None:
            raise KeyError(f"no job {job_id} in {self.path}")
        progress = self.conn.execute(
            "SELECT COUNT(*) FILTER (WHERE state = 'done') AS done,"
            " COUNT(*) FILTER (WHERE reused = 1) AS reused FROM points"
            " WHERE job_id = ?",
            (job_id,),
        ).fetchone()
        failed = 0
        for record in self.conn.execute(
            "SELECT result FROM points WHERE job_id = ?"
            " AND state = 'done' AND result IS NOT NULL",
            (job_id,),
        ):
            if not pickle.loads(record["result"]).ok:
                failed += 1
        shards_done = self.conn.execute(
            "SELECT COUNT(*) AS n FROM shards WHERE job_id = ?"
            " AND state = 'done'",
            (job_id,),
        ).fetchone()["n"]
        return JobStatus(
            job_id=row["id"],
            name=row["name"],
            state=row["state"],
            exec_mode=row["exec_mode"],
            n_points=row["n_points"],
            done=progress["done"],
            failed=failed,
            reused=progress["reused"],
            n_shards=row["n_shards"],
            shards_done=shards_done,
            submitted_at=row["submitted_at"],
            started_at=row["started_at"],
            finished_at=row["finished_at"],
            error=row["error"],
        )

    def list_jobs(self) -> list[JobStatus]:
        ids = [
            row["id"]
            for row in self.conn.execute("SELECT id FROM jobs ORDER BY id")
        ]
        return [self.status(job_id) for job_id in ids]

    def results(self, job_id: int) -> list[SweepResult | None]:
        """Per-point results in grid order; None for points still
        pending."""
        status = self.status(job_id)  # raises on unknown job
        out: list[SweepResult | None] = [None] * status.n_points
        for row in self.conn.execute(
            "SELECT idx, result FROM points WHERE job_id = ?"
            " AND result IS NOT NULL",
            (job_id,),
        ):
            out[row["idx"]] = pickle.loads(row["result"])
        return out

    def point_results(
        self, job_id: int, indices: Sequence[int]
    ) -> list[tuple[int, SweepResult]]:
        """``(grid index, result)`` of the given finished points — what
        an event-log tail reads after seeing their ``point`` events."""
        if not indices:
            return []
        marks = ",".join("?" * len(indices))
        return [
            (row["idx"], pickle.loads(row["result"]))
            for row in self.conn.execute(
                f"SELECT idx, result FROM points WHERE job_id = ?"
                f" AND idx IN ({marks}) AND result IS NOT NULL ORDER BY idx",
                (job_id, *indices),
            )
        ]

    def lapsed(self, since: int = 0) -> tuple[int, list[str]]:
        """Owners that overran a lease: whoever holds an expired one
        right now, plus everyone a ``reclaimed`` event after event
        ``since`` took a shard from (a sibling may reclaim before any
        supervisor looks).  Returns the event watermark to pass next
        time, and the owner tags."""
        owners = [
            row["owner"]
            for row in self.conn.execute(
                "SELECT owner FROM shards WHERE state = 'leased'"
                " AND lease_expires < ?",
                (time.time(),),
            )
        ]
        top = self.conn.execute(
            "SELECT COALESCE(MAX(seq), 0) AS top FROM events"
        ).fetchone()["top"]
        for row in self.conn.execute(
            "SELECT payload FROM events WHERE kind = 'reclaimed'"
            " AND seq > ? AND seq <= ?",
            (since, top),
        ):
            # .get: a directory written before 1.4 has no "lost"
            owners.append(json.loads(row["payload"]).get("lost"))
        return top, owners

    def shards_done(self) -> int:
        """Shards closed so far, over every job in the queue."""
        return self.conn.execute(
            "SELECT COUNT(*) AS n FROM shards WHERE state = 'done'"
        ).fetchone()["n"]

    def depth(self) -> dict[str, int]:
        """Queue-pressure gauges: claimable shards, leased shards, and
        non-terminal jobs."""
        shards = self.conn.execute(
            "SELECT COUNT(*) FILTER (WHERE s.state = 'ready') AS ready,"
            " COUNT(*) FILTER (WHERE s.state = 'leased') AS leased"
            " FROM shards s JOIN jobs j ON j.id = s.job_id"
            " WHERE j.state IN ('queued', 'running')",
        ).fetchone()
        jobs = self.conn.execute(
            "SELECT COUNT(*) AS n FROM jobs"
            " WHERE state IN ('queued', 'running')",
        ).fetchone()["n"]
        return {
            "shards_ready": shards["ready"],
            "shards_leased": shards["leased"],
            "jobs_open": jobs,
        }
