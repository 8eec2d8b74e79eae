"""Shared sqlite plumbing for the job queue and the artifact catalog.

Both databases — the job queue (the service's durable one and the
sweep pool's temporary one alike) and the service's artifact catalog —
are single-file sqlite databases opened in WAL mode so a submitting client,
several ``repro serve`` worker processes, and a ``repro jobs watch``
poller can read and write concurrently without corrupting each other:
WAL gives readers a consistent snapshot while one writer commits, and
``busy_timeout`` turns writer contention into a bounded wait instead
of an immediate ``database is locked`` error.

Schema versions live in a ``schema_info`` table per database.  A
database written by a *newer* schema than the code understands is
refused loudly (the caller should upgrade, not silently corrupt);
missing tables are created on first open.
"""

from __future__ import annotations

import os
import sqlite3
from pathlib import Path

#: how long a writer waits on a locked database before erroring (ms)
BUSY_TIMEOUT_MS = 30_000


class SchemaMismatch(RuntimeError):
    """The on-disk schema is newer than this code understands."""


def connect(path: str | os.PathLike) -> sqlite3.Connection:
    """Open (creating if needed) a service database in WAL mode with
    row access by column name and autocommit semantics — transactions
    are always explicit ``BEGIN IMMEDIATE`` blocks."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    conn = sqlite3.connect(
        str(path), timeout=BUSY_TIMEOUT_MS / 1000.0, isolation_level=None
    )
    conn.row_factory = sqlite3.Row
    conn.execute(f"PRAGMA busy_timeout = {BUSY_TIMEOUT_MS}")
    conn.execute("PRAGMA journal_mode = WAL")
    conn.execute("PRAGMA synchronous = NORMAL")
    conn.execute("PRAGMA foreign_keys = ON")
    return conn


def ensure_schema(
    conn: sqlite3.Connection, name: str, version: int, ddl: str
) -> None:
    """Create ``ddl`` (idempotent ``CREATE TABLE IF NOT EXISTS``
    statements, ``;``-separated, no semicolons inside literals) and
    record ``version`` under ``name``.  An on-disk version *newer*
    than ``version`` raises :class:`SchemaMismatch`; an older one is
    overwritten after the DDL runs (the DDL must stay additive within
    a major schema)."""
    # not executescript: that implicitly COMMITs any open transaction
    with transaction(conn):
        conn.execute(
            "CREATE TABLE IF NOT EXISTS schema_info ("
            " name TEXT PRIMARY KEY, version INTEGER NOT NULL)"
        )
        row = conn.execute(
            "SELECT version FROM schema_info WHERE name = ?", (name,)
        ).fetchone()
        if row is not None and row["version"] > version:
            raise SchemaMismatch(
                f"{name} database is schema v{row['version']}, but this "
                f"release only understands v{version}; refusing to touch it"
            )
        for statement in ddl.split(";"):
            if statement.strip():
                conn.execute(statement)
        conn.execute(
            "INSERT INTO schema_info (name, version) VALUES (?, ?) "
            "ON CONFLICT(name) DO UPDATE SET version = excluded.version",
            (name, version),
        )


class transaction:
    """``with transaction(conn):`` — an immediate write transaction
    that commits on success and rolls back on any exception.  Nested
    use is a no-op inner block (sqlite has no nested transactions; the
    outermost owner commits)."""

    def __init__(self, conn: sqlite3.Connection):
        self.conn = conn
        self.owns = False

    def __enter__(self):
        if not self.conn.in_transaction:
            self.conn.execute("BEGIN IMMEDIATE")
            self.owns = True
        return self.conn

    def __exit__(self, exc_type, exc, tb):
        if not self.owns:
            return False
        if exc_type is None:
            self.conn.execute("COMMIT")
        else:
            self.conn.execute("ROLLBACK")
        return False
