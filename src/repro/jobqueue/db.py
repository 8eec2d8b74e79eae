"""Shared sqlite plumbing for the job queue and the artifact catalog.

One file holds a service's durable state: ``queue.sqlite``, the job
queue's tables, whose done points are the artifact catalog's results,
and the catalog's own (the sweep pool's temporary queue has no
catalog).  It is opened in WAL mode so a submitting client, several
``repro serve`` worker processes, and a ``repro jobs watch`` poller
can read and write concurrently without corrupting each other: WAL
gives readers a consistent snapshot while one writer commits, and
``busy_timeout`` turns writer contention into a bounded wait instead
of an immediate ``database is locked`` error.

Schema versions live in a ``schema_info`` table, one row per table set
(``queue``, ``catalog``).  A set written by a *newer* schema than the
code understands is refused loudly (the caller should upgrade, not
silently corrupt); missing tables are created on first open.
"""

from __future__ import annotations

import os
import sqlite3
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

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
    conn: sqlite3.Connection,
    name: str,
    version: int,
    ddl: str,
    upgrade: Callable[[sqlite3.Connection], None] | None = None,
) -> None:
    """Create ``ddl`` (idempotent ``CREATE TABLE IF NOT EXISTS``
    statements, ``;``-separated, no semicolons inside literals) and
    record ``version`` under ``name``.  An on-disk version *newer*
    than ``version`` raises :class:`SchemaMismatch`; an older one is
    overwritten after the DDL runs (the DDL must stay additive within
    a major schema) and ``upgrade(conn)``, in the same transaction,
    brings the existing tables up to date."""
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
        older = row is not None and row["version"] < version
        if upgrade is not None and older:
            upgrade(conn)
        conn.execute(
            "INSERT INTO schema_info (name, version) VALUES (?, ?) "
            "ON CONFLICT(name) DO UPDATE SET version = excluded.version",
            (name, version),
        )


@contextmanager
def transaction(conn: sqlite3.Connection) -> Iterator[sqlite3.Connection]:
    """``with transaction(conn):`` — an immediate write transaction
    that commits on success and rolls back on any exception.  Nested
    use is a no-op inner block (sqlite has no nested transactions; the
    outermost owner commits)."""
    if conn.in_transaction:
        yield conn
        return
    conn.execute("BEGIN IMMEDIATE")
    try:
        yield conn
    except BaseException:
        conn.execute("ROLLBACK")
        raise
    conn.execute("COMMIT")
