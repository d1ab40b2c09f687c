"""Versioned SQLite schema for the experiment run store.

The store's schema is an explicit migration chain: ``MIGRATIONS[v]`` is
the list of statements that upgrades a database from version ``v - 1``
to version ``v``, and :func:`apply_migrations` walks the chain from the
database's recorded version (``PRAGMA user_version``) to
:data:`SCHEMA_VERSION`.  A database written by an older checkout is
upgraded in place — inside one transaction per step, so a crash
mid-upgrade leaves the previous version intact — and a database written
by a *newer* checkout is refused rather than misread.

Version history:

``v1``
    ``runs`` (one row per experiment run, with full provenance:
    git commit/branch/dirty flag, source hash, seed, host) and
    ``metrics`` (one scalar per run per metric name).

``v2``
    Adds ``chaos_outcomes`` (crash-point sweep verdicts) and
    ``bench_snapshots`` (whole BENCH_* documents as store views), plus
    ``runs.duration`` / ``runs.metric_name`` so summary tables need no
    spec-JSON parsing.

``v3``
    Drops ``bench_snapshots``: a run's numbers are its ``runs`` and
    ``metrics`` rows, and nothing writes or reads a second document.
"""

from __future__ import annotations

import sqlite3
from typing import Dict, List

#: The schema version this checkout reads and writes.
SCHEMA_VERSION = 3

#: target version -> statements upgrading from (target - 1).
MIGRATIONS: Dict[int, List[str]] = {
    1: [
        """
        CREATE TABLE runs (
            id          INTEGER PRIMARY KEY AUTOINCREMENT,
            created_at  REAL NOT NULL,
            kind        TEXT NOT NULL,
            benchmark   TEXT NOT NULL,
            scale       INTEGER NOT NULL,
            design      TEXT NOT NULL,
            profile     TEXT NOT NULL,
            seed        INTEGER,
            status      TEXT NOT NULL DEFAULT 'ok',
            spec_json   TEXT NOT NULL,
            git_commit  TEXT,
            git_branch  TEXT,
            git_dirty   INTEGER,
            source_hash TEXT,
            host        TEXT,
            python      TEXT
        )
        """,
        "CREATE INDEX idx_runs_grid ON runs(benchmark, scale, design)",
        "CREATE INDEX idx_runs_commit ON runs(git_commit)",
        """
        CREATE TABLE metrics (
            run_id INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
            name   TEXT NOT NULL,
            value  REAL NOT NULL,
            PRIMARY KEY (run_id, name)
        ) WITHOUT ROWID
        """,
    ],
    2: [
        "ALTER TABLE runs ADD COLUMN duration REAL",
        "ALTER TABLE runs ADD COLUMN metric_name TEXT",
        """
        CREATE TABLE chaos_outcomes (
            id              INTEGER PRIMARY KEY AUTOINCREMENT,
            run_id          INTEGER NOT NULL
                            REFERENCES runs(id) ON DELETE CASCADE,
            design          TEXT NOT NULL,
            policy          TEXT NOT NULL,
            crash_at        REAL NOT NULL,
            ok              INTEGER NOT NULL,
            pages_redone    INTEGER NOT NULL DEFAULT 0,
            committed_pages INTEGER NOT NULL DEFAULT 0,
            error           TEXT
        )
        """,
        """
        CREATE TABLE bench_snapshots (
            id          INTEGER PRIMARY KEY AUTOINCREMENT,
            created_at  REAL NOT NULL,
            workload    TEXT NOT NULL,
            git_commit  TEXT,
            git_branch  TEXT,
            git_dirty   INTEGER,
            source_hash TEXT,
            doc_json    TEXT NOT NULL
        )
        """,
        "CREATE INDEX idx_bench_workload ON bench_snapshots(workload)",
    ],
    3: [
        "DROP TABLE bench_snapshots",
    ],
}


class SchemaError(Exception):
    """The database schema cannot be brought to :data:`SCHEMA_VERSION`."""


def schema_version(conn: sqlite3.Connection) -> int:
    """The version recorded in the database (0 = freshly created)."""
    row = conn.execute("PRAGMA user_version").fetchone()
    return int(row[0])


def apply_migrations(conn: sqlite3.Connection,
                     target: int = SCHEMA_VERSION) -> int:
    """Upgrade ``conn`` to ``target``; returns the number of steps run.

    Each step runs inside its own transaction: either the whole step
    lands (statements + the ``user_version`` bump) or none of it does.
    """
    current = schema_version(conn)
    if current > target:
        raise SchemaError(
            f"database is schema v{current}, newer than this checkout's "
            f"v{target}; refusing to write")
    steps = 0
    for version in range(current + 1, target + 1):
        statements = MIGRATIONS.get(version)
        if statements is None:
            raise SchemaError(f"no migration to schema v{version}")
        # One explicit IMMEDIATE transaction per step: concurrent openers
        # racing to migrate a fresh database serialize here, and the
        # re-check under the write lock makes the loser's step a no-op.
        # (Explicit because callers run in autocommit mode.)
        conn.execute("BEGIN IMMEDIATE")
        try:
            if schema_version(conn) >= version:
                conn.execute("ROLLBACK")
                continue
            for statement in statements:
                conn.execute(statement)
            # PRAGMA cannot be parameterized; version is a trusted int.
            conn.execute(f"PRAGMA user_version = {int(version)}")
        except sqlite3.Error:
            conn.execute("ROLLBACK")
            raise
        else:
            conn.execute("COMMIT")
            steps += 1
    return steps
