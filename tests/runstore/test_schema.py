"""Schema and migration tests for the run store."""

import sqlite3

import pytest

from repro.runstore.schema import (
    MIGRATIONS,
    SCHEMA_VERSION,
    SchemaError,
    apply_migrations,
    schema_version,
)


def columns(conn, table):
    return [row[1] for row in conn.execute(f"PRAGMA table_info({table})")]


def tables(conn):
    return {row[0] for row in conn.execute(
        "SELECT name FROM sqlite_master WHERE type = 'table'")}


class TestFreshDatabase:
    def test_fresh_db_lands_on_current_version(self):
        conn = sqlite3.connect(":memory:")
        steps = apply_migrations(conn)
        assert schema_version(conn) == SCHEMA_VERSION
        assert steps == SCHEMA_VERSION

    def test_all_tables_exist(self):
        conn = sqlite3.connect(":memory:")
        apply_migrations(conn)
        assert {"runs", "metrics", "chaos_outcomes"} <= tables(conn)

    def test_apply_twice_is_a_noop(self):
        conn = sqlite3.connect(":memory:")
        apply_migrations(conn)
        assert apply_migrations(conn) == 0

    def test_every_version_has_a_migration(self):
        assert sorted(MIGRATIONS) == list(range(1, SCHEMA_VERSION + 1))


class TestUpgrade:
    def populate_v1(self, conn):
        """Build a v1 database with one recorded run, as an old checkout
        would have left it."""
        apply_migrations(conn, target=1)
        conn.execute(
            """
            INSERT INTO runs (created_at, kind, benchmark, scale, design,
                              profile, seed, status, spec_json, git_commit)
            VALUES (1.0, 'oltp', 'tpcc', 100, 'LC', 'small', 7, 'ok',
                    '{}', 'abc123')
            """)
        conn.execute(
            "INSERT INTO metrics (run_id, name, value) VALUES (1, 'value', "
            "42.0)")
        conn.commit()

    def test_v1_to_v2_preserves_rows(self):
        conn = sqlite3.connect(":memory:")
        self.populate_v1(conn)
        assert schema_version(conn) == 1

        apply_migrations(conn)
        assert schema_version(conn) == SCHEMA_VERSION
        run = conn.execute("SELECT * FROM runs").fetchone()
        assert run is not None
        metric = conn.execute(
            "SELECT name, value FROM metrics WHERE run_id = 1").fetchone()
        assert metric == ("value", 42.0)

    def test_v2_adds_columns_and_tables(self):
        conn = sqlite3.connect(":memory:")
        self.populate_v1(conn)
        apply_migrations(conn)
        assert "duration" in columns(conn, "runs")
        assert "metric_name" in columns(conn, "runs")
        assert "chaos_outcomes" in tables(conn)
        assert "bench_snapshots" not in tables(conn)

    def test_upgraded_db_accepts_v2_writes(self):
        conn = sqlite3.connect(":memory:")
        self.populate_v1(conn)
        apply_migrations(conn)
        conn.execute(
            """
            INSERT INTO chaos_outcomes (run_id, design, policy, crash_at,
                                        ok) VALUES (1, 'LC', 'sharp', 2.5, 1)
            """)
        assert conn.execute(
            "SELECT COUNT(*) FROM chaos_outcomes").fetchone()[0] == 1


class TestRefusal:
    def test_newer_database_is_refused(self):
        conn = sqlite3.connect(":memory:")
        conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION + 1}")
        with pytest.raises(SchemaError, match="newer"):
            apply_migrations(conn)

    def test_gap_in_chain_is_an_error(self):
        conn = sqlite3.connect(":memory:")
        with pytest.raises(SchemaError, match="no migration"):
            apply_migrations(conn, target=SCHEMA_VERSION + 10)
