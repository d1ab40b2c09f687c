"""Failure policy: a broken run database degrades, never fails a run."""

import sqlite3

import pytest

from repro.cli import main
from repro.runstore.provenance import Provenance
from repro.runstore.schema import SCHEMA_VERSION
from repro.runstore.store import RunStore, StoreError, open_store


class TestOpenStore:
    def test_corrupted_file_returns_none(self, tmp_path, capsys):
        path = tmp_path / "runs.db"
        path.write_bytes(b"this is not a sqlite database" * 10)
        assert open_store(path) is None
        assert "continuing without run recording" in \
            capsys.readouterr().err

    def test_newer_schema_returns_none(self, tmp_path, capsys):
        path = tmp_path / "runs.db"
        conn = sqlite3.connect(path)
        conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION + 1}")
        conn.close()
        assert open_store(path) is None
        assert "newer" in capsys.readouterr().err

    def test_exclusively_locked_db_returns_none(self, tmp_path, capsys):
        path = tmp_path / "runs.db"
        holder = sqlite3.connect(path)
        holder.execute("BEGIN EXCLUSIVE")
        try:
            assert open_store(path, timeout=0.1) is None
            assert "continuing without" in capsys.readouterr().err
        finally:
            holder.rollback()
            holder.close()

    def test_healthy_db_opens(self, tmp_path):
        store = open_store(tmp_path / "runs.db")
        assert store is not None
        store.close()


class TestWriteLockFailure:
    def test_held_write_lock_raises_store_error(self, tmp_path):
        path = tmp_path / "runs.db"
        with RunStore(path) as first:
            first._conn.execute("BEGIN IMMEDIATE")
            with RunStore(path, timeout=0.01) as second:
                with pytest.raises(StoreError, match="write lock"):
                    with second._write(retries=2, backoff=0.01):
                        pass  # pragma: no cover - lock is never granted
            first._conn.execute("ROLLBACK")

    def test_record_fails_cleanly_not_partially(self, tmp_path):
        """A failed metrics insert rolls back the whole run row: the
        store never holds a run without its metrics."""
        path = tmp_path / "runs.db"
        with RunStore(path) as store:
            with pytest.raises(StoreError):
                # SQLite stores NaN as NULL, violating metrics.value's
                # NOT NULL constraint after the runs row is inserted.
                store.record_run(
                    {"benchmark": "tpcc", "scale": 1, "design": "LC"},
                    {"value": float("nan")},
                    provenance=Provenance())
            assert store.list_runs() == []


class TestHarnessFallback:
    def test_sweep_continues_json_only(self, tmp_path, monkeypatch,
                                       capsys):
        """A corrupted database must not cost the sweep its results."""
        bad = tmp_path / "runs.db"
        bad.write_bytes(b"garbage" * 100)
        monkeypatch.setenv("REPRO_RUNSTORE", str(bad))
        out_file = tmp_path / "sweep.json"
        code = main(["sweep", "--benchmark", "tpcc", "--scales", "50",
                     "--designs", "noSSD", "--profile", "tiny",
                     "--duration", "2",
                     "--output", str(out_file)])
        captured = capsys.readouterr()
        assert code == 0
        assert "continuing without run recording" in captured.err
        assert out_file.exists()
        assert "sweep — 1 runs" in captured.out

    def test_no_db_flag_skips_recording(self, tmp_path, monkeypatch,
                                        capsys):
        db = tmp_path / "runs.db"
        monkeypatch.setenv("REPRO_RUNSTORE", str(db))
        code = main(["oltp", "--scale", "50", "--profile", "tiny",
                     "--duration", "2", "--workers", "4",
                     "--designs", "noSSD", "--no-db"])
        assert code == 0
        assert not db.exists()
