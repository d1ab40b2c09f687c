"""Concurrent recording: the single-writer guard under contention."""

import threading

from repro.runstore.provenance import Provenance
from repro.runstore.store import RunStore

PROV = Provenance(git_commit="deadbeef00", source_hash="cafe")


def writer(path, design, n, errors):
    try:
        with RunStore(path) as store:
            for i in range(n):
                store.record_run(
                    {"kind": "oltp", "benchmark": "tpcc", "scale": 100,
                     "design": design, "profile": "small", "run": i},
                    {"value": 100.0 + i, "latency_p99": 0.01},
                    provenance=PROV)
    except Exception as exc:  # propagated to the main thread's assert
        errors.append(exc)


class TestConcurrentWriters:
    def test_two_writers_one_database(self, tmp_path):
        """Two connections recording interleaved runs — the parallel
        sweep shape — must all land without lock failures."""
        path = tmp_path / "runs.db"
        errors = []
        threads = [
            threading.Thread(target=writer, args=(path, design, 10, errors))
            for design in ("LC", "LS")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert errors == []
        with RunStore(path) as store:
            runs = store.list_runs(limit=100)
            assert len(runs) == 20
            assert sum(1 for r in runs if r["design"] == "LC") == 10
            # Every run kept its metrics: no half-committed rows.
            for run in runs:
                metrics = store.metrics_for(run["id"])
                assert set(metrics) == {"value", "latency_p99"}

    def test_reader_sees_consistent_rows_during_writes(self, tmp_path):
        path = tmp_path / "runs.db"
        errors = []
        write = threading.Thread(target=writer,
                                 args=(path, "LC", 15, errors))
        write.start()
        seen = []
        with RunStore(path) as store:
            while write.is_alive():
                for run in store.list_runs(limit=100):
                    metrics = store.metrics_for(run["id"])
                    assert "value" in metrics
                seen.append(len(store.list_runs(limit=100)))
        write.join()
        assert errors == []
        # Counts only ever grow: WAL readers never observe rollbacks.
        assert seen == sorted(seen)


class TestConcurrentOpeners:
    def test_fresh_file_opened_by_eight_threads(self, tmp_path):
        """Racing openers of a new database serialize (DESIGN.md §11):
        the switch to WAL mode and the schema migration may meet a lock
        the other openers hold, and must wait for it, not fail."""
        errors = []

        def opener(path, barrier):
            try:
                barrier.wait()
                RunStore(path).close()
            except Exception as exc:  # asserted in the main thread
                errors.append(exc)

        for round_no in range(50):
            path = tmp_path / f"runs-{round_no}.db"
            barrier = threading.Barrier(8, timeout=60)
            threads = [threading.Thread(target=opener, args=(path, barrier))
                       for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        assert errors == []
