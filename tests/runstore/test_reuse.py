"""The run store as the only on-disk copy of a run: what it reuses.

A database an older checkout wrote (schema v3, no ``records``) upgrades
in place, reads back unchanged and serves none of its runs, since they
kept no record.  A record that unpacks but has the wrong shape is a
miss too.  A run a bench reused is a history row like any other:
``repro runs show`` prints it.
"""

import sqlite3

from repro.cli import main
from repro.harness.experiments import RunSpec, run
from repro.harness.sweep import run_sweep
from repro.runstore.provenance import code_version
from repro.runstore.schema import SCHEMA_VERSION, apply_migrations
from repro.runstore.store import Recorder, RunStore, spec_json
from repro.workloads.tpch import TpchResult

SPEC = RunSpec(kind="oltp", benchmark="tpcc", scale=10, design="noSSD",
               profile="tiny", duration=2.0, nworkers=2)


def build_v3(path):
    """A v3 file holding two runs of SPEC under the running sources, as
    a checkout before records would have left them."""
    conn = sqlite3.connect(str(path))
    apply_migrations(conn, target=3)
    for created_at, value in ((1.0, 100.0), (2.0, 110.0)):
        cursor = conn.execute(
            """
            INSERT INTO runs (created_at, kind, benchmark, scale, design,
                              profile, seed, status, spec_json, git_commit,
                              git_branch, git_dirty, source_hash, host,
                              python, duration, metric_name)
            VALUES (?, 'oltp', 'tpcc', 10, 'noSSD', 'tiny', ?, 'ok', ?,
                    'deadbeef0011', 'main', 0, ?, 'old-host', '3.9.1',
                    2.0, 'tpmC')
            """,
            (created_at, SPEC.seed, spec_json(dict(SPEC.to_dict(),
                                                   faults=None)),
             code_version()))
        conn.executemany(
            "INSERT INTO metrics (run_id, name, value) VALUES (?, ?, ?)",
            [(cursor.lastrowid, "latency_p99", 0.01),
             (cursor.lastrowid, "value", value)])
    conn.commit()
    conn.close()


def dump(path):
    """Every row of ``runs`` and ``metrics``, read with plain sqlite3."""
    conn = sqlite3.connect(str(path))
    try:
        return [conn.execute(f"SELECT * FROM {table} ORDER BY {order}")
                .fetchall() for table, order in (("runs", "id"),
                                                 ("metrics", "run_id, name"))]
    finally:
        conn.close()


def test_a_v3_database_upgrades_and_reuses_none_of_its_runs(tmp_path):
    path = tmp_path / "old.db"
    build_v3(path)
    before = dump(path)
    with RunStore(path) as store:
        version = store._conn.execute("PRAGMA user_version").fetchone()[0]
        assert version == SCHEMA_VERSION == 4
        assert dump(path) == before
        assert [store.metrics_for(run["id"])
                for run in reversed(store.list_runs())] == [
            {"latency_p99": 0.01, "value": 100.0},
            {"latency_p99": 0.01, "value": 110.0}]
        # Same spec_json, same source hash, but no record: a miss.
        assert store.find_result(SPEC) is None
        report = run_sweep([SPEC], recorder=Recorder(store))
        assert report.computed == 1 and report.cached == 0
        assert store.find_result(SPEC) is not None
        assert dump(path)[0][:2] == before[0]


def test_a_record_of_the_wrong_shape_is_a_miss(tmp_path):
    """A body that unpacks to JSON but not to a result is a miss, not
    an error that would end the sweep or bench looking it up."""
    tpch_spec = RunSpec(kind="tpch", benchmark="tpch", scale=30,
                        design="LC", profile="tiny")
    tpch = TpchResult(sf=30, query_times={1: 1.0}, rf_times=[0.5, 0.5],
                      power_elapsed=2.0, throughput_elapsed=3.0, streams=2)
    with RunStore(tmp_path / "runs.db") as store:
        for spec, result, name, wrong in (
                (tpch_spec, tpch, "query_times", [1.0]),
                (SPEC, run(SPEC), "tenants", [])):
            store.record_result(spec, result, record=result.to_dict())
            assert store.find_result(spec).metrics() == result.metrics()
            store.record_result(spec, result,
                                record=dict(result.to_dict(), **{name: wrong}))
            assert store.find_result(spec) is None, name


def test_runs_show_prints_a_run_a_bench_reused(tmp_path, monkeypatch,
                                               capsys):
    from benchmarks import common

    db = tmp_path / "bench.db"
    monkeypatch.setenv("REPRO_RUNSTORE", str(db))
    monkeypatch.setattr(common, "PROFILE_NAME", "tiny")
    with Recorder(RunStore(db)) as recorder:
        monkeypatch.setattr(common, "RECORDER", recorder)
        live = common.oltp_run("tpcc", 10, "noSSD", duration=2.0,
                               nworkers=2)
        reused = common.oltp_run("tpcc", 10, "noSSD", duration=2.0,
                                 nworkers=2)
        assert live.system is not None and reused.system is None
        assert reused.metrics() == live.metrics()
        assert recorder.recorded == 2
        reused_id = recorder.store.list_runs()[0]["id"]

    assert main(["runs", "show", str(reused_id)]) == 0
    out = capsys.readouterr().out
    assert f"run #{reused_id} — oltp tpcc/10/noSSD (profile tiny" in out
    assert f"{live.metrics()['value']:,.6g}" in out
