"""A database an older checkout left behind reads the same after upgrade.

The file is built by the schema chain up to v2 and holds rows in every
v2 table: two recorded OLTP runs of one spec and a third of another, a
chaos group with its crash points, and a stored whole-document
snapshot.  Whatever version this checkout upgrades it to, ``repro runs
list / show / compare / regress`` print what is pinned here, and the
rows of ``runs``, ``metrics`` and ``chaos_outcomes`` are all still
there.
"""

import json
import sqlite3

import pytest

from repro.cli import main
from repro.runstore.schema import apply_migrations

SPEC = {"kind": "oltp", "benchmark": "tpcc", "scale": 100, "design": "LC",
        "profile": "small", "seed": 7, "duration": 30.0}

#: (created_at, spec, status, kind, metric_name, metrics)
RUNS = [
    (1.0, SPEC, "ok", "oltp", "tpmC",
     {"value": 100.0, "latency_p50": 0.002, "latency_p99": 0.01,
      "ssd_hit_rate": 0.5, "waf": 1.25}),
    (2.0, SPEC, "ok", "oltp", "tpmC",
     {"value": 60.0, "latency_p50": 0.003, "latency_p99": 0.02,
      "ssd_hit_rate": 0.4, "waf": 1.5}),
    (3.0, dict(SPEC, design="noSSD"), "ok", "oltp", "tpmC",
     {"value": 40.0, "latency_p50": 0.004, "latency_p99": 0.03}),
    (4.0, {"kind": "chaos", "benchmark": "crashpoints", "scale": 2,
           "design": "LC", "profile": "sharp", "seed": 7},
     "failed", "chaos", "crash_points",
     {"points": 2.0, "failed": 1.0, "pages_redone": 10.0,
      "committed_pages": 90.0}),
]


def build_v2(path):
    """The v2 file, as an older checkout's recorders would leave it."""
    conn = sqlite3.connect(str(path))
    apply_migrations(conn, target=2)
    for created_at, spec, status, kind, metric_name, metrics in RUNS:
        cursor = conn.execute(
            """
            INSERT INTO runs (created_at, kind, benchmark, scale, design,
                              profile, seed, status, spec_json, git_commit,
                              git_branch, git_dirty, source_hash, host,
                              python, duration, metric_name)
            VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, 'deadbeef0011', 'main', 0,
                    'cafe', 'old-host', '3.9.1', ?, ?)
            """,
            (created_at, kind, spec["benchmark"], spec["scale"],
             spec["design"], spec["profile"], spec["seed"], status,
             json.dumps(spec, sort_keys=True, separators=(",", ":")),
             spec.get("duration"), metric_name))
        conn.executemany(
            "INSERT INTO metrics (run_id, name, value) VALUES (?, ?, ?)",
            [(cursor.lastrowid, name, value)
             for name, value in sorted(metrics.items())])
    conn.executemany(
        """
        INSERT INTO chaos_outcomes (run_id, design, policy, crash_at, ok,
                                    pages_redone, committed_pages, error)
        VALUES (4, 'LC', 'sharp', ?, ?, ?, 45, ?)
        """, [(1.5, 1, 10, None), (3.0, 0, 0, "page 3 stale")])
    conn.execute(
        """
        INSERT INTO bench_snapshots (created_at, workload, git_commit,
                                     git_branch, git_dirty, source_hash,
                                     doc_json)
        VALUES (5.0, 'oltp', 'deadbeef0011', 'main', 0, 'cafe',
                '{"workload":"oltp","designs":{}}')
        """)
    conn.commit()
    conn.close()


@pytest.fixture
def v2_db(tmp_path):
    build_v2(tmp_path / "old.db")
    return str(tmp_path / "old.db")


LIST = """\
runs — 4 shown (newest first)
=============================
run   kind         grid cell  profile      commit  status  value  p99 (s)    waf
---  -----  ----------------  -------  ----------  ------  -----  -------  -----
 #4  chaos  crashpoints/2/LC    sharp  deadbeef00  failed      -        -      -
 #3   oltp    tpcc/100/noSSD    small  deadbeef00      ok   40.0    0.030      -
 #2   oltp       tpcc/100/LC    small  deadbeef00      ok   60.0    0.020  1.500
 #1   oltp       tpcc/100/LC    small  deadbeef00      ok  100.0    0.010  1.250
"""

SHOW_RUN = """\
run #1 — oltp tpcc/100/LC (profile small, status ok)
  commit deadbeef00 branch main source cafe
  host old-host python 3.9.1 seed 7
  spec {"benchmark": "tpcc", "design": "LC", "duration": 30.0, \
"kind": "oltp", "profile": "small", "scale": 100, "seed": 7}
metrics
=======
        name  value
------------  -----
 latency_p50  0.002
 latency_p99   0.01
ssd_hit_rate    0.5
       value    100
         waf   1.25
"""

SHOW_CHAOS = """\
run #4 — chaos crashpoints/2/LC (profile sharp, status failed)
  commit deadbeef00 branch main source cafe
  host old-host python 3.9.1 seed 7
  spec {"benchmark": "crashpoints", "design": "LC", "kind": "chaos", \
"profile": "sharp", "scale": 2, "seed": 7}
metrics
=======
           name  value
---------------  -----
committed_pages     90
         failed      1
   pages_redone     10
         points      2
crash points
============
    t  policy  verdict  redone         error
-----  ------  -------  ------  ------------
1.500   sharp       ok      10             -
3.000   sharp     FAIL       0  page 3 stale
"""

COMPARE = """\
compare — newest run per design (benchmark=tpcc)
================================================
design  run      commit  value  p50 (s)  p99 (s)  SSD hit    waf  wear
------  ---  ----------  -----  -------  -------  -------  -----  ----
    LC   #2  deadbeef00   60.0    0.003    0.020    40.0%  1.500     -
 noSSD   #3  deadbeef00   40.0    0.004    0.030        -      -     -
"""

REGRESS = """\
REGRESSIONS — 2 finding(s) across 2 cells
=========================================
  grid cell  profile       metric  latest  baseline  ratio
-----------  -------  -----------  ------  --------  -----
tpcc/100/LC    small        value      60       100  0.60x
tpcc/100/LC    small  latency_p99    0.02      0.01  2.00x
"""


@pytest.mark.parametrize("argv, code, expected", [
    (["list"], 0, LIST),
    (["show", "1"], 0, SHOW_RUN),
    (["show", "4"], 0, SHOW_CHAOS),
    (["compare", "--benchmark", "tpcc"], 0, COMPARE),
    (["regress"], 1, REGRESS),
])
def test_queries_read_the_upgraded_file_as_before(v2_db, capsys, argv,
                                                  code, expected):
    assert main(["runs", "--db", v2_db, *argv]) == code
    assert capsys.readouterr().out == expected


def test_upgrade_keeps_every_row(v2_db):
    assert main(["runs", "--db", v2_db, "list"]) == 0
    conn = sqlite3.connect(v2_db)
    counts = [conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0]
              for table in ("runs", "metrics", "chaos_outcomes")]
    assert counts == [4, 17, 2]
