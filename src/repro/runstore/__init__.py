"""Experiment run store: a SQLite database of recorded runs.

The paper's evaluation only means something as *trajectories* —
throughput/latency/WAF curves across designs, workloads, and commits.
This package turns every harness run into a durable, queryable row:

* :mod:`repro.runstore.schema`     — versioned schema + migrations;
* :mod:`repro.runstore.provenance` — git/source/host capture per run,
  and the source hash that keys reuse;
* :mod:`repro.runstore.store`      — :class:`RunStore` (recording with
  a single-writer guard, the reuse lookup of a recorded run,
  list/compare/regress/trajectory queries);
* :mod:`repro.runstore.dashboard`  — ``repro serve``: HTML dashboard +
  JSON API over the store;
* :mod:`repro.runstore.cli`        — ``repro runs`` subcommands.

Recording is wired into ``repro sweep`` / ``oltp`` / ``traffic`` /
``tpch`` / ``chaos`` by default, every one through a
:class:`~repro.runstore.store.Recorder`, and is always best-effort: a
corrupted or locked database degrades to JSON-only output and live
runs, never a failed run.  ``repro sweep`` and the benches reuse the
runs it holds.
"""

from repro.runstore.provenance import Provenance, capture, provenance_args
from repro.runstore.schema import SCHEMA_VERSION, apply_migrations
from repro.runstore.store import (DEFAULT_DB, RegressionFinding, RunStore,
                                  StoreError, db_path, open_store)

__all__ = [
    "SCHEMA_VERSION",
    "DEFAULT_DB",
    "Provenance",
    "RegressionFinding",
    "RunStore",
    "StoreError",
    "apply_migrations",
    "capture",
    "db_path",
    "open_store",
    "provenance_args",
]
