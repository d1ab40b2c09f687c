"""The experiment run store: a SQLite database of every recorded run.

One ``runs`` row per experiment (spec + provenance + status), one
``metrics`` row per scalar the harness measured (throughput, latency
percentiles, WAF, wear, fault outcomes), plus crash-sweep verdicts
(``chaos_outcomes``): the history ``repro runs compare`` / ``regress``
and the dashboard read.  A run a sweep or bench computed also keeps its
``result.to_dict()`` in ``records`` (zlib-packed JSON); a later sweep
of the same ``spec_json`` under the same ``source_hash`` restores that
record instead of running again (:meth:`RunStore.find_result`).  The
store is the only on-disk copy of a run.

Concurrency: SQLite serializes writers, and the store leans into that —
every write happens inside ``BEGIN IMMEDIATE`` (the single-writer
guard), with a busy timeout plus bounded retries so parallel sweep
workers recording into one database queue instead of failing.  Readers
(the dashboard, ``repro runs``) never block writers in WAL mode.

Failure policy: any corrupted, locked, or version-skewed database
raises :class:`StoreError`.  Commands record through one
:class:`Recorder`, which catches it, says so once and records nothing
more — a broken run database must never cost a completed simulation its
results.
"""

from __future__ import annotations

import json
import math
import os
import sqlite3
import statistics
import sys
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import (TYPE_CHECKING, Any, Callable, Dict, Iterable, Iterator,
                    List, Optional, Sequence, Tuple, Union)

from repro.runstore.provenance import Provenance, capture, code_version
from repro.runstore.schema import SchemaError, apply_migrations

if TYPE_CHECKING:  # the harness imports this module lazily
    from repro.harness.experiments import RunSpec

#: Default database file, overridable with ``REPRO_RUNSTORE``.
DEFAULT_DB = ".repro-runs.db"

#: Metrics where a *larger* latest value is a regression.
LOWER_IS_BETTER = ("latency_p99", "waf")

#: Metrics where a *smaller* latest value is a regression.
HIGHER_IS_BETTER = ("value",)


class StoreError(Exception):
    """The run database is unusable (corrupted, locked, or skewed)."""


def db_path(override: Optional[str] = None) -> Path:
    """Resolve the database path (flag > ``REPRO_RUNSTORE`` > default)."""
    return Path(override or os.environ.get("REPRO_RUNSTORE", DEFAULT_DB))


def spec_json(spec: Dict[str, Any]) -> str:
    """The canonical ``runs.spec_json`` of a spec document: the key of a
    run's ``regress`` group and, with the source hash, of its reuse."""
    return json.dumps(spec, sort_keys=True, separators=(",", ":"))


def open_store(path: Optional[Union[str, Path]] = None,
               timeout: float = 30.0) -> Optional["RunStore"]:
    """Open the store, or ``None`` (with a reason on stderr) if broken.

    This is the harness entry point: recording is best-effort, so an
    unusable database degrades to live runs and JSON-only output
    instead of failing the run that produced the data.
    """
    try:
        return RunStore(db_path(str(path) if path is not None else None),
                        timeout=timeout)
    except StoreError as exc:
        print(f"runstore: {exc}; continuing without run recording",
              file=sys.stderr)
        return None


class Recorder:
    """The one way a command records and reuses its runs, best-effort.

    The first :class:`StoreError` prints one message and ends recording
    and reuse; the runs themselves carry on.  ``store`` None
    (``--no-db``, or a database :func:`open_store` could not open)
    records nothing and reuses nothing.  All recording happens in the
    parent process (sweep workers ship plain records back), so one
    command is one writer; the store's ``BEGIN IMMEDIATE`` guard covers
    concurrent commands sharing a database.
    """

    def __init__(self, store: Optional["RunStore"],
                 say: Callable[[str], None] = lambda message: print(
                     message, file=sys.stderr)) -> None:
        self.store = store
        self.recorded = 0
        self._say = say
        self._failed = False

    def _guarded(self, action: Callable[["RunStore"], Any]) -> Any:
        """``action(store)``'s value, or None when there is no usable
        store."""
        if self.store is None or self._failed:
            return None
        try:
            return action(self.store)
        except StoreError as exc:
            self._say(f"runstore: {exc}; recording stops here (results "
                      f"are unaffected)")
            self._failed = True
            return None

    def reuse(self, spec: "RunSpec") -> Any:
        """The recorded result :meth:`RunStore.find_result` restores for
        ``spec``, or None: run it live."""
        return self._guarded(lambda store: store.find_result(spec))

    def record(self, spec: "RunSpec", result: Any,
               faults: Optional[str] = None,
               record: Optional[Dict[str, Any]] = None) -> None:
        """Record one run (``faults``: the plan's grammar string;
        ``record``: the ``result.to_dict()`` a later sweep may reuse)."""
        if self._guarded(lambda store: store.record_result(
                spec, result, faults, record=record)) is not None:
            self.recorded += 1

    def record_chaos(self, outcomes: Iterable[Any],
                     seed: Optional[int]) -> Optional[List[int]]:
        """Record a crash-point sweep; its run ids, or None."""
        return self._guarded(lambda store: store.record_chaos(
            outcomes, seed))

    def __enter__(self) -> "Recorder":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        if self.store is not None:
            self.store.close()


@dataclass
class RegressionFinding:
    """One metric of one run group that worsened past tolerance."""

    benchmark: str
    scale: int
    design: str
    profile: str
    metric: str
    latest: float
    baseline: float
    ratio: float

    @property
    def group_label(self) -> str:
        return f"{self.benchmark}/{self.scale}/{self.design}"


class RunStore:
    """Connection to one run database, upgraded to the current schema."""

    def __init__(self, path: Union[str, Path], timeout: float = 30.0):
        self.path = Path(path)
        self.timeout = timeout
        try:
            self._conn = sqlite3.connect(str(self.path), timeout=timeout)
            self._conn.row_factory = sqlite3.Row
            self._conn.isolation_level = None  # explicit transactions
            self._conn.execute(
                f"PRAGMA busy_timeout = {int(timeout * 1000)}")
            # The journal mode is the file's; the two below are this
            # connection's and take no lock.  Switching a fresh file to
            # WAL needs it to itself, and SQLite refuses at once rather
            # than wait on the busy timeout when a racing opener reads
            # it: only the first opener switches, under the backoff.
            self._backoff(self._enter_wal_mode, "could not enter WAL mode")
            self._conn.execute("PRAGMA synchronous = NORMAL")
            self._conn.execute("PRAGMA foreign_keys = ON")
            apply_migrations(self._conn)
        except (sqlite3.Error, SchemaError) as exc:
            raise StoreError(f"{self.path}: {exc}") from exc

    def _enter_wal_mode(self) -> None:
        if self._conn.execute("PRAGMA journal_mode").fetchone()[0] != "wal":
            self._conn.execute("PRAGMA journal_mode = WAL")

    def _backoff(self, attempt: Callable[[], object], failure: str,
                 retries: int = 5, backoff: float = 0.05) -> None:
        """Call ``attempt`` until it raises no lock error, sleeping
        ``backoff * 2**n`` after the n-th; :class:`StoreError` after
        ``retries`` of them."""
        last: Optional[sqlite3.OperationalError] = None
        for n in range(retries):
            try:
                attempt()
                return
            except sqlite3.OperationalError as exc:
                last = exc
            time.sleep(backoff * (2 ** n))
        raise StoreError(f"{self.path}: {failure} after {retries} "
                         f"attempts: {last}") from last

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "RunStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # The single-writer guard
    # ------------------------------------------------------------------

    @contextmanager
    def _write(self, retries: int = 5,
               backoff: float = 0.05) -> Iterator[sqlite3.Connection]:
        """``BEGIN IMMEDIATE`` transaction with bounded lock retries.

        ``BEGIN IMMEDIATE`` takes the write lock *up front*, so two
        concurrent recorders serialize at transaction start instead of
        deadlocking at commit.  The busy timeout absorbs short waits;
        the retry loop absorbs a writer that held the lock longer.
        """
        self._backoff(lambda: self._conn.execute("BEGIN IMMEDIATE"),
                      "could not take the write lock", retries, backoff)
        try:
            yield self._conn
        except sqlite3.Error as exc:
            self._conn.execute("ROLLBACK")
            raise StoreError(f"{self.path}: write failed: {exc}") from exc
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise
        else:
            self._conn.execute("COMMIT")

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def record_run(self, spec: Dict[str, Any],
                   metrics: Dict[str, float],
                   provenance: Optional[Provenance] = None,
                   status: str = "ok",
                   kind: Optional[str] = None,
                   metric_name: Optional[str] = None,
                   created_at: Optional[float] = None,
                   body: Optional[bytes] = None) -> int:
        """Insert one run row plus its scalar metrics, and its packed
        record (``body``) when given; returns run id."""
        prov = provenance if provenance is not None else capture()
        with self._write() as conn:
            cursor = conn.execute(
                """
                INSERT INTO runs (created_at, kind, benchmark, scale,
                                  design, profile, seed, status, spec_json,
                                  git_commit, git_branch, git_dirty,
                                  source_hash, host, python, duration,
                                  metric_name)
                VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
                """,
                (created_at if created_at is not None else time.time(),
                 kind or str(spec.get("kind", "oltp")),
                 str(spec.get("benchmark", "?")),
                 int(spec.get("scale", 0)),
                 str(spec.get("design", "?")),
                 str(spec.get("profile", "default")),
                 spec.get("seed"),
                 status,
                 spec_json(spec),
                 prov.git_commit, prov.git_branch,
                 None if prov.git_dirty is None else int(prov.git_dirty),
                 prov.source_hash, prov.host, prov.python,
                 spec.get("duration"), metric_name))
            run_id = int(cursor.lastrowid)
            conn.executemany(
                "INSERT INTO metrics (run_id, name, value) VALUES (?, ?, ?)",
                [(run_id, name, float(value))
                 for name, value in sorted(metrics.items())
                 if value is not None])
            if body is not None:
                conn.execute(
                    "INSERT INTO records (run_id, body) VALUES (?, ?)",
                    (run_id, body))
        return run_id

    def record_result(self, spec: "RunSpec", result: Any,
                      faults: Optional[str] = None,
                      provenance: Optional[Provenance] = None,
                      record: Optional[Dict[str, Any]] = None) -> int:
        """Record one harness run: ``spec.to_dict()`` plus the fault
        plan's grammar string (``faults``, None for a clean run) is the
        ``spec_json``, so runs under different plans never share a
        ``regress`` group; ``result.metrics()`` is the metric rows — the
        same for a live ``RunResult``/``TpchResult`` and one restored
        from a record.  ``record`` (the run's ``to_dict()``) is kept,
        zlib-packed, for :meth:`find_result`."""
        return self.record_run(
            dict(spec.to_dict(), faults=faults), result.metrics(),
            provenance=provenance, metric_name=result.metric_name,
            body=None if record is None else zlib.compress(
                json.dumps(record, separators=(",", ":")).encode()))

    def record_chaos(self, outcomes: Iterable[Any],
                     seed: Optional[int] = None,
                     provenance: Optional[Provenance] = None) -> List[int]:
        """Record a crash-point sweep: one run row per design x policy
        group plus one ``chaos_outcomes`` row per crash point."""
        prov = provenance if provenance is not None else capture()
        groups: Dict[Tuple[str, str], List[Any]] = {}
        for outcome in outcomes:
            groups.setdefault((outcome.design, outcome.policy),
                              []).append(outcome)
        run_ids: List[int] = []
        for (design, policy), points in sorted(groups.items()):
            failed = sum(1 for o in points if not o.ok)
            spec = {"kind": "chaos", "benchmark": "crashpoints",
                    "scale": len(points), "design": design,
                    "profile": policy, "seed": seed}
            run_id = self.record_run(
                spec,
                {"points": len(points), "failed": failed,
                 "pages_redone": sum(o.pages_redone for o in points),
                 "committed_pages": sum(o.committed_pages for o in points)},
                provenance=prov, status="ok" if not failed else "failed",
                kind="chaos", metric_name="crash_points")
            with self._write() as conn:
                conn.executemany(
                    """
                    INSERT INTO chaos_outcomes
                        (run_id, design, policy, crash_at, ok,
                         pages_redone, committed_pages, error)
                    VALUES (?, ?, ?, ?, ?, ?, ?, ?)
                    """,
                    [(run_id, design, policy, o.crash_at, int(o.ok),
                      o.pages_redone, o.committed_pages, o.error)
                     for o in points])
            run_ids.append(run_id)
        return run_ids

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def find_result(self, spec: "RunSpec") -> Any:
        """The newest recorded run of ``spec`` (clean, under the running
        sources' :func:`code_version`) restored from its record, or
        None: no such record, or one that does not unpack or restore
        (bad zlib or JSON, or JSON of another shape).  A run that kept
        no record (a reuse, or a v3 row) is not one."""
        rows = self._rows(
            """
            SELECT body FROM runs JOIN records ON records.run_id = runs.id
            WHERE spec_json = ? AND source_hash = ?
            ORDER BY runs.id DESC LIMIT 1
            """, [spec_json(dict(spec.to_dict(), faults=None)),
                  code_version()])
        if not rows:
            return None
        try:
            return spec.result_type.from_dict(
                json.loads(zlib.decompress(rows[0]["body"])))
        except (zlib.error, ValueError, KeyError, TypeError, AttributeError):
            return None

    def _rows(self, sql: str, params: Sequence[Any]) -> List[Dict[str, Any]]:
        try:
            return [dict(row)
                    for row in self._conn.execute(sql, params).fetchall()]
        except sqlite3.Error as exc:
            raise StoreError(f"{self.path}: query failed: {exc}") from exc

    @staticmethod
    def _filters(benchmark: Optional[str] = None,
                 design: Optional[str] = None,
                 scale: Optional[int] = None,
                 kind: Optional[str] = None,
                 profile: Optional[str] = None,
                 commit: Optional[str] = None,
                 status: Optional[str] = None
                 ) -> Tuple[str, List[Any]]:
        clauses, params = [], []  # type: List[str], List[Any]
        for column, value in (("benchmark", benchmark), ("design", design),
                              ("scale", scale), ("kind", kind),
                              ("profile", profile), ("status", status)):
            if value is not None:
                clauses.append(f"{column} = ?")
                params.append(value)
        if commit is not None:
            # Accept abbreviated hashes, as git does everywhere else.
            clauses.append("git_commit LIKE ?")
            params.append(f"{commit}%")
        where = (" WHERE " + " AND ".join(clauses)) if clauses else ""
        return where, params

    def list_runs(self, limit: int = 50, **filters: Any
                  ) -> List[Dict[str, Any]]:
        """Most-recent-first run rows matching the filters."""
        where, params = self._filters(**filters)
        return self._rows(
            f"SELECT * FROM runs{where} ORDER BY id DESC LIMIT ?",
            params + [limit])

    def metrics_for(self, run_id: int) -> Dict[str, float]:
        """All scalar metrics of one run."""
        return {row["name"]: row["value"] for row in self._rows(
            "SELECT name, value FROM metrics WHERE run_id = ? ORDER BY name",
            [run_id])}

    def get_run(self, run_id: int
                ) -> Optional[Tuple[Dict[str, Any], Dict[str, float]]]:
        """One run row plus its metrics, or None."""
        rows = self._rows("SELECT * FROM runs WHERE id = ?", [run_id])
        if not rows:
            return None
        return rows[0], self.metrics_for(run_id)

    def chaos_for(self, run_id: int) -> List[Dict[str, Any]]:
        """Crash-point outcomes attached to a chaos run."""
        return self._rows(
            "SELECT * FROM chaos_outcomes WHERE run_id = ? ORDER BY id",
            [run_id])

    def latest_per_design(self, **filters: Any
                          ) -> List[Tuple[Dict[str, Any], Dict[str, float]]]:
        """The newest run of each design matching the filters (the
        ``repro runs compare`` data: one row per design, latest code)."""
        where, params = self._filters(**filters)
        rows = self._rows(
            f"""
            SELECT * FROM runs{where}
            ORDER BY id DESC
            """, params)
        latest: Dict[str, Dict[str, Any]] = {}
        for row in rows:
            latest.setdefault(row["design"], row)
        return [(row, self.metrics_for(row["id"]))
                for row in sorted(latest.values(),
                                  key=lambda r: r["design"])]

    def trajectory(self, metric: str, **filters: Any
                   ) -> Dict[str, List[Dict[str, Any]]]:
        """Per-design time series of one metric across recorded runs.

        Returns ``{design: [{run_id, created_at, git_commit, value}]}``
        oldest-first — the dashboard's trajectory data.
        """
        where, params = self._filters(**filters)
        rows = self._rows(
            f"""
            SELECT r.id AS run_id, r.design, r.created_at,
                   r.git_commit, metrics.value
            FROM (SELECT * FROM runs{where}) AS r
            JOIN metrics ON metrics.run_id = r.id
            WHERE metrics.name = ?
            ORDER BY r.id
            """, params + [metric])
        series: Dict[str, List[Dict[str, Any]]] = {}
        for row in rows:
            series.setdefault(row["design"], []).append({
                "run_id": row["run_id"],
                "created_at": row["created_at"],
                "git_commit": row["git_commit"],
                "value": row["value"],
            })
        return series

    def commits(self, **filters: Any) -> List[str]:
        """Distinct commits with recorded runs, oldest-first."""
        where, params = self._filters(**filters)
        rows = self._rows(
            f"""
            SELECT git_commit, MIN(id) AS first FROM runs{where}
            GROUP BY git_commit ORDER BY first
            """, params)
        return [row["git_commit"] for row in rows
                if row["git_commit"] is not None]

    # ------------------------------------------------------------------
    # Regression check
    # ------------------------------------------------------------------

    def regress(self, baseline_n: int = 5, tolerance: float = 0.25,
                **filters: Any
                ) -> Tuple[List[RegressionFinding], int]:
        """Compare each group's newest run against its last-N baseline.

        A *group* is every recorded run of one spec: rows whose
        canonical ``spec_json`` is equal, so the same grid cell at a
        different worker count, duration or seed is a different group.
        For every group the latest run's throughput (``value``), tail
        latency (``latency_p99``), and write amplification (``waf``)
        are checked against the median of the up-to-``baseline_n``
        preceding runs; a metric that worsens by more than
        ``tolerance`` (fractional) is a finding.  A group with no
        history is compared against itself — trivially passing, so a
        fresh database never fails the check.  A window below one or a
        negative or non-finite tolerance is a ``ValueError``: either
        would pass every group.

        Returns ``(findings, groups_checked)``.
        """
        if baseline_n < 1:
            raise ValueError(f"baseline_n must be >= 1, got {baseline_n}")
        if not 0 <= tolerance < math.inf:
            raise ValueError(f"tolerance must be finite and >= 0, "
                             f"got {tolerance}")
        filters.setdefault("status", "ok")
        where, params = self._filters(**filters)
        extra = "kind != 'chaos'"
        where = (f"{where} AND {extra}" if where else f" WHERE {extra}")
        groups = self._rows(
            f"""
            SELECT DISTINCT spec_json, benchmark, scale, design, profile
            FROM runs{where}
            ORDER BY benchmark, scale, design, profile, spec_json
            """, params)
        findings: List[RegressionFinding] = []
        for group in groups:
            runs = self._rows(
                """
                SELECT * FROM runs WHERE spec_json = ? AND status = 'ok'
                ORDER BY id DESC LIMIT ?
                """, [group["spec_json"], baseline_n + 1])
            if not runs:
                continue
            latest = self.metrics_for(runs[0]["id"])
            history = runs[1:] or runs[:1]
            baselines = [self.metrics_for(run["id"]) for run in history]
            for metric in HIGHER_IS_BETTER + LOWER_IS_BETTER:
                if metric not in latest:
                    continue
                past = [b[metric] for b in baselines if metric in b]
                if not past:
                    continue
                baseline = statistics.median(past)
                current = latest[metric]
                if metric in HIGHER_IS_BETTER:
                    worse = (baseline > 0
                             and current < baseline * (1.0 - tolerance))
                else:
                    worse = (current > baseline * (1.0 + tolerance)
                             and current - baseline > 1e-9)
                if worse:
                    findings.append(RegressionFinding(
                        benchmark=group["benchmark"], scale=group["scale"],
                        design=group["design"], profile=group["profile"],
                        metric=metric,
                        latest=current, baseline=baseline,
                        ratio=(current / baseline if baseline else
                               float("inf"))))
        return findings, len(groups)
