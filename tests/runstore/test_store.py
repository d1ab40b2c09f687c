"""RunStore recording/query round-trips and the regression check."""

import json
from dataclasses import dataclass
from typing import Optional

import pytest

from repro.harness.experiments import RunSpec
from repro.harness.metrics import LatencyTracker
from repro.harness.runner import RunResult
from repro.runstore.provenance import Provenance
from repro.runstore.store import RunStore
from repro.workloads.tpch import TpchResult

PROV = Provenance(git_commit="deadbeef00", git_branch="main",
                  git_dirty=False, source_hash="cafe", host="test",
                  python="3.x")


@pytest.fixture
def store(tmp_path):
    with RunStore(tmp_path / "runs.db") as s:
        yield s


def record(store, design="LC", value=100.0, p99=0.01, waf=None,
           commit="deadbeef00", status="ok", scale=100, created_at=None,
           nworkers=16):
    metrics = {"value": value, "latency_p99": p99}
    if waf is not None:
        metrics["waf"] = waf
    prov = Provenance(git_commit=commit, git_branch="main",
                      git_dirty=False, source_hash="cafe")
    return store.record_run(
        {"kind": "oltp", "benchmark": "tpcc", "scale": scale,
         "design": design, "profile": "small", "seed": 7,
         "duration": 30.0, "nworkers": nworkers},
        metrics, provenance=prov, status=status, metric_name="tpmC",
        created_at=created_at)


class TestRecordAndQuery:
    def test_round_trip(self, store):
        run_id = record(store, value=123.0, waf=1.5)
        run, metrics = store.get_run(run_id)
        assert run["design"] == "LC"
        assert run["git_commit"] == "deadbeef00"
        assert run["metric_name"] == "tpmC"
        assert run["duration"] == 30.0
        assert metrics["value"] == 123.0
        assert metrics["waf"] == 1.5

    def test_list_newest_first_with_filters(self, store):
        record(store, design="LC")
        record(store, design="DW")
        record(store, design="LC")
        runs = store.list_runs(design="LC")
        assert [run["design"] for run in runs] == ["LC", "LC"]
        assert runs[0]["id"] > runs[1]["id"]
        assert store.list_runs(design="noSSD") == []

    def test_commit_filter_accepts_abbreviations(self, store):
        record(store, commit="deadbeef00")
        record(store, commit="0123456789")
        assert len(store.list_runs(commit="dead")) == 1

    def test_none_metrics_are_skipped(self, store):
        run_id = store.record_run(
            {"benchmark": "tpcc", "scale": 1, "design": "LC"},
            {"value": 1.0, "waf": None}, provenance=PROV)
        assert store.metrics_for(run_id) == {"value": 1.0}

    def test_latest_per_design(self, store):
        record(store, design="LC", value=100.0)
        record(store, design="LS", value=150.0)
        record(store, design="LC", value=110.0)
        latest = store.latest_per_design(benchmark="tpcc")
        got = {run["design"]: metrics["value"] for run, metrics in latest}
        assert got == {"LC": 110.0, "LS": 150.0}

    def test_trajectory_is_oldest_first_per_design(self, store):
        for value in (100.0, 110.0, 120.0):
            record(store, design="LC", value=value)
        record(store, design="LS", value=150.0)
        series = store.trajectory("value", design="LC")
        assert list(series) == ["LC"]
        assert [point["value"] for point in series["LC"]] == \
            [100.0, 110.0, 120.0]

    def test_commits_in_first_seen_order(self, store):
        record(store, commit="aaaa")
        record(store, commit="bbbb")
        record(store, commit="aaaa")
        assert store.commits() == ["aaaa", "bbbb"]


@dataclass
class FakeOutcome:
    design: str
    policy: str
    crash_at: float
    ok: bool
    pages_redone: int = 0
    committed_pages: int = 0
    error: Optional[str] = None


class TestChaosAndBench:
    def test_chaos_round_trip(self, store):
        outcomes = [
            FakeOutcome("LC", "sharp", 1.0, True, 10, 50),
            FakeOutcome("LC", "sharp", 2.0, False, 0, 40, "page 3 stale"),
            FakeOutcome("DW", "fuzzy", 1.5, True, 5, 30),
        ]
        run_ids = store.record_chaos(outcomes, seed=7, provenance=PROV)
        assert len(run_ids) == 2  # one per (design, policy) group

        lc = next(run_id for run_id in run_ids
                  if store.get_run(run_id)[0]["design"] == "LC")
        run, metrics = store.get_run(lc)
        assert run["kind"] == "chaos"
        assert run["status"] == "failed"
        assert metrics["failed"] == 1.0
        points = store.chaos_for(lc)
        assert len(points) == 2
        assert points[1]["error"] == "page 3 stale"

    def test_chaos_runs_excluded_from_regress(self, store):
        store.record_chaos([FakeOutcome("LC", "sharp", 1.0, True)],
                           provenance=PROV)
        findings, groups = store.regress()
        assert groups == 0


class TestRegress:
    def test_fresh_group_trivially_passes(self, store):
        record(store)
        findings, groups = store.regress()
        assert findings == []
        assert groups == 1

    def test_p99_regression_detected(self, store):
        for _ in range(5):
            record(store, p99=0.010)
        record(store, p99=0.050)
        findings, _ = store.regress()
        assert [f.metric for f in findings] == ["latency_p99"]
        assert findings[0].ratio == pytest.approx(5.0)
        assert findings[0].group_label == "tpcc/100/LC"

    def test_waf_regression_detected(self, store):
        for _ in range(3):
            record(store, waf=1.2)
        record(store, waf=2.0)
        findings, _ = store.regress()
        assert "waf" in {f.metric for f in findings}

    def test_throughput_drop_detected(self, store):
        for _ in range(3):
            record(store, value=100.0)
        record(store, value=60.0)
        findings, _ = store.regress()
        assert "value" in {f.metric for f in findings}

    def test_within_tolerance_passes(self, store):
        record(store, value=100.0, p99=0.010)
        record(store, value=90.0, p99=0.011)
        findings, groups = store.regress()
        assert findings == []
        assert groups == 1

    def test_failed_runs_excluded_from_baseline(self, store):
        record(store, value=100.0)
        record(store, value=1.0, status="crashed")
        record(store, value=95.0)
        findings, _ = store.regress()
        assert findings == []

    def test_groups_are_independent(self, store):
        for _ in range(3):
            record(store, design="LC", p99=0.010)
        record(store, design="LC", p99=0.050)
        for _ in range(3):
            record(store, design="LS", p99=0.010)
        record(store, design="LS", p99=0.010)
        findings, groups = store.regress()
        assert groups == 2
        assert {f.design for f in findings} == {"LC"}

    def test_same_cell_different_spec_is_not_a_regression(self, store):
        """`repro oltp ... --workers 16` then the same cell with
        `--workers 2` are two runs of two specs: the second is slower by
        construction, not a regression of the first."""
        record(store, nworkers=16, value=100.0)
        record(store, nworkers=2, value=13.0)
        findings, groups = store.regress()
        assert findings == []
        assert groups == 2
        # ... while a real drop within one spec is still caught, under
        # the unchanged cell label.
        record(store, nworkers=2, value=5.0)
        findings, _ = store.regress()
        assert [(f.group_label, f.metric) for f in findings] == \
            [("tpcc/100/LC", "value")]


SPEC = RunSpec(kind="oltp", benchmark="tpcc", scale=10, design="LC",
               profile="tiny")


def bare_oltp_result():
    """A RunResult filled by hand: no system state was ever captured."""
    latencies = LatencyTracker()
    for value in (0.01, 0.01, 0.03, 0.05):
        latencies.record("new_order", value)
    return RunResult(design="LC", metric_name="tpmC", duration=4.0,
                     bucket_seconds=2.0, metric_window=60.0,
                     buckets=[200, 300], latencies=latencies)


class TestMetricsFromResult:
    def test_oltp_metrics_without_system_state(self):
        result = bare_oltp_result()
        metrics = result.metrics()
        assert metrics["value"] == result.steady_state_throughput() > 0
        assert metrics["total_txns"] == 500.0
        assert metrics["latency_p99"] == result.latencies.percentile(99)
        assert "waf" not in metrics and "bp_hit_rate" not in metrics

    def test_tpch_metrics(self):
        result = TpchResult(sf=30, query_times={1: 2.0}, rf_times=[1.0],
                            power_elapsed=3.0, throughput_elapsed=50.0,
                            streams=4)
        assert result.metric_name == "QphH"
        assert result.metrics() == {"value": result.qphh,
                                    "power": result.power,
                                    "throughput": result.throughput}

    def test_record_result_uses_extraction(self, store):
        result = bare_oltp_result()
        run_id = store.record_result(SPEC, result, provenance=PROV)
        run, metrics = store.get_run(run_id)
        assert run["metric_name"] == "tpmC"
        assert (run["kind"], run["design"], run["profile"]) == \
            ("oltp", "LC", "tiny")
        assert metrics == result.metrics()
        assert json.loads(run["spec_json"]) == {**SPEC.to_dict(),
                                                "faulted": False}
