"""Tests for transaction-latency tracking."""

import math

import pytest

from repro.harness.experiments import RunSpec, run
from repro.harness.metrics import LatencyTracker


class TestLatencyTracker:
    def test_percentiles_of_known_distribution(self):
        tracker = LatencyTracker()
        for value in range(1, 101):
            tracker.record("t", float(value))
        assert tracker.percentile(0) == 1.0
        assert tracker.percentile(100) == 100.0
        assert tracker.percentile(50) == pytest.approx(50.5)
        assert tracker.mean() == pytest.approx(50.5)

    def test_per_type_filtering(self):
        tracker = LatencyTracker()
        tracker.record("fast", 1.0)
        tracker.record("slow", 100.0)
        assert tracker.percentile(50, "fast") == 1.0
        assert tracker.percentile(50, "slow") == 100.0
        assert tracker.count() == 2
        assert tracker.count("fast") == 1

    def test_empty_is_nan(self):
        tracker = LatencyTracker()
        assert math.isnan(tracker.percentile(50))
        assert math.isnan(tracker.mean())

    def test_quantile_validation(self):
        with pytest.raises(ValueError):
            LatencyTracker().percentile(150)

    def test_summary_keys(self):
        tracker = LatencyTracker()
        tracker.record("t", 2.0)
        summary = tracker.summary()
        assert set(summary) == {"mean", "p50", "p95", "p99"}


class TestSortedCache:
    def test_sorted_views_are_cached(self):
        tracker = LatencyTracker()
        tracker.record("t", 3.0)
        tracker.record("t", 1.0)
        assert tracker._all("t") is tracker._all("t")
        assert tracker._all() is tracker._all()

    def test_record_invalidates_cache(self):
        tracker = LatencyTracker()
        tracker.record("t", 5.0)
        assert tracker.percentile(100) == 5.0
        assert tracker.percentile(100, "t") == 5.0
        tracker.record("t", 9.0)
        assert tracker.percentile(100) == 9.0
        assert tracker.percentile(100, "t") == 9.0

    def test_other_types_keep_their_cache(self):
        tracker = LatencyTracker()
        tracker.record("a", 1.0)
        tracker.record("b", 2.0)
        cached_a = tracker._all("a")
        tracker.record("b", 3.0)
        # "a" untouched, "b" and the merged view refreshed.
        assert tracker._all("a") is cached_a
        assert tracker.percentile(100, "b") == 3.0
        assert tracker.percentile(100) == 3.0

    def test_cached_results_stay_correct(self):
        tracker = LatencyTracker()
        values = [float((i * 31) % 17) for i in range(50)]
        for value in values:
            tracker.record("t", value)
        expected = sorted(values)
        assert tracker._all("t") == expected
        assert tracker.percentile(0) == expected[0]
        assert tracker.percentile(100) == expected[-1]


class TestRunnerIntegration:
    def test_runner_records_latencies(self):
        result = run(RunSpec(kind="oltp", benchmark="tpcc", scale=100,
                             design="noSSD", duration=4.0, profile="tiny",
                             nworkers=4))
        assert result.latencies.count() == sum(result.txn_counts.values())
        assert result.latencies.percentile(50) > 0

    def test_ssd_design_cuts_latency(self):
        """The designs' throughput gains are latency gains in disguise:
        LC's p50 transaction latency must undercut noSSD's."""
        latencies = {}
        for design in ("noSSD", "LC"):
            result = run(RunSpec(kind="oltp", benchmark="tpcc", scale=400,
                                 design=design, duration=10.0,
                                 profile="tiny", nworkers=8))
            latencies[design] = result.latencies.percentile(
                50, "new_order")
        assert latencies["LC"] < latencies["noSSD"]
