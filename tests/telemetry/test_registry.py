"""Registry semantics: a scrape reads the owners, labeled readers fan
out into rows, registering a name again replaces or adds."""

import math

import pytest

from repro.harness.metrics import LatencyTracker
from repro.telemetry import NULL_REGISTRY, MetricRegistry
from tests.conftest import scrape


class TestCounter:
    def test_starts_at_zero_and_counts(self):
        owner = {"n": 0}
        registry = MetricRegistry()
        registry.counter("c", "help", lambda: owner["n"])
        assert scrape(registry) == {("c",): 0}
        owner["n"] += 1
        owner["n"] += 4
        assert scrape(registry) == {("c",): 5}

    def test_nothing_handed_back_can_store(self):
        """A second tally cannot be written: registering hands nothing
        back, and the registry has no ``inc`` to call."""
        registry = MetricRegistry()
        assert registry.counter("c", "", lambda: 1) is None
        assert registry.gauge("g", "", lambda: 1) is None
        assert registry.histogram("h", "", lambda: [1.0]) is None
        assert registry.counter("f", "", lambda: {("x",): 1},
                                labelnames=("a",)) is None
        for mutator in ("inc", "set", "dec", "observe", "set_function"):
            assert not hasattr(registry, mutator), mutator


class TestGauge:
    def test_counter_can_be_a_view_of_its_owners_count(self):
        state = {"n": 0}
        registry = MetricRegistry()
        registry.counter("c", "", lambda: state["n"])
        state["n"] = 7
        value = scrape(registry)["c",]
        assert value == 7.0
        assert isinstance(value, float)

    def test_callback_tracks_source(self):
        state = {"n": 0}
        registry = MetricRegistry()
        registry.gauge("g", "", lambda: state["n"])
        state["n"] = 42
        row, = registry.snapshot()
        assert (row["kind"], row["value"]) == ("gauge", 42)


class TestLabels:
    def test_same_labels_same_child(self):
        counts = {("ssd", "random_read"): 0}
        registry = MetricRegistry()
        registry.counter("io", "", lambda: counts,
                         labelnames=("device", "kind"))
        assert scrape(registry) == {("io", "ssd", "random_read"): 0}
        counts[("ssd", "random_read")] += 3
        # Live, not a copy taken at registration: one row, read again.
        assert scrape(registry) == {("io", "ssd", "random_read"): 3}

    def test_distinct_labels_distinct_children(self):
        registry = MetricRegistry()
        registry.counter("io", "", lambda: {("ssd",): 1, ("hdd",): 0},
                         labelnames=("device",))
        assert scrape(registry) == {("io", "hdd"): 0, ("io", "ssd"): 1}

    def test_children_are_what_the_readers_report_now(self):
        counts = {}
        registry = MetricRegistry()
        registry.counter("io", "", lambda: counts, labelnames=("device",))
        assert registry.snapshot() == []
        counts[("ssd",)] = 2
        assert scrape(registry) == {("io", "ssd"): 2}

    def test_child_knows_its_labels(self):
        registry = MetricRegistry()
        registry.gauge("g", "", lambda: {("ssd", "read"): 1},
                       labelnames=("device", "kind"))
        row, = registry.snapshot()
        assert row["labels"] == {"device": "ssd", "kind": "read"}

    def test_one_child_per_label_tuple_newest_reader_wins(self):
        registry = MetricRegistry()
        registry.counter("f", "", lambda: {("a",): 1, ("b",): 1},
                         labelnames=("x",))
        registry.counter("f", "", lambda: {("a",): 2}, labelnames=("x",))
        assert [(row["labels"]["x"], row["value"])
                for row in registry.snapshot()] == [("a", 2.0), ("b", 1.0)]


class TestRegistration:
    def test_same_name_returns_same_metric(self):
        """A labeled name again adds a reader to the one family (three
        devices feed ``io_pages_total``); a bare name again replaces."""
        registry = MetricRegistry()
        registry.counter("f", "", lambda: {("ssd",): 3}, labelnames=("a",))
        registry.counter("f", "", lambda: {("hdd",): 9}, labelnames=("a",))
        # Sorted by label values, not by who registered first.
        assert [(row["labels"]["a"], row["value"])
                for row in registry.snapshot()] == [("hdd", 9.0), ("ssd", 3.0)]
        registry.counter("c", "", lambda: 1)
        registry.counter("c", "", lambda: 2)
        assert scrape(registry)["c",] == 2
        assert len(registry.snapshot()) == 3

    def test_kind_mismatch_raises(self):
        registry = MetricRegistry()
        registry.counter("m", "", lambda: 0)
        with pytest.raises(ValueError):
            registry.gauge("m", "", lambda: 0)

    def test_labelname_mismatch_raises(self):
        registry = MetricRegistry()
        registry.counter("m", "", dict, labelnames=("a",))
        with pytest.raises(ValueError):
            registry.counter("m", "", dict, labelnames=("b",))
        with pytest.raises(ValueError):
            registry.counter("m", "", lambda: 0)

    def test_snapshot_rows(self):
        registry = MetricRegistry()
        registry.counter("c", "", lambda: 2)
        registry.histogram("h", "", lambda: [1.0])
        registry.counter("f", "", lambda: {("1",): 1}, labelnames=("x",))
        rows = registry.snapshot()
        assert [row["name"] for row in rows] == ["c", "f", "h"]
        by_name = {row["name"]: row for row in rows}
        assert by_name["c"] == {"name": "c", "kind": "counter",
                                "labels": {}, "value": 2.0}
        assert by_name["h"]["value"]["count"] == 1
        assert by_name["f"]["labels"] == {"x": "1"}

    def test_each_reader_is_called_once_per_scrape(self):
        calls = []

        def read():
            calls.append(1)
            return {("a",): 1, ("b",): 2}

        registry = MetricRegistry()
        registry.counter("f", "", read, labelnames=("x",))
        assert len(registry.snapshot()) == 2
        assert len(calls) == 1


class TestHistogram:
    def test_percentiles_match_latency_tracker(self):
        """The two percentile implementations must agree exactly."""
        values = [((i * 7919) % 100) / 9.7 for i in range(500)]
        tracker = LatencyTracker()
        for value in values:
            tracker.record("t", value)
        registry = MetricRegistry()
        registry.histogram(
            "h", "", lambda: {(txn,): samples for txn, samples
                              in tracker.to_dict().items()},
            labelnames=("type",))
        summary = scrape(registry)["h", "t"]
        for q in (50, 95, 99):
            assert summary[f"p{q}"] == tracker.percentile(q)
        assert summary["mean"] == pytest.approx(tracker.mean())

    def test_reads_the_owners_samples_each_time(self):
        samples = [1.0]
        registry = MetricRegistry()
        registry.histogram("h", "", lambda: samples)
        assert scrape(registry)["h",]["p99"] == 1.0
        samples.append(9.0)
        summary = scrape(registry)["h",]
        assert summary["p99"] == pytest.approx(8.92)
        assert (summary["count"], summary["mean"]) == (2, 5.0)

    def test_empty_is_nan(self):
        registry = MetricRegistry()
        registry.histogram("h", "", list)
        summary = scrape(registry)["h",]
        assert summary["count"] == 0
        assert math.isnan(summary["p50"])
        assert math.isnan(summary["mean"])

    def test_summary_keys(self):
        registry = MetricRegistry()
        registry.histogram("h", "", lambda: [2.0])
        assert set(scrape(registry)["h",]) == {"count", "mean", "p50",
                                               "p95", "p99"}

    def test_mean_is_summed_in_observation_order(self):
        """The mean is what a running sum over the owner's appends
        holds; summing the sorted samples differs in the last digit."""
        samples = [0.1, 1e16, -1e16, 0.2]
        registry = MetricRegistry()
        registry.histogram("h", "", lambda: samples)
        assert scrape(registry)["h",]["mean"] == sum(samples) / 4
        assert sum(samples) != sum(sorted(samples))


class TestNullRegistry:
    def test_mutators_record_nothing(self):
        """Registering is the only call, and on the disabled registry it
        keeps nothing: no reader is ever called, no scrape offered."""
        def never():
            raise AssertionError("a disabled registry read a metric")

        assert NULL_REGISTRY.counter("a", "", never) is None
        assert NULL_REGISTRY.gauge("g", "", never) is None
        assert NULL_REGISTRY.histogram(
            "h", "", never, labelnames=("x",)) is None
        assert not hasattr(NULL_REGISTRY, "snapshot")
