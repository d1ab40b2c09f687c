"""Reading a metric table (``repro.harness.metrics.read_rows``): a read
is live off its owner, a labeled reader fans out into rows, and a
histogram row is its samples' summary."""

import math

import pytest

from repro.harness.metrics import LatencyTracker, read_rows


def scrape(*table, source=None):
    """``read_rows(table, source)`` keyed ``(name, *label values)``."""
    return {(row["name"], *row["labels"].values()): row["value"]
            for row in read_rows(table, source)}


class TestCounter:
    def test_starts_at_zero_and_counts(self):
        owner = {"n": 0}
        metric = ("c", "counter", (), lambda _: owner["n"])
        assert scrape(metric) == {("c",): 0}
        owner["n"] += 1
        owner["n"] += 4
        assert scrape(metric) == {("c",): 5}


class TestGauge:
    def test_counter_can_be_a_view_of_its_owners_count(self):
        state = {"n": 0}
        metric = ("c", "counter", (), lambda _: state["n"])
        state["n"] = 7
        value = scrape(metric)["c",]
        assert value == 7.0
        assert isinstance(value, float)

    def test_callback_tracks_source(self):
        """``read`` gets what the table is read off."""
        row, = read_rows((("g", "gauge", (), lambda state: state["n"]),),
                         {"n": 42})
        assert (row["kind"], row["value"]) == ("gauge", 42)


class TestLabels:
    def test_same_labels_same_child(self):
        counts = {("ssd", "random_read"): 0}
        metric = ("io", "counter", ("device", "kind"), lambda _: counts)
        assert scrape(metric) == {("io", "ssd", "random_read"): 0}
        counts[("ssd", "random_read")] += 3
        # Live, not a copy taken when the table was built: one row.
        assert scrape(metric) == {("io", "ssd", "random_read"): 3}

    def test_distinct_labels_distinct_children(self):
        metric = ("io", "counter", ("device",),
                  lambda _: {("ssd",): 1, ("hdd",): 0})
        assert scrape(metric) == {("io", "hdd"): 0, ("io", "ssd"): 1}

    def test_children_are_what_the_readers_report_now(self):
        counts = {}
        metric = ("io", "counter", ("device",), lambda _: counts)
        assert read_rows((metric,), None) == []
        counts[("ssd",)] = 2
        assert scrape(metric) == {("io", "ssd"): 2}

    def test_child_knows_its_labels(self):
        row, = read_rows((("g", "gauge", ("device", "kind"),
                           lambda _: {("ssd", "read"): 1}),), None)
        assert row["labels"] == {"device": "ssd", "kind": "read"}


class TestRegistration:
    """A table's rows, in order."""

    def test_snapshot_rows(self):
        rows = read_rows((
            ("h", "histogram", (), lambda _: [1.0]),
            ("c", "counter", (), lambda _: 2),
            ("f", "counter", ("x",), lambda _: {("2",): 1, ("1",): 1}),
        ), None)
        # Sorted by name, then by label values: not in table order.
        assert [(row["name"], row["labels"]) for row in rows] == [
            ("c", {}), ("f", {"x": "1"}), ("f", {"x": "2"}), ("h", {})]
        assert rows[0] == {"name": "c", "kind": "counter",
                           "labels": {}, "value": 2.0}
        assert rows[3]["value"]["count"] == 1

    def test_each_reader_is_called_once_per_scrape(self):
        calls = []

        def read(_):
            calls.append(1)
            return {("a",): 1, ("b",): 2}

        assert len(read_rows((("f", "counter", ("x",), read),), None)) == 2
        assert len(calls) == 1


class TestHistogram:
    def test_percentiles_match_latency_tracker(self):
        """The two percentile implementations must agree exactly."""
        values = [((i * 7919) % 100) / 9.7 for i in range(500)]
        tracker = LatencyTracker()
        for value in values:
            tracker.record("t", value)
        metric = ("h", "histogram", ("type",),
                  lambda _: {(txn,): samples for txn, samples
                             in tracker.to_dict().items()})
        summary = scrape(metric)["h", "t"]
        for q in (50, 95, 99):
            assert summary[f"p{q}"] == tracker.percentile(q)
        assert summary["mean"] == pytest.approx(tracker.mean())

    def test_reads_the_owners_samples_each_time(self):
        samples = [1.0]
        metric = ("h", "histogram", (), lambda _: samples)
        assert scrape(metric)["h",]["p99"] == 1.0
        samples.append(9.0)
        summary = scrape(metric)["h",]
        assert summary["p99"] == pytest.approx(8.92)
        assert (summary["count"], summary["mean"]) == (2, 5.0)

    def test_empty_is_nan(self):
        summary = scrape(("h", "histogram", (), lambda _: []))["h",]
        assert summary["count"] == 0
        assert math.isnan(summary["p50"])
        assert math.isnan(summary["mean"])

    def test_summary_keys(self):
        summary = scrape(("h", "histogram", (), lambda _: [2.0]))["h",]
        assert set(summary) == {"count", "mean", "p50", "p95", "p99"}

    def test_mean_is_summed_in_observation_order(self):
        """The mean is what a running sum over the owner's appends
        holds; summing the sorted samples differs in the last digit."""
        samples = [0.1, 1e16, -1e16, 0.2]
        summary = scrape(("h", "histogram", (), lambda _: samples))["h",]
        assert summary["mean"] == sum(samples) / 4
        assert sum(samples) != sum(sorted(samples))
