"""Registry semantics: instruments read their owners, labeled readers
fan out into children, registering a name again replaces or adds."""

import math

import pytest

from repro.harness.metrics import LatencyTracker
from repro.telemetry import NULL_REGISTRY, MetricRegistry


class TestCounter:
    def test_starts_at_zero_and_counts(self):
        owner = {"n": 0}
        registry = MetricRegistry()
        registry.counter("c", "help", lambda: owner["n"])
        assert registry.get("c").value == 0
        owner["n"] += 1
        owner["n"] += 4
        assert registry.get("c").value == 5

    def test_nothing_handed_back_can_store(self):
        """A second tally cannot be written: there is no ``inc`` to call."""
        registry = MetricRegistry()
        assert registry.counter("c", "", lambda: 1) is None
        registry.gauge("g", "", lambda: 1)
        registry.histogram("h", "", lambda: [1.0])
        registry.counter("f", "", lambda: {("x",): 1}, labelnames=("a",))
        handed = [registry.get(name) for name in "cghf"]
        handed += list(registry.get("f").children())
        for instrument in handed:
            for mutator in ("inc", "set", "dec", "observe", "set_function"):
                assert not hasattr(instrument, mutator), (instrument, mutator)


class TestGauge:
    def test_counter_can_be_a_view_of_its_owners_count(self):
        state = {"n": 0}
        registry = MetricRegistry()
        registry.counter("c", "", lambda: state["n"])
        state["n"] = 7
        assert registry.get("c").value == 7.0
        assert isinstance(registry.get("c").value, float)

    def test_callback_tracks_source(self):
        state = {"n": 0}
        registry = MetricRegistry()
        registry.gauge("g", "", lambda: state["n"])
        state["n"] = 42
        assert registry.get("g").value == 42
        assert registry.get("g").kind == "gauge"


class TestLabels:
    def test_same_labels_same_child(self):
        counts = {("ssd", "random_read"): 0}
        registry = MetricRegistry()
        registry.counter("io", "", lambda: counts,
                         labelnames=("device", "kind"))
        family = registry.get("io")
        a = family.labels(device="ssd", kind="random_read")
        b = family.labels(device="ssd", kind="random_read")
        counts[("ssd", "random_read")] += 3
        assert a.value == b.value == 3  # live, not copies taken at labels()

    def test_distinct_labels_distinct_children(self):
        registry = MetricRegistry()
        registry.counter("io", "", lambda: {("ssd",): 1, ("hdd",): 0},
                         labelnames=("device",))
        assert registry.get("io").labels(device="ssd").value == 1
        assert registry.get("io").labels(device="hdd").value == 0

    def test_children_are_what_the_readers_report_now(self):
        counts = {}
        registry = MetricRegistry()
        registry.counter("io", "", lambda: counts, labelnames=("device",))
        family = registry.get("io")
        assert list(family.children()) == []
        with pytest.raises(KeyError):
            family.labels(device="ssd")
        counts[("ssd",)] = 2
        assert [child.value for child in family.children()] == [2]

    def test_wrong_labelnames_rejected(self):
        registry = MetricRegistry()
        registry.counter("io", "", lambda: {("ssd",): 1},
                         labelnames=("device",))
        with pytest.raises(ValueError):
            registry.get("io").labels(disk="ssd")

    def test_child_knows_its_labels(self):
        registry = MetricRegistry()
        registry.gauge("g", "", lambda: {("ssd",): 1}, labelnames=("device",))
        child = registry.get("g").labels(device="ssd")
        assert child.labels == {"device": "ssd"}

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
        family = registry.get("f")
        registry.counter("f", "", lambda: {("hdd",): 9}, labelnames=("a",))
        assert registry.get("f") is family
        # Sorted by label values, not by who registered first.
        assert [(row["labels"]["a"], row["value"])
                for row in registry.snapshot()] == [("hdd", 9.0), ("ssd", 3.0)]
        registry.counter("c", "", lambda: 1)
        registry.counter("c", "", lambda: 2)
        assert registry.get("c").value == 2
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

    def test_get_and_snapshot(self):
        registry = MetricRegistry()
        registry.counter("c", "", lambda: 2)
        registry.histogram("h", "", lambda: [1.0])
        registry.counter("f", "", lambda: {("1",): 1}, labelnames=("x",))
        by_name = {row["name"]: row for row in registry.snapshot()}
        assert by_name["c"]["value"] == 2
        assert by_name["h"]["value"]["count"] == 1
        assert by_name["f"]["labels"] == {"x": "1"}
        assert registry.get("c").value == 2
        assert registry.get("nope") is None


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
        histogram = registry.get("h").labels(type="t")
        for q in (0, 10, 50, 90, 95, 99, 100):
            assert histogram.percentile(q) == tracker.percentile(q)
        assert histogram.mean() == pytest.approx(tracker.mean())

    def test_reads_the_owners_samples_each_time(self):
        samples = [1.0]
        registry = MetricRegistry()
        registry.histogram("h", "", lambda: samples)
        histogram = registry.get("h")
        assert histogram.percentile(100) == 1.0
        samples.append(9.0)
        assert histogram.percentile(100) == 9.0
        assert histogram.count == 2
        assert histogram.sum == 10.0

    def test_empty_is_nan(self):
        registry = MetricRegistry()
        registry.histogram("h", "", list)
        assert math.isnan(registry.get("h").percentile(50))
        assert math.isnan(registry.get("h").mean())

    def test_summary_keys(self):
        registry = MetricRegistry()
        registry.histogram("h", "", lambda: [2.0])
        assert set(registry.get("h").summary()) == {"count", "mean", "p50",
                                                    "p95", "p99"}


class TestNullRegistry:
    def test_mutators_record_nothing(self):
        """Registering is the only mutator left, and on the disabled
        registry it keeps nothing: no reader is ever called."""
        def never():
            raise AssertionError("a disabled registry read a metric")

        assert NULL_REGISTRY.counter("a", "", never) is None
        assert NULL_REGISTRY.gauge("g", "", never) is None
        assert NULL_REGISTRY.histogram(
            "h", "", never, labelnames=("x",)) is None
        assert NULL_REGISTRY.get("a") is None
        assert NULL_REGISTRY.snapshot() == []
