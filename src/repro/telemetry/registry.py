"""The metrics registry: a catalogue of readers.  It stores nothing.

A fact is tallied once, in a plain always-on field of the component that
makes it (``SsdStats.writes``, ``WriteAheadLog.flushes``, ...), and
registering a metric hands over ``read``, a zero-argument callable that
fetches the value whenever someone scrapes: ``registry.get(name).value``,
or :meth:`MetricRegistry.snapshot` for ``--metrics``.  No instrument has
``inc``, ``set`` or ``observe``, so a second tally of a fact cannot be
written (DESIGN.md §5.2).

``read()`` returns a number for a counter or gauge and the sample
sequence its owner keeps for a histogram.  With ``labelnames`` it
returns a mapping from label-value tuples to those (``("ssd",
"random_read")`` is ``io_pages_total{device="ssd",kind="random_read"}``)
and registering the name again *adds* a reader: three devices feed
``io_pages_total``.

:data:`NULL_REGISTRY`, the disabled mode, registers nothing and hands
nothing back: a dark run never calls this module once it is built.
"""

from __future__ import annotations

import math
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)


def percentile_of(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolated q-th percentile of a pre-sorted sequence.

    Matches :class:`repro.harness.metrics.LatencyTracker` exactly so the
    two report identical numbers for identical samples.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    if not sorted_values:
        return float("nan")
    rank = (len(sorted_values) - 1) * q / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return sorted_values[low]
    weight = rank - low
    return sorted_values[low] * (1 - weight) + sorted_values[high] * weight


class Counter:
    """A monotonically increasing count, read off its owner."""

    kind = "counter"
    __slots__ = ("name", "labels", "_read")

    def __init__(self, name: str, read: Callable[[], float],
                 labels: Optional[Dict[str, str]] = None):
        self.name = name
        self.labels = labels or {}
        self._read = read

    @property
    def value(self) -> float:
        """The owner's count, now."""
        return float(self._read())


class Gauge:
    """A value that can go up and down, read off its owner."""

    kind = "gauge"
    __slots__ = ("name", "labels", "_read")

    def __init__(self, name: str, read: Callable[[], float],
                 labels: Optional[Dict[str, str]] = None):
        self.name = name
        self.labels = labels or {}
        self._read = read

    @property
    def value(self) -> float:
        """The owner's value, now."""
        return float(self._read())


class Histogram:
    """The distribution of the samples its owner keeps."""

    kind = "histogram"
    __slots__ = ("name", "labels", "_read")

    def __init__(self, name: str, read: Callable[[], Sequence[float]],
                 labels: Optional[Dict[str, str]] = None):
        self.name = name
        self.labels = labels or {}
        self._read = read

    @property
    def count(self) -> int:
        """Number of observations."""
        return len(self._read())

    @property
    def sum(self) -> float:
        """Sum of all observations."""
        return sum(self._read())

    def percentile(self, q: float) -> float:
        """The q-th percentile (q in [0, 100]; NaN when empty)."""
        return percentile_of(sorted(self._read()), q)

    def mean(self) -> float:
        """Mean observation (NaN when empty), summed in observation
        order: what a running sum over the owner's appends would hold,
        to the last digit (summing the sorted samples differs there)."""
        samples = self._read()
        return sum(samples) / len(samples) if samples else float("nan")

    def summary(self) -> Dict[str, float]:
        """count / mean / p50 / p95 / p99 in one dict (one sort)."""
        ordered = sorted(self._read())
        return {
            "count": float(len(ordered)),
            "mean": self.mean(),
            "p50": percentile_of(ordered, 50),
            "p95": percentile_of(ordered, 95),
            "p99": percentile_of(ordered, 99),
        }


class MetricFamily:
    """A named metric with declared label names.  Its children are the
    label values its readers report when asked, no more and no fewer."""

    __slots__ = ("name", "kind", "labelnames", "_cls", "_readers")

    def __init__(self, name: str, labelnames: Tuple[str, ...], cls: type):
        self.name = name
        #: The instrument kind this family fans out ("counter", ...).
        self.kind: str = cls.kind
        self.labelnames = labelnames
        self._cls = cls
        self._readers: List[Callable[[], Any]] = []

    def children(self) -> Iterator[Any]:
        """A live instrument per label-value tuple reported right now,
        sorted by label values.  Tuples are unique: where two readers
        report the same one, the later-registered reader owns it."""
        owner = {key: read for read in self._readers for key in read()}
        for key in sorted(owner):
            yield self._cls(self.name,
                            lambda read=owner[key], key=key: read()[key],
                            dict(zip(self.labelnames, key)))

    def labels(self, **labelvalues: str) -> Any:
        """The child instrument for exactly these label values."""
        if set(labelvalues) != set(self.labelnames):
            raise ValueError(
                f"{self.name} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labelvalues))}")
        wanted = {name: str(value) for name, value in labelvalues.items()}
        for child in self.children():
            if child.labels == wanted:
                return child
        raise KeyError(f"no reader of {self.name} reports {wanted}")


class MetricRegistry:
    """Every metric's reader(s), keyed by metric name.

    Registering a bare name again replaces its reader; a labeled name
    again adds one.  Kind and label names must agree with what the name
    already is (a mismatch is a programming error and raises).  The help
    text documents the registration where it stands; nothing reads it.
    """

    enabled = True

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}

    def _register(self, cls: type, name: str, help_text: str,
                  read: Callable[[], Any], labelnames: Sequence[str]) -> None:
        labelnames = tuple(labelnames)
        metric = self._metrics.get(name)
        if metric is not None and (
                metric.kind != cls.kind
                or getattr(metric, "labelnames", ()) != labelnames):
            raise ValueError(f"metric {name!r} already registered with a "
                             f"different kind or labels")
        if not labelnames:
            self._metrics[name] = cls(name, read)
            return
        if metric is None:
            metric = self._metrics[name] = MetricFamily(name, labelnames, cls)
        metric._readers.append(read)

    def counter(self, name: str, help_text: str, read: Callable[[], Any],
                labelnames: Sequence[str] = ()) -> None:
        """Register a counter that reads ``read()`` when scraped."""
        self._register(Counter, name, help_text, read, labelnames)

    def gauge(self, name: str, help_text: str, read: Callable[[], Any],
              labelnames: Sequence[str] = ()) -> None:
        """Register a gauge that reads ``read()`` when scraped."""
        self._register(Gauge, name, help_text, read, labelnames)

    def histogram(self, name: str, help_text: str, read: Callable[[], Any],
                  labelnames: Sequence[str] = ()) -> None:
        """Register a histogram over the samples ``read()`` returns."""
        self._register(Histogram, name, help_text, read, labelnames)

    def get(self, name: str) -> Any:
        """The registered metric (family or bare instrument), or None."""
        return self._metrics.get(name)

    def snapshot(self) -> List[dict]:
        """Read every instrument into report rows, sorted by name and,
        within a family, by label values.

        Each row is ``{"name", "kind", "labels", "value"}`` where
        histograms carry their :meth:`Histogram.summary` dict as value.
        """
        rows: List[dict] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            instruments = (metric.children()
                           if isinstance(metric, MetricFamily) else (metric,))
            for instrument in instruments:
                value = (instrument.summary()
                         if instrument.kind == "histogram"
                         else instrument.value)
                rows.append({
                    "name": name,
                    "kind": instrument.kind,
                    "labels": dict(instrument.labels),
                    "value": value,
                })
        return rows


class NullRegistry:
    """Registry twin for disabled telemetry: nothing is registered, so
    nothing is ever read."""

    enabled = False
    __slots__ = ()

    def counter(self, name: str, help_text: str, read: Callable[[], Any],
                labelnames: Sequence[str] = ()) -> None:
        pass

    gauge = histogram = counter

    def get(self, name: str) -> None:
        return None

    def snapshot(self) -> List[dict]:
        return []


NULL_REGISTRY = NullRegistry()
