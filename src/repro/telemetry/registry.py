"""The metrics registry: Counter / Gauge / Histogram with labeled children.

Prometheus-shaped but simulation-native: instruments are plain Python
objects registered by name, optionally fanned out into *labeled children*
(``io_pages_total{device="ssd",kind="random_read"}``).  Values are read
directly (no scrape cycle) and a :meth:`MetricRegistry.snapshot` renders
everything for reports.

The null twins at the bottom (:data:`NULL_REGISTRY` and friends) are the
disabled mode: every factory returns a shared singleton whose mutators do
nothing, so instrumented hot paths cost one no-op method call and zero
allocation when telemetry is off.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple


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
    """A monotonically increasing count, stored or read from a callback."""

    kind = "counter"
    __slots__ = ("name", "labels", "_value", "_fn")

    def __init__(self, name: str, labels: Optional[Dict[str, str]] = None):
        self.name = name
        self.labels = labels or {}
        self._value = 0.0
        self._fn: Optional[Callable[[], float]] = None

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        self._value += amount

    def set_function(self, fn: Callable[[], float]) -> None:
        """Read ``fn()`` when scraped: a view of a count the owner keeps."""
        self._fn = fn

    @property
    def value(self) -> float:
        """Current count (calls the callback if one is set)."""
        return float(self._fn()) if self._fn is not None else self._value


class Gauge:
    """A value that can go up and down, or track a callback."""

    kind = "gauge"
    __slots__ = ("name", "labels", "_value", "_fn")

    def __init__(self, name: str, labels: Optional[Dict[str, str]] = None):
        self.name = name
        self.labels = labels or {}
        self._value = 0.0
        self._fn: Optional[Callable[[], float]] = None

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        self._value = value

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` to the gauge."""
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount`` from the gauge."""
        self._value -= amount

    def set_function(self, fn: Callable[[], float]) -> None:
        """Make the gauge track ``fn()`` instead of a stored value."""
        self._fn = fn

    @property
    def value(self) -> float:
        """Current value (calls the callback if one is set)."""
        return float(self._fn()) if self._fn is not None else self._value


class Histogram:
    """A distribution of observed values with percentile queries.

    Samples are kept raw; the sorted view is cached and invalidated on
    :meth:`observe`, so repeated percentile queries sort at most once.
    """

    kind = "histogram"
    __slots__ = ("name", "labels", "_samples", "_sorted", "_sum")

    def __init__(self, name: str, labels: Optional[Dict[str, str]] = None):
        self.name = name
        self.labels = labels or {}
        self._samples: List[float] = []
        self._sorted: Optional[List[float]] = None
        self._sum = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self._samples.append(value)
        self._sum += value
        self._sorted = None

    @property
    def count(self) -> int:
        """Number of observations."""
        return len(self._samples)

    @property
    def sum(self) -> float:
        """Sum of all observations."""
        return self._sum

    def _sorted_samples(self) -> List[float]:
        if self._sorted is None:
            self._sorted = sorted(self._samples)
        return self._sorted

    def percentile(self, q: float) -> float:
        """The q-th percentile (q in [0, 100]; NaN when empty)."""
        return percentile_of(self._sorted_samples(), q)

    def mean(self) -> float:
        """Mean observation (NaN when empty)."""
        return self._sum / len(self._samples) if self._samples else float("nan")

    def summary(self) -> Dict[str, float]:
        """count / mean / p50 / p95 / p99 in one dict."""
        return {
            "count": float(self.count),
            "mean": self.mean(),
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }


class MetricFamily:
    """A named metric with declared label names and per-value children."""

    __slots__ = ("name", "help", "labelnames", "_cls", "_children")

    def __init__(self, name: str, help_text: str,
                 labelnames: Tuple[str, ...], cls: type):
        self.name = name
        self.help = help_text
        self.labelnames = labelnames
        self._cls = cls
        self._children: Dict[Tuple[str, ...], object] = {}

    @property
    def kind(self) -> str:
        """The instrument kind this family fans out ("counter", ...)."""
        return self._cls.kind

    def labels(self, **labelvalues: str):
        """The child instrument for exactly these label values."""
        if set(labelvalues) != set(self.labelnames):
            raise ValueError(
                f"{self.name} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labelvalues))}")
        key = tuple(str(labelvalues[n]) for n in self.labelnames)
        child = self._children.get(key)
        if child is None:
            child = self._cls(self.name, dict(zip(self.labelnames, key)))
            self._children[key] = child
        return child

    def children(self) -> Iterator[object]:
        """All children created so far, in creation order."""
        return iter(self._children.values())


class MetricRegistry:
    """Registry of all instruments, keyed by metric name.

    Factories are idempotent: asking for an existing name returns the
    existing instrument, provided kind and label names agree (a mismatch
    is a programming error and raises).
    """

    enabled = True

    def __init__(self):
        self._metrics: Dict[str, object] = {}
        self._help: Dict[str, str] = {}

    def _make(self, cls: type, name: str, help_text: str,
              labelnames: Sequence[str]):
        labelnames = tuple(labelnames)
        existing = self._metrics.get(name)
        if existing is not None:
            want_family = bool(labelnames)
            is_family = isinstance(existing, MetricFamily)
            if (existing.kind != cls.kind or want_family != is_family
                    or (is_family and existing.labelnames != labelnames)):
                raise ValueError(
                    f"metric {name!r} already registered with a "
                    f"different kind or labels")
            return existing
        metric = (MetricFamily(name, help_text, labelnames, cls)
                  if labelnames else cls(name))
        self._metrics[name] = metric
        self._help[name] = help_text
        return metric

    def counter(self, name: str, help_text: str = "",
                labelnames: Sequence[str] = ()):
        """Register (or fetch) a counter; labeled names return a family."""
        return self._make(Counter, name, help_text, labelnames)

    def gauge(self, name: str, help_text: str = "",
              labelnames: Sequence[str] = ()):
        """Register (or fetch) a gauge; labeled names return a family."""
        return self._make(Gauge, name, help_text, labelnames)

    def histogram(self, name: str, help_text: str = "",
                  labelnames: Sequence[str] = ()):
        """Register (or fetch) a histogram; labeled names return a family."""
        return self._make(Histogram, name, help_text, labelnames)

    def get(self, name: str):
        """The registered metric (family or bare instrument), or None."""
        return self._metrics.get(name)

    def snapshot(self) -> List[dict]:
        """Flatten every instrument into report rows.

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


# ----------------------------------------------------------------------
# Disabled mode: shared no-op singletons
# ----------------------------------------------------------------------

class NullCounter:
    """No-op counter; ``labels()`` returns itself."""

    kind = "counter"
    __slots__ = ()
    name = "null"
    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set_function(self, fn) -> None:
        pass

    def labels(self, **labelvalues):
        return self


class NullGauge:
    """No-op gauge; ``labels()`` returns itself."""

    kind = "gauge"
    __slots__ = ()
    name = "null"
    value = 0.0

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set_function(self, fn) -> None:
        pass

    def labels(self, **labelvalues):
        return self


class NullHistogram:
    """No-op histogram; queries return the empty-distribution answers."""

    kind = "histogram"
    __slots__ = ()
    name = "null"
    count = 0
    sum = 0.0

    def observe(self, value: float) -> None:
        pass

    def percentile(self, q: float) -> float:
        return float("nan")

    def mean(self) -> float:
        return float("nan")

    def summary(self) -> Dict[str, float]:
        return {"count": 0.0, "mean": float("nan"), "p50": float("nan"),
                "p95": float("nan"), "p99": float("nan")}

    def labels(self, **labelvalues):
        return self


NULL_COUNTER = NullCounter()
NULL_GAUGE = NullGauge()
NULL_HISTOGRAM = NullHistogram()


class NullRegistry:
    """Registry twin for disabled telemetry: factories hand out the
    shared no-op singletons and nothing is ever recorded."""

    enabled = False
    __slots__ = ()

    def counter(self, name: str, help_text: str = "",
                labelnames: Sequence[str] = ()):
        return NULL_COUNTER

    def gauge(self, name: str, help_text: str = "",
              labelnames: Sequence[str] = ()):
        return NULL_GAUGE

    def histogram(self, name: str, help_text: str = "",
                  labelnames: Sequence[str] = ()):
        return NULL_HISTOGRAM

    def get(self, name: str):
        return None

    def snapshot(self) -> List[dict]:
        return []


NULL_REGISTRY = NullRegistry()
