"""The metrics registry: a table of readers.  It stores nothing.

A fact is tallied once, in a plain always-on field of the component that
makes it (``SsdStats.writes``, ``WriteAheadLog.flushes``, ...), and
registering a metric hands over ``read``, a zero-argument callable that
fetches the value when :meth:`MetricRegistry.snapshot` scrapes (what
``--metrics`` prints).  Nothing is handed back, so there is no ``inc``,
``set`` or ``observe`` to call and a second tally of a fact cannot be
written (DESIGN.md §5.2).

``read()`` returns a number for a counter or gauge and the sample
sequence its owner keeps for a histogram.  With ``labelnames`` it
returns a mapping from label-value tuples to those (``("ssd",
"random_read")`` is ``io_pages_total{device="ssd",kind="random_read"}``)
and registering the name again *adds* a reader: three devices feed
``io_pages_total``.

:data:`NULL_REGISTRY`, the disabled mode, registers nothing: a dark run
never calls this module once it is built.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Sequence, Tuple

#: Per name: its kind, its label names and its readers, oldest first.
_Entry = Tuple[str, Tuple[str, ...], List[Callable[[], Any]]]


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


def summary(samples: Sequence[float]) -> Dict[str, float]:
    """count / mean / p50 / p95 / p99: a histogram's row value and
    ``repro analyze``'s latency figures.  The mean is summed in the
    order given, what a running sum over the owner's appends would hold
    to the last digit (the sorted samples differ)."""
    ordered = sorted(samples)
    return {
        "count": float(len(ordered)),
        "mean": sum(samples) / len(samples) if samples else float("nan"),
        "p50": percentile_of(ordered, 50),
        "p95": percentile_of(ordered, 95),
        "p99": percentile_of(ordered, 99),
    }


class MetricRegistry:
    """Every metric's reader(s), keyed by metric name.

    Registering a bare name again replaces its reader; a labeled name
    again adds one.  Kind and label names must agree with what the name
    already is (a mismatch is a programming error and raises).  The help
    text documents the registration where it stands; nothing reads it.
    """

    enabled = True

    def __init__(self) -> None:
        self._metrics: Dict[str, _Entry] = {}

    def _register(self, kind: str, name: str, read: Callable[[], Any],
                  labelnames: Sequence[str]) -> None:
        labels = tuple(labelnames)
        entry = self._metrics.setdefault(name, (kind, labels, []))
        if entry[:2] != (kind, labels):
            raise ValueError(f"metric {name!r} already registered with a "
                             f"different kind or labels")
        if not labels:
            entry[2].clear()
        entry[2].append(read)

    def counter(self, name: str, help_text: str, read: Callable[[], Any],
                labelnames: Sequence[str] = ()) -> None:
        """Register a counter that reads ``read()`` when scraped."""
        self._register("counter", name, read, labelnames)

    def gauge(self, name: str, help_text: str, read: Callable[[], Any],
              labelnames: Sequence[str] = ()) -> None:
        """Register a gauge that reads ``read()`` when scraped."""
        self._register("gauge", name, read, labelnames)

    def histogram(self, name: str, help_text: str, read: Callable[[], Any],
                  labelnames: Sequence[str] = ()) -> None:
        """Register a histogram over the samples ``read()`` returns."""
        self._register("histogram", name, read, labelnames)

    def snapshot(self) -> List[Dict[str, Any]]:
        """Call every reader once; the report rows, sorted by name and,
        within a labeled name, by label values.

        Each row is ``{"name", "kind", "labels", "value"}``: a counter's
        or gauge's value as a float, a histogram's :func:`summary`.  A
        labeled name's rows are the tuples its readers report now; where
        two report one tuple, the later-registered reader's value wins.
        """
        rows: List[Dict[str, Any]] = []
        for name in sorted(self._metrics):
            kind, labelnames, readers = self._metrics[name]
            values: Dict[Tuple[str, ...], Any] = {}
            for read in readers:
                values.update(read() if labelnames else {(): read()})
            for key in sorted(values):
                value = values[key]
                rows.append({
                    "name": name,
                    "kind": kind,
                    "labels": dict(zip(labelnames, key)),
                    "value": (summary(value) if kind == "histogram"
                              else float(value)),
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


NULL_REGISTRY = NullRegistry()
