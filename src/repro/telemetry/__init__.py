"""Unified telemetry: a metrics registry plus a structured event tracer.

Every instrumented component takes an optional :class:`Telemetry` and
defaults to :data:`NULL_TELEMETRY`.  Off costs nothing: a component
counts in its own plain fields either way and the registry only *reads*
them when scraped, so the null registry is never called once a run is
built; trace call sites are skipped behind ``tracer.enabled``.

Typical wiring (the harness does this for you)::

    telemetry = Telemetry()
    system = System(config, telemetry=telemetry)
    ... run ...
    telemetry.tracer.write_chrome("out.json")   # chrome://tracing
    print(format_metrics(telemetry.registry))

Metric and event names are stable API: DESIGN.md maps each paper figure
to the names that reproduce it.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricRegistry,
    NULL_REGISTRY,
    NullRegistry,
    percentile_of,
)
from repro.telemetry.context import (
    ADMISSION_CTX,
    CHECKPOINT_CTX,
    CLEANER_CTX,
    EVICTION_CTX,
    RECOVERY_CTX,
    TraceContext,
)
from repro.telemetry.tracer import (
    NULL_TRACER,
    NullTracer,
    TRACE_PID,
    TRUNCATION_EVENT,
    TraceEvent,
    Tracer,
)


class Telemetry:
    """An enabled registry + tracer pair, sharing one virtual clock."""

    enabled = True

    def __init__(self, clock: Optional[Callable[[], float]] = None,
                 max_events: int = 500_000):
        self.registry = MetricRegistry()
        self.tracer = Tracer(clock, max_events=max_events)

    def set_clock(self, clock: Callable[[], float]) -> None:
        """Bind the virtual clock (called by the system wiring)."""
        self.tracer.set_clock(clock)


class NullTelemetry:
    """The disabled mode: no-op registry and tracer singletons."""

    enabled = False
    __slots__ = ()
    registry = NULL_REGISTRY
    tracer = NULL_TRACER

    def set_clock(self, clock) -> None:
        pass


NULL_TELEMETRY = NullTelemetry()

__all__ = [
    "ADMISSION_CTX",
    "CHECKPOINT_CTX",
    "CLEANER_CTX",
    "EVICTION_CTX",
    "RECOVERY_CTX",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricRegistry",
    "NULL_REGISTRY",
    "NULL_TELEMETRY",
    "NULL_TRACER",
    "NullRegistry",
    "NullTelemetry",
    "NullTracer",
    "TRACE_PID",
    "TRUNCATION_EVENT",
    "Telemetry",
    "TraceContext",
    "TraceEvent",
    "Tracer",
    "percentile_of",
]
