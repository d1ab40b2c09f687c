"""Telemetry: a structured event tracer on the virtual clock.

Every instrumented component takes an optional :class:`Telemetry` and
defaults to :data:`NULL_TELEMETRY`.  Off costs nothing: trace call sites
are skipped behind ``tracer.enabled``.  Counts are not telemetry's: a
component keeps them in its own plain fields either way, and
``--metrics`` reads them off the run
(:func:`repro.harness.metrics.snapshot`), traced or not.

Typical wiring (the harness does this for you)::

    telemetry = Telemetry()
    system = System(config, telemetry=telemetry)
    ... run ...
    telemetry.tracer.write_chrome("out.json")   # chrome://tracing

Event names are stable API: DESIGN.md maps each paper figure to the
names that reproduce it.
"""

from __future__ import annotations

from typing import Callable, Optional

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
    """An enabled tracer on the system's virtual clock."""

    enabled = True

    def __init__(self, clock: Optional[Callable[[], float]] = None,
                 max_events: int = 500_000):
        self.tracer = Tracer(clock, max_events=max_events)

    def set_clock(self, clock: Callable[[], float]) -> None:
        """Bind the virtual clock (called by the system wiring)."""
        self.tracer.set_clock(clock)


class NullTelemetry:
    """The disabled mode: the no-op tracer singleton."""

    enabled = False
    __slots__ = ()
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
    "NULL_TELEMETRY",
    "NULL_TRACER",
    "NullTelemetry",
    "NullTracer",
    "TRACE_PID",
    "TRUNCATION_EVENT",
    "Telemetry",
    "TraceContext",
    "TraceEvent",
    "Tracer",
]
