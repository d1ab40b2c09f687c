"""Disabled-mode guarantees: shared singletons, nothing recorded, and a
near-zero overhead smoke test."""

import time

from repro.telemetry import (
    NULL_REGISTRY,
    NULL_TELEMETRY,
    NULL_TRACER,
    NullTelemetry,
    Telemetry,
)


class TestNullTelemetryWiring:
    def test_facade_is_disabled(self):
        assert NULL_TELEMETRY.enabled is False
        assert NULL_TELEMETRY.registry is NULL_REGISTRY
        assert NULL_TELEMETRY.tracer is NULL_TRACER
        NULL_TELEMETRY.set_clock(lambda: 1.0)  # no-op, no error

    def test_null_telemetry_instances_share_parts(self):
        other = NullTelemetry()
        assert other.registry is NULL_REGISTRY
        assert other.tracer is NULL_TRACER

    def test_enabled_facade_is_live(self):
        telemetry = Telemetry()
        assert telemetry.enabled is True
        assert telemetry.registry is not NULL_REGISTRY
        assert telemetry.tracer is not NULL_TRACER


class TestNullTracer:
    def test_span_is_one_shared_object(self):
        a = NULL_TRACER.span("a", cat="x", track="y", args=None)
        b = NULL_TRACER.span("b")
        assert a is b

    def test_shared_span_is_reentrant(self):
        with NULL_TRACER.span("outer") as outer:
            with NULL_TRACER.span("inner") as inner:
                inner.set(k=1)
            assert outer is inner
        assert NULL_TRACER.events == ()

    def test_recording_methods_store_nothing(self):
        NULL_TRACER.instant("i")
        NULL_TRACER.complete("c", 0.0, 1.0)
        NULL_TRACER.counter("n", {"v": 1.0})
        assert NULL_TRACER.events == ()
        assert NULL_TRACER.dropped == 0

    def test_enabled_flag_gates_arg_building(self):
        """Call sites use ``tracer.enabled`` to skip building args dicts;
        the flag must be a plain falsy attribute."""
        assert not NULL_TRACER.enabled


class TestOverheadSmoke:
    def test_noop_instrumentation_is_cheap(self):
        """A null-telemetry hot loop should cost roughly what the bare
        loop costs.  The bound is deliberately generous (5x): this guards
        against accidental per-call allocation (building args dicts,
        creating span objects), not micro-variance."""
        # The registry needs no line in this loop: a dark run never
        # calls it after construction (test_zero_cost.py).
        tracer = NULL_TRACER
        n = 50_000

        def bare():
            total = 0
            for i in range(n):
                total += i
            return total

        def instrumented():
            total = 0
            for i in range(n):
                total += i
                if tracer.enabled:  # the call-site gating idiom
                    tracer.instant("e", args={"i": i})
            return total

        def timed(fn):
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                fn()
                best = min(best, time.perf_counter() - start)
            return best

        bare_time = timed(bare)
        instrumented_time = timed(instrumented)
        assert instrumented_time < bare_time * 5 + 0.05
