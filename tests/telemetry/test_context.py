"""Trace-context attribution: TraceContext and its merge into events."""

import pytest

from repro.telemetry import (
    ADMISSION_CTX,
    CHECKPOINT_CTX,
    CLEANER_CTX,
    EVICTION_CTX,
    RECOVERY_CTX,
    TraceContext,
    Tracer,
)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def tracer(clock):
    return Tracer(clock=clock)


class TestTraceContext:
    def test_txn_context_args(self):
        ctx = TraceContext.for_txn(42, "new_order")
        assert ctx.to_args() == {"txn": 42, "txn_type": "new_order"}

    def test_background_context_args(self):
        ctx = TraceContext.background("cleaner")
        assert ctx.to_args() == {"origin": "cleaner"}

    def test_singletons_cover_the_background_machinery(self):
        origins = {ctx.to_args()["origin"] for ctx in
                   (EVICTION_CTX, CLEANER_CTX, CHECKPOINT_CTX,
                    ADMISSION_CTX, RECOVERY_CTX)}
        assert origins == {"eviction", "cleaner", "checkpoint",
                           "admission", "recovery"}


class TestContextMerging:
    def test_complete_merges_txn_fields(self, tracer):
        ctx = TraceContext.for_txn(7, "payment")
        tracer.complete("wal_wait", 0.0, 1.0, "wal", "wal", ctx=ctx)
        (event,) = tracer.events
        assert event.args["txn"] == 7
        assert event.args["txn_type"] == "payment"

    def test_instant_merges_and_keeps_own_args(self, tracer):
        tracer.instant("admit", args={"page": 3}, ctx=ADMISSION_CTX)
        (event,) = tracer.events
        assert event.args == {"page": 3, "origin": "admission"}

    def test_none_context_leaves_args_untouched(self, tracer):
        tracer.complete("io", 0.0, 1.0, args={"k": 1}, ctx=None)
        tracer.complete("io2", 0.0, 1.0, ctx=None)
        first, second = tracer.events
        assert first.args == {"k": 1}
        assert second.args is None

    def test_caller_args_not_mutated(self, tracer):
        args = {"page": 9}
        tracer.complete("io", 0.0, 1.0, args=args, ctx=EVICTION_CTX)
        assert args == {"page": 9}
