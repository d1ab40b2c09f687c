"""The no-trace path must be truly zero-cost.

Every tracer call site in the engine is guarded by
``if tracer.enabled:`` so that a disabled run neither calls the tracer
nor builds the per-event ``args`` dicts.  The counting double below
fails the test on *any* call reaching a disabled tracer — a regression
here silently taxes every untraced simulation.

Counts cost a dark run nothing beyond the tally itself: components keep
them in their own fields, and ``--metrics`` reads those off the run
once it is over (``repro.harness.metrics.snapshot``).  Commit 2a98990
made 30,165 and 149,002 no-op ``inc()`` calls in the two runs below.
"""

from repro.harness.experiments import RunSpec, run


class CountingNullTracer:
    """Duck-typed disabled tracer that records every call it receives."""

    enabled = False
    events = ()
    dropped = 0
    now = 0.0

    def __init__(self):
        self.calls = []

    def set_clock(self, clock):
        pass

    def instant(self, name, cat="event", track="main", args=None, ctx=None):
        self.calls.append(("instant", name))

    def complete(self, name, start, end, cat="span", track="main",
                 args=None, ctx=None):
        self.calls.append(("complete", name))

    def counter(self, name, values, track="counters"):
        self.calls.append(("counter", name))


class CountingNullTelemetry:
    """Telemetry double: disabled, but its tracer tattles on callers."""

    enabled = False

    def __init__(self):
        self.tracer = CountingNullTracer()

    def set_clock(self, clock):
        pass


def test_untraced_run_never_calls_the_tracer():
    telemetry = CountingNullTelemetry()
    result = run(RunSpec(kind="oltp", benchmark="tpcc", scale=20,
                         design="LC", duration=4.0, profile="tiny",
                         nworkers=8, checkpoint_interval=1.0),
                 telemetry=telemetry)
    # The run did real work (transactions committed, pages cleaned)...
    assert result.total_metric_txns > 0
    assert result.system.bp.stats.misses > 0
    # ...without a single tracer call: every call site honoured
    # `tracer.enabled` and skipped both the call and its args dict.
    assert telemetry.tracer.calls == []


def test_untraced_tac_and_faultless_paths_silent():
    telemetry = CountingNullTelemetry()
    run(RunSpec(kind="oltp", benchmark="tpce", scale=2, design="TAC",
                duration=4.0, profile="tiny", nworkers=8),
        telemetry=telemetry)
    assert telemetry.tracer.calls == []
