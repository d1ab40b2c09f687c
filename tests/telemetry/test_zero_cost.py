"""The no-trace path must be truly zero-cost.

Every tracer call site in the engine is guarded by
``if tracer.enabled:`` so that a disabled run neither calls the tracer
nor builds the per-event ``args`` dicts.  The counting double below
fails the test on *any* call reaching a disabled tracer — a regression
here silently taxes every untraced simulation.

The registry gets the same treatment: components count in their own
fields and hand the registry a reader when they are built, so a dark
run's only registry calls are those registrations, all made before the
first simulated event.  (Commit 2a98990 made 30,165 and 149,002 later
ones in the two runs below: a no-op ``inc()`` beside every count.)
"""

from repro.harness.experiments import SCALE_PROFILES, run_oltp_experiment


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


class CountingNullRegistry:
    """Duck-typed disabled registry: records, with the virtual time it
    happened at, every call it *and anything it hands out* receives."""

    enabled = False

    def __init__(self):
        self.calls = []
        self.clock = lambda: 0.0

    def _note(self, what, name):
        self.calls.append((what, name, self.clock()))

    def _register(self, name, *args, **kwargs):
        self._note("register", name)
        return _HandedOut(self, name)

    counter = gauge = histogram = _register

    def get(self, name):
        self._note("get", name)

    def snapshot(self):
        self._note("snapshot", None)
        return []


class _HandedOut:
    """Whatever a caller does with a registered metric is a call."""

    def __init__(self, registry, name):
        self._registry, self._name = registry, name

    def __getattr__(self, method):
        def call(*args, **kwargs):
            self._registry._note(method, self._name)
            return self
        return call


class CountingNullTelemetry:
    """Telemetry double: disabled, but both halves tattle on callers."""

    enabled = False

    def __init__(self):
        self.tracer = CountingNullTracer()
        self.registry = CountingNullRegistry()

    def set_clock(self, clock):
        self.registry.clock = clock


def assert_registry_only_registered(registry):
    """Every call was a registration made before the clock first moved."""
    assert len(registry.calls) >= 20  # the double really was wired in
    late = [call for call in registry.calls
            if call[0] != "register" or call[2] > 0.0]
    assert late == [], f"{len(late)} registry calls in a dark run"


def test_untraced_run_never_calls_the_tracer():
    telemetry = CountingNullTelemetry()
    result = run_oltp_experiment(
        "tpcc", 20, "LC", duration=4.0, profile=SCALE_PROFILES["tiny"],
        nworkers=8, checkpoint_interval=1.0, telemetry=telemetry)
    # The run did real work (transactions committed, pages cleaned)...
    assert result.total_metric_txns > 0
    assert result.system.bp.stats.misses > 0
    # ...without a single tracer call: every call site honoured
    # `tracer.enabled` and skipped both the call and its args dict.
    assert telemetry.tracer.calls == []
    assert_registry_only_registered(telemetry.registry)


def test_untraced_tac_and_faultless_paths_silent():
    telemetry = CountingNullTelemetry()
    run_oltp_experiment(
        "tpce", 2, "TAC", duration=4.0, profile=SCALE_PROFILES["tiny"],
        nworkers=8, telemetry=telemetry)
    assert telemetry.tracer.calls == []
    assert_registry_only_registered(telemetry.registry)
