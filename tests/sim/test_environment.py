"""Unit tests for the simulation environment."""

import gc

import pytest

from repro.sim import KERNELS, Environment, make_environment
from repro.sim.events import SimulationError
from repro.sim.wheel import WheelEnvironment


class TestClock:
    def test_starts_at_zero(self):
        assert Environment().now == 0.0

    def test_custom_initial_time(self):
        assert Environment(initial_time=100.0).now == 100.0

    def test_run_until_time_advances_clock(self, env):
        env.run(until=10)
        assert env.now == 10

    def test_run_until_before_now_rejected(self, env):
        env.run(until=10)
        with pytest.raises(ValueError):
            env.run(until=5)

    def test_events_beyond_until_are_not_processed(self, env):
        fired = []
        event = env.timeout(20)
        event.callbacks.append(lambda e: fired.append(e))
        env.run(until=10)
        assert not fired
        env.run(until=30)
        assert fired


class TestNanTime:
    """A nan time is refused, naming it, on both kernels: it compares
    false with everything, so the heap kernel filed a nan timeout
    anywhere and ran the clock backwards, the wheel died converting it
    to a slot, ``run(until=nan)`` ran every event and left ``now`` at
    nan, and ``Environment(nan)`` was accepted."""

    @pytest.fixture(params=KERNELS)
    def kernel(self, request):
        return request.param

    def test_nan_timeout_is_refused_and_the_clock_stays_monotone(
            self, kernel):
        env = make_environment(kernel)
        resumed = []

        def sleeper(delay):
            yield env.timeout(delay)
            resumed.append(env.now)

        for delay in (3, 1, 2, 0.5):
            env.spawn(sleeper(delay))
        with pytest.raises(ValueError, match="nan"):
            env.timeout(float("nan"))
        env.run()
        assert resumed == [0.5, 1, 2, 3]

    def test_nan_until_is_refused(self, kernel):
        env = make_environment(kernel)
        env.timeout(1)
        with pytest.raises(ValueError, match="nan"):
            env.run(until=float("nan"))
        assert env.now == 0.0
        env.run()
        assert env.now == 1

    def test_nan_initial_time_is_refused(self, kernel):
        with pytest.raises(ValueError, match="nan"):
            make_environment(kernel, initial_time=float("nan"))


class TestRunModes:
    def test_run_until_event_returns_value(self, env):
        def proc():
            yield env.timeout(3)
            return "done"

        assert env.run(env.process(proc())) == "done"

    def test_run_until_failed_event_raises(self, env):
        def proc():
            yield env.timeout(1)
            raise ValueError("kaput")

        with pytest.raises(ValueError, match="kaput"):
            env.run(env.process(proc()))

    def test_run_until_never_triggering_event_raises(self, env):
        with pytest.raises(SimulationError):
            env.run(env.event())

    def test_run_drains_all_events(self, env):
        first, second = env.timeout(1), env.timeout(2)
        env.run()
        assert first.processed and second.processed and env.now == 2


class TestNextEvent:
    def test_run_on_an_empty_schedule_returns_at_once(self, env):
        assert env.run() is None
        assert env.now == 0.0

    def test_run_until_stops_short_of_the_next_event(self, env):
        event = env.timeout(7)
        env.run(until=6.5)
        assert not event.processed and env.now == 6.5
        env.run()
        assert event.processed and env.now == 7

    def test_same_time_events_fifo(self, env):
        order = []
        for tag in ("a", "b", "c"):
            event = env.timeout(1, value=tag)
            event.callbacks.append(lambda e: order.append(e.value))
        env.run()
        assert order == ["a", "b", "c"]


class TestRunModesOnTheWheel(TestRunModes):
    """The same run modes on the wheel kernel, through the one loop."""

    @pytest.fixture
    def env(self):
        return WheelEnvironment()


class TestNextEventOnTheWheel(TestNextEvent):
    """The same on the wheel kernel, through the base ``run``."""

    @pytest.fixture
    def env(self):
        return WheelEnvironment()


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def trace():
            env = Environment()
            log = []

            def worker(name, delay):
                for _ in range(3):
                    yield env.timeout(delay)
                    log.append((env.now, name))

            env.process(worker("x", 1.5))
            env.process(worker("y", 1.0))
            env.run()
            return log

        assert trace() == trace()


class TestCrashPropagation:
    def test_unawaited_process_exception_surfaces_in_run(self, env):
        def bad():
            yield env.timeout(1)
            raise RuntimeError("unhandled")

        env.process(bad())
        with pytest.raises(RuntimeError, match="unhandled"):
            env.run()


class TestWipe:
    """Nothing survives ``wipe()``: what a dying process's ``finally``
    schedules while the wipe collects it goes with the rest, from the
    lane (a trigger) and from the heap (a timer) alike."""

    @pytest.fixture(params=KERNELS)
    def env(self, request):
        return make_environment(request.param)

    def test_a_finally_that_succeeds_during_the_wipe_leaves_nothing(
            self, env):
        released, ran, woken = env.event(), [], []

        def dying():
            never = env.event()  # the frame holds it: a cycle only gc frees
            try:
                yield never
            finally:
                ran.append(env.now)
                released.succeed("resurrected")
                env.timeout(0.0)

        def waiter():
            woken.append((yield released))

        was_enabled = gc.isenabled()
        gc.disable()  # the cycle must outlive everything but the wipe
        try:
            env.process(dying())
            env.process(waiter())
            env.run(until=1.0)
            env.timeout(0.5)  # in flight when the power fails
            assert not ran
            env.wipe()
        finally:
            if was_enabled:
                gc.enable()
        assert ran == [1.0]
        assert not env._lane and not env._queue
        env.run()
        assert woken == [] and env.now == 1.0
