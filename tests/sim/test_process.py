"""Unit tests for generator-based processes."""

import gc
import traceback

import pytest

from repro.sim.events import SimulationError
from repro.sim.process import Process


class TestLifecycle:
    def test_return_value_becomes_event_value(self, env):
        def proc():
            yield env.timeout(1)
            return 99

        assert env.run(env.process(proc())) == 99

    def test_requires_generator(self, env):
        with pytest.raises(TypeError):
            env.process(lambda: None)

    def test_process_waiting_on_process(self, env):
        def inner():
            yield env.timeout(2)
            return "inner-value"

        def outer():
            value = yield env.process(inner())
            return value + "!"

        assert env.run(env.process(outer())) == "inner-value!"

    def test_yield_from_subgenerator_without_events(self, env):
        def sub():
            return 5
            yield  # pragma: no cover

        def proc():
            value = yield from sub()
            yield env.timeout(1)
            return value

        assert env.run(env.process(proc())) == 5

    def test_immediate_return_process(self, env):
        def proc():
            return "now"
            yield  # pragma: no cover

        assert env.run(env.process(proc())) == "now"


class TestExceptions:
    def test_exception_propagates_to_waiter(self, env):
        def bad():
            yield env.timeout(1)
            raise KeyError("gone")

        def waiter():
            try:
                yield env.process(bad())
            except KeyError:
                return "caught"
            return "missed"

        assert env.run(env.process(waiter())) == "caught"

    def test_failed_event_raises_inside_process(self, env):
        trigger = env.event()

        def proc():
            try:
                yield trigger
            except RuntimeError:
                return "handled"

        process = env.process(proc())
        trigger.fail(RuntimeError("x"))
        assert env.run(process) == "handled"

    def test_yielding_non_event_raises_in_process(self, env):
        def proc():
            try:
                yield "not an event"
            except SimulationError:
                return "rejected"

        assert env.run(env.process(proc())) == "rejected"


class TestFailureTracebacks:
    """A failure's traceback is where it was raised: the kernel frame
    that caught it and the frames of the waiters it passed through stay
    off it, so it holds no process (``run()`` pauses the cyclic
    collector), and the failing generator's line stays on it."""

    @staticmethod
    def lines(exc):
        return [(frame.name, frame.line)
                for frame in traceback.extract_tb(exc.__traceback__)]

    def test_a_crash_run_reraises_shows_the_failing_line(self, env):
        def worker():
            yield 1.0
            raise RuntimeError("boom")

        env.spawn(worker())
        with pytest.raises(RuntimeError) as info:
            env.run()
        assert ("worker", 'raise RuntimeError("boom")') in self.lines(
            info.value)

    def test_a_failure_passed_on_keeps_its_origin(self, env):
        def bad():
            yield 1.0
            raise KeyError("gone")

        def waiter():
            yield env.process(bad())

        with pytest.raises(KeyError) as info:
            env.run(env.process(waiter()))
        names = [name for name, _ in self.lines(info.value)]
        assert names[-1] == "bad"
        assert "waiter" not in names and "_resume" not in names

    def test_a_caught_failure_leaves_nothing_in_a_cycle(self, env):
        """One waiter that catches a child's failure, and keeps the
        child; then a failure with a handle and no waiter, which
        ``run()`` re-raises: no ``Process`` is found by the cyclic
        collector after either."""
        def child():
            yield 1.0
            raise KeyError("gone")

        def waiter():
            proc = env.process(child())
            try:
                yield proc
            except KeyError:
                return proc.ok

        gc.collect()
        gc.disable()
        flags = gc.get_debug()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            assert env.run(env.process(waiter())) is False
            gc.collect()
            assert not [found for found in gc.garbage
                        if isinstance(found, Process)]
            proc = env.process(child())
            with pytest.raises(KeyError):
                env.run()
            assert proc.ok is False
            # This frame is on the traceback: it must not hold it.
            del proc
            gc.collect()
            assert not [found for found in gc.garbage
                        if isinstance(found, Process)]
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
            gc.enable()


class TestSpawn:
    def test_returns_no_handle_and_runs_the_generator(self, env):
        seen = []

        def worker():
            yield env.timeout(2)
            seen.append(env.now)

        assert env.spawn(worker()) is None
        env.run()
        assert seen == [2]

    def test_schedules_no_completion_event(self, env):
        def worker():
            yield env.timeout(1)

        def schedules(start):
            before = env._seq
            start(worker())
            env.run()
            return env._seq - before

        # bootstrap + timeout; process() adds the completion event.
        assert schedules(env.spawn) == 2
        assert schedules(env.process) == 3

    def test_uncaught_exception_surfaces_through_run(self, env):
        def worker():
            yield env.timeout(1)
            raise RuntimeError("boom")

        env.spawn(worker())
        with pytest.raises(RuntimeError, match="boom"):
            env.run()
        assert env.now == 1

    def test_requires_generator(self, env):
        with pytest.raises(TypeError):
            env.spawn(lambda: None)

    def test_works_on_the_wheel_kernel(self):
        from repro.sim import make_environment

        env = make_environment("wheel")
        seen = []

        def worker():
            yield env.timeout(0.5)
            seen.append(env.now)

        env.spawn(worker())
        env.run()
        assert seen == [0.5]
