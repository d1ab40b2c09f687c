"""Unit tests for generator-based processes."""

import pytest

from repro.sim import Interrupt
from repro.sim.events import SimulationError


class TestLifecycle:
    def test_return_value_becomes_event_value(self, env):
        def proc():
            yield env.timeout(1)
            return 99

        assert env.run(env.process(proc())) == 99

    def test_is_alive_until_finished(self, env):
        def proc():
            yield env.timeout(5)

        process = env.process(proc())
        assert process.is_alive
        env.run()
        assert not process.is_alive

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


class TestInterrupt:
    def test_interrupt_raises_with_cause(self, env):
        def sleeper():
            try:
                yield env.timeout(100)
            except Interrupt as interrupt:
                return interrupt.cause

        process = env.process(sleeper())

        def interrupter():
            yield env.timeout(1)
            process.interrupt("wake up")

        env.process(interrupter())
        assert env.run(process) == "wake up"
        assert env.now == 1

    def test_interrupting_finished_process_rejected(self, env):
        def quick():
            yield env.timeout(1)

        process = env.process(quick())
        env.run()
        with pytest.raises(SimulationError):
            process.interrupt()

    def test_interrupted_process_can_rewait(self, env):
        def sleeper():
            try:
                yield env.timeout(100)
            except Interrupt:
                yield env.timeout(2)
                return env.now

        process = env.process(sleeper())

        def interrupter():
            yield env.timeout(1)
            process.interrupt()

        env.process(interrupter())
        assert env.run(process) == 3


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
