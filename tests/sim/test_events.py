"""Unit tests for the event primitives."""

import pytest

from repro.sim.events import SimulationError


class TestEvent:
    def test_starts_pending(self, env):
        event = env.event()
        assert not event.triggered
        assert not event.processed

    def test_value_unavailable_while_pending(self, env):
        with pytest.raises(SimulationError):
            env.event().value

    def test_succeed_sets_value(self, env):
        event = env.event().succeed(42)
        assert event.triggered
        assert event.ok
        assert event.value == 42

    def test_succeed_default_value_is_none(self, env):
        assert env.event().succeed().value is None

    def test_double_succeed_rejected(self, env):
        event = env.event().succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_after_succeed_rejected(self, env):
        event = env.event().succeed()
        with pytest.raises(SimulationError):
            event.fail(RuntimeError("boom"))

    def test_fail_stores_exception(self, env):
        exc = RuntimeError("boom")
        event = env.event().fail(exc)
        assert event.triggered
        assert not event.ok
        assert event.value is exc

    def test_fail_requires_exception(self, env):
        with pytest.raises(TypeError):
            env.event().fail("not an exception")

    def test_processed_after_run(self, env):
        event = env.event().succeed()
        env.run()
        assert event.processed

    def test_callbacks_receive_event(self, env):
        seen = []
        event = env.event()
        event.callbacks.append(seen.append)
        event.succeed()
        env.run()
        assert seen == [event]


class TestTimeout:
    def test_fires_after_delay(self, env):
        env.timeout(5)
        env.run()
        assert env.now == 5

    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(-1)

    def test_carries_value(self, env):
        timeout = env.timeout(1, value="hello")
        env.run()
        assert timeout.value == "hello"

    def test_zero_delay_allowed(self, env):
        env.timeout(0)
        env.run()
        assert env.now == 0

    def test_is_immediately_triggered(self, env):
        assert env.timeout(3).triggered


class TestAllOf:
    def test_waits_for_all(self, env):
        timeouts = [env.timeout(1), env.timeout(3), env.timeout(2)]
        combined = env.all_of(timeouts)
        env.run(combined)
        assert env.now == 3

    def test_collects_values(self, env):
        first = env.timeout(1, value="a")
        second = env.timeout(2, value="b")
        combined = env.all_of([first, second])
        values = env.run(combined)
        assert values == {first: "a", second: "b"}

    def test_empty_is_immediate(self, env):
        assert env.all_of([]).triggered

    def test_propagates_failure(self, env):
        bad = env.event()
        combined = env.all_of([env.timeout(1), bad])
        bad.fail(RuntimeError("boom"))
        with pytest.raises(RuntimeError, match="boom"):
            env.run(combined)

    def test_already_processed_children(self, env):
        done = env.event().succeed("x")
        env.run()
        combined = env.all_of([done])
        env.run(combined)
        assert combined.ok


class TestAnyOf:
    def test_fires_on_first(self, env):
        combined = env.any_of([env.timeout(5), env.timeout(1)])
        env.run(combined)
        assert env.now == 1

    def test_collects_first_value(self, env):
        fast = env.timeout(1, value="fast")
        combined = env.any_of([fast, env.timeout(9, value="slow")])
        values = env.run(combined)
        assert values[fast] == "fast"

    def test_empty_is_immediate(self, env):
        assert env.any_of([]).triggered

    def test_unfired_timeout_is_not_collected(self, env):
        """Regression: a Timeout is born *triggered*, so collecting
        triggered children reported the guard timer of
        ``any_of([event, timeout])`` as if it had already fired."""
        trigger = env.event()
        guard = env.timeout(9, value="too late")
        combined = env.any_of([trigger, guard])
        trigger.succeed("now")
        values = env.run(combined)
        assert env.now == 0
        assert values == {trigger: "now"}
