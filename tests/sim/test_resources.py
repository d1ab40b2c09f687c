"""Unit tests for Resource and Store."""

import pytest

from repro.sim import Store
from tests.storage.reference_hdd import Resource


class TestResource:
    def test_capacity_validation(self, env):
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    def test_grant_up_to_capacity(self, env):
        resource = Resource(env, capacity=2)
        first, second, third = (resource.request() for _ in range(3))
        assert first.triggered
        assert second.triggered
        assert not third.triggered
        assert resource.count == 2
        assert resource.queue_len == 1

    def test_release_wakes_fifo(self, env):
        resource = Resource(env, capacity=1)
        first = resource.request()
        second = resource.request()
        third = resource.request()
        resource.release(first)
        assert second.triggered
        assert not third.triggered

    def test_release_waiting_request_cancels_it(self, env):
        resource = Resource(env, capacity=1)
        first = resource.request()
        second = resource.request()
        resource.release(second)  # cancel before grant
        resource.release(first)
        assert resource.count == 0
        assert resource.queue_len == 0

    def test_double_release_is_noop(self, env):
        resource = Resource(env, capacity=1)
        request = resource.request()
        resource.release(request)
        resource.release(request)
        assert resource.count == 0

    def test_in_flight_counts_users_and_waiters(self, env):
        resource = Resource(env, capacity=1)
        requests = [resource.request() for _ in range(3)]
        assert resource.in_flight == 3
        resource.release(requests[0])
        assert resource.in_flight == 2

    def test_context_manager_releases(self, env):
        resource = Resource(env, capacity=1)

        def holder():
            with resource.request() as request:
                yield request
                yield env.timeout(1)

        env.run(env.process(holder()))
        assert resource.count == 0

    def test_serializes_holders(self, env):
        resource = Resource(env, capacity=1)
        spans = []

        def holder():
            with resource.request() as request:
                yield request
                start = env.now
                yield env.timeout(2)
                spans.append((start, env.now))

        for _ in range(3):
            env.process(holder())
        env.run()
        assert spans == [(0, 2), (2, 4), (4, 6)]

    def test_parallel_capacity(self, env):
        resource = Resource(env, capacity=3)
        done = []

        def holder():
            with resource.request() as request:
                yield request
                yield env.timeout(2)
            done.append(env.now)

        for _ in range(3):
            env.process(holder())
        env.run()
        assert done == [2, 2, 2]


class TestStore:
    def test_get_returns_fifo(self, env):
        store = Store(env)
        store.put("a")
        store.put("b")
        first, second = store.get(), store.get()
        assert first.value == "a"
        assert second.value == "b"

    def test_get_blocks_until_put(self, env):
        store = Store(env)
        received = []

        def consumer():
            item = yield store.get()
            received.append((env.now, item))

        env.process(consumer())

        def producer():
            yield env.timeout(3)
            store.put("late")

        env.process(producer())
        env.run()
        assert received == [(3, "late")]

    def test_unwatched_put_schedules_nothing(self, env):
        store = Store(env)
        before = env._seq
        assert store.put("a") is None
        assert env._seq == before
        assert env.peek() == float("inf")

    def test_put_to_a_blocked_getter_schedules_its_wakeup_only(self, env):
        store = Store(env)
        getter = store.get()
        before = env._seq
        store.put("a")
        assert env._seq == before + 1
        assert env.run(getter) == "a"

    def test_len_reflects_buffered_items(self, env):
        store = Store(env)
        store.put(1)
        store.put(2)
        assert len(store) == 2
        store.get()
        assert len(store) == 1

    def test_blocked_getters_fifo(self, env):
        store = Store(env)
        order = []

        def consumer(name):
            item = yield store.get()
            order.append((name, item))

        env.process(consumer("first"))
        env.process(consumer("second"))

        def producer():
            yield env.timeout(1)
            store.put("x")
            store.put("y")

        env.process(producer())
        env.run()
        assert order == [("first", "x"), ("second", "y")]
