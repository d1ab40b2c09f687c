"""Stress and property tests for the simulation kernel."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment
from tests.storage.reference_hdd import Resource


class TestSchedulingProperties:
    @settings(max_examples=30, deadline=None)
    @given(delays=st.lists(st.floats(min_value=0, max_value=1000),
                           min_size=1, max_size=50))
    def test_events_fire_in_time_order(self, delays):
        env = Environment()
        fired = []
        for delay in delays:
            event = env.timeout(delay, value=delay)
            event.callbacks.append(lambda e: fired.append((env.now, e.value)))
        env.run()
        times = [when for when, _ in fired]
        assert times == sorted(times)
        assert sorted(value for _, value in fired) == sorted(delays)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_interleaved_processes_are_deterministic(self, seed):
        def run_once():
            env = Environment()
            rng = random.Random(seed)
            log = []

            def worker(name):
                for _ in range(5):
                    yield env.timeout(rng.random())
                    log.append((round(env.now, 9), name))

            for name in ("a", "b", "c"):
                env.process(worker(name))
            env.run()
            return log

        assert run_once() == run_once()

    def test_many_processes_complete(self):
        env = Environment()
        done = []

        def worker(i):
            yield env.timeout(i % 7 * 0.001)
            done.append(i)

        procs = [env.process(worker(i)) for i in range(2_000)]
        env.run(env.all_of(procs))
        assert len(done) == 2_000


class TestResourceFairness:
    @settings(max_examples=20, deadline=None)
    @given(capacity=st.integers(min_value=1, max_value=8),
           nworkers=st.integers(min_value=1, max_value=30))
    def test_never_exceeds_capacity(self, capacity, nworkers):
        env = Environment()
        resource = Resource(env, capacity)
        concurrent = {"now": 0, "max": 0}

        def worker():
            with resource.request() as request:
                yield request
                concurrent["now"] += 1
                concurrent["max"] = max(concurrent["max"], concurrent["now"])
                yield env.timeout(1)
                concurrent["now"] -= 1

        procs = [env.process(worker()) for _ in range(nworkers)]
        env.run(env.all_of(procs))
        assert concurrent["max"] <= capacity
        assert concurrent["now"] == 0

    def test_fifo_grant_order(self):
        env = Environment()
        resource = Resource(env, 1)
        order = []

        def worker(i):
            # Stagger arrivals so the queue order is well-defined.
            yield env.timeout(i * 0.001)
            with resource.request() as request:
                yield request
                order.append(i)
                yield env.timeout(1)

        procs = [env.process(worker(i)) for i in range(10)]
        env.run(env.all_of(procs))
        assert order == list(range(10))
