"""The hierarchical timer wheel: exact equivalence with the heap kernel.

The wheel's contract is strict: it must yield entries in exactly the
``(when, seq)`` order the heap scheduler does — not merely "sorted by
time" — because the repo's determinism guarantee (byte-identical traces
per seed) rides on event order.  These tests fuzz the raw structure
against ``heapq`` and run whole seeded simulations on both kernels.
"""

import heapq
import random

import pytest

from repro.sim import (KERNELS, Environment, TimerWheel, WheelEnvironment,
                       make_environment)
from repro.sim.environment import EmptySchedule


class _Payload:
    """Stands in for an Event; must never be compared by the wheel."""

    __lt__ = None


def test_fuzz_wheel_matches_heap_order():
    rng = random.Random(20110612)
    for trial in range(50):
        wheel = TimerWheel(tick=0.01, near_slots=8, mid_buckets=4)
        heap = []
        seq = 0
        pending = 0
        now = 0.0
        for _ in range(600):
            if pending and rng.random() < 0.45:
                got = wheel.pop()
                want = heapq.heappop(heap)
                assert got == want
                now = got[0]
                pending -= 1
            else:
                seq += 1
                delay = rng.choice(
                    [0.0, 0.001, 0.004, 0.05, 0.3, 2.0, 50.0]) * rng.random()
                entry = (now + delay, seq, _Payload())
                wheel.push(entry)
                heapq.heappush(heap, entry)
                pending += 1
        while pending:
            assert wheel.pop() == heapq.heappop(heap)
            pending -= 1
        assert len(wheel) == 0 and not wheel


def test_far_future_entries_cascade_back_exactly():
    wheel = TimerWheel(tick=0.001, near_slots=4, mid_buckets=4)
    # span = 16 ticks = 0.016 s; everything beyond lands in the far heap.
    entries = [(t, i, _Payload())
               for i, t in enumerate([5.0, 0.0005, 1.0, 0.02, 0.001, 100.0])]
    for entry in entries:
        wheel.push(entry)
    assert [wheel.pop()[0] for _ in range(len(entries))] == sorted(
        e[0] for e in entries)


def test_same_instant_entries_pop_in_seq_order():
    wheel = TimerWheel(tick=0.01)
    entries = [(1.0, seq, _Payload()) for seq in (5, 1, 9, 2)]
    for entry in entries:
        wheel.push(entry)
    assert [wheel.pop()[1] for _ in range(4)] == [1, 2, 5, 9]


def test_peek_then_earlier_push_goes_to_current_heap():
    wheel = TimerWheel(tick=0.01)
    wheel.push((1.0, 1, _Payload()))
    # peek advances the cursor to slot 100 before anything pops...
    assert wheel.peek_when() == 1.0
    # ...so a new same-slot (or earlier-slot) push must still pop first
    # when its (when, seq) orders first.
    wheel.push((0.9995, 2, _Payload()))
    assert wheel.pop()[0] == 0.9995
    assert wheel.pop()[0] == 1.0


def test_pop_empty_raises_indexerror_like_heappop():
    wheel = TimerWheel()
    with pytest.raises(IndexError):
        wheel.pop()
    assert wheel.peek_when() == float("inf")


def test_clear_empties_and_wheel_remains_usable():
    wheel = TimerWheel(tick=0.01)
    for seq, when in enumerate([0.5, 3.0, 50.0]):
        wheel.push((when, seq, _Payload()))
    wheel.clear()
    assert len(wheel) == 0
    wheel.push((7.0, 10, _Payload()))
    assert wheel.pop()[0] == 7.0


def test_constructor_validation():
    with pytest.raises(ValueError):
        TimerWheel(tick=0.0)
    with pytest.raises(ValueError):
        TimerWheel(near_slots=1)
    with pytest.raises(ValueError):
        TimerWheel(origin=-1.0)
    with pytest.raises(ValueError):
        WheelEnvironment(initial_time=-0.5)


def test_make_environment_registry():
    assert KERNELS == ("heap", "wheel")
    assert type(make_environment("heap")) is Environment
    assert type(make_environment("wheel")) is WheelEnvironment
    with pytest.raises(ValueError):
        make_environment("bogus")


def _churn(envcls, seed):
    """Seeded interacting processes; returns the observable sequence."""
    env = envcls()
    rng = random.Random(seed)
    log = []

    def worker(tag):
        for step in range(30):
            yield env.timeout(rng.random() * rng.choice([0.001, 0.1, 10.0]))
            log.append((tag, step, env.now))

    def spawner():
        for tag in range(10):
            env.process(worker(tag))
            yield env.timeout(rng.random())

    env.process(spawner())
    env.run()
    return log


@pytest.mark.parametrize("seed", [1, 7, 20110612])
def test_wheel_run_event_for_event_identical_to_heap(seed):
    assert _churn(WheelEnvironment, seed) == _churn(Environment, seed)


def test_wheel_kernel_drains_through_the_one_loop():
    # The wheel is only a queue: no second copy of the loop to keep in step.
    for name in ("run", "step", "peek"):
        assert getattr(WheelEnvironment, name) is getattr(Environment, name)


def test_wheel_environment_step_until_and_until_event():
    env = WheelEnvironment()
    hits = []

    def p():
        yield env.timeout(2.0)
        hits.append(env.now)
        yield env.timeout(3.0)
        hits.append(env.now)
        return "done"

    proc = env.process(p())
    env.step()  # the Process initialization event
    env.step()  # the 2.0 timeout
    assert env.now == 2.0 and hits == [2.0]
    assert env.run(until=proc) == "done"
    assert hits == [2.0, 5.0]
    with pytest.raises(EmptySchedule):
        env.step()
    # run(until=t) past the last event parks the clock at t.
    env.run(until=9.0)
    assert env.now == 9.0


def test_wheel_environment_wipe_discards_pending_work():
    env = WheelEnvironment()
    fired = []

    def p():
        yield env.timeout(1.0)
        fired.append(env.now)

    env.process(p())
    env.wipe()
    env.run()
    assert fired == []

    def q():
        yield env.timeout(0.5)
        fired.append(env.now)

    env.process(q())
    env.run()
    assert fired == [0.5]
