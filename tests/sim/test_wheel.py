"""The hierarchical timer wheel: exact equivalence with the heap kernel.

The wheel's contract is strict: it must yield entries in exactly the
``(when, seq)`` order the heap scheduler does — not merely "sorted by
time" — because the repo's determinism guarantee (byte-identical traces
per seed) rides on event order.  These tests fuzz random timers on
every tier and run whole seeded simulations on both kernels.  The
property at the end plays scripts of schedules that land at zero delay,
past the mid horizon, on a slot's first instant or one ulp either side
of it, with ``wipe()`` between them, on both kernels, and compares
every clock value, wake and ``_seq``.
"""

import gc
import math
import random
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import KERNELS, Environment, make_environment
from repro.sim import wheel as wheel_module
from repro.sim.wheel import WheelEnvironment


def _timers(make_env, seed):
    """Random timers on every tier, some set from the callbacks of
    others; the ``(now, tag)`` of each callback, in the order run."""
    env = make_env()
    rng = random.Random(seed)
    log = []
    tags = iter(range(600))

    def fire(event):
        log.append((env.now, event.value))
        for _ in range(rng.choice((0, 1, 1, 2))):
            arm()

    def arm():
        tag = next(tags, None)
        if tag is not None:
            delay = rng.choice(
                [0.0, 0.001, 0.004, 0.05, 0.3, 2.0, 50.0]) * rng.random()
            env.timeout(delay, tag).callbacks.append(fire)

    for _ in range(40):
        arm()
    env.run()
    assert not env._queue  # every tier of a wheel drained
    return log


@pytest.mark.parametrize("seed", range(6))
def test_fuzz_wheel_matches_heap_order(seed):
    small = partial(WheelEnvironment, tick=0.01, near_slots=8, mid_buckets=4)
    assert _timers(small, seed) == _timers(Environment, seed)


def _fired(env, delays):
    """Run one timeout per delay; their values in the order they fired."""
    fired = []
    for tag, delay in enumerate(delays):
        env.timeout(delay, tag).callbacks.append(
            lambda event: fired.append((env.now, event.value)))
    env.run()
    return fired


def test_far_future_entries_cascade_back_exactly():
    env = WheelEnvironment(tick=0.001, near_slots=4, mid_buckets=4)
    # span = 16 ticks = 0.016 s; everything beyond lands in the far heap.
    delays = [5.0, 0.0005, 1.0, 0.02, 0.001, 100.0]
    assert [when for when, _ in _fired(env, delays)] == sorted(delays)


def test_same_instant_entries_pop_in_seq_order():
    env = WheelEnvironment(tick=0.01)
    assert _fired(env, [1.0] * 4) == [(1.0, tag) for tag in range(4)]


def test_a_timer_in_the_slot_being_drained_runs_in_order():
    """A timer set while slot 100 (1.00-1.01 s) drains is filed onto
    the slot heap, ahead of a timer already there that is due later."""
    env = WheelEnvironment(tick=0.01)
    fired = []
    first = env.timeout(1.0, "first")
    env.timeout(1.008, "later").callbacks.append(
        lambda event: fired.append((env.now, event.value)))
    first.callbacks.append(
        lambda _event: env.timeout(0.005, "set at 1.0").callbacks.append(
            lambda event: fired.append((env.now, event.value))))
    env.run()
    assert fired == [(1.005, "set at 1.0"), (1.008, "later")]


def test_clear_empties_and_wheel_remains_usable():
    env = WheelEnvironment(tick=0.01)
    for delay in (0.5, 3.0, 50.0):  # near, mid and far
        env.timeout(delay)
    env.wipe()
    assert not env._queue
    assert _fired(env, [7.0]) == [(7.0, 0)]


def test_constructor_validation():
    with pytest.raises(ValueError):
        WheelEnvironment(tick=0.0)
    with pytest.raises(ValueError):
        WheelEnvironment(near_slots=1)
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
    assert WheelEnvironment.run is Environment.run


def test_wheel_environment_until_time_and_until_event():
    env = WheelEnvironment()
    hits = []

    def p():
        yield env.timeout(2.0)
        hits.append(env.now)
        yield env.timeout(3.0)
        hits.append(env.now)
        return "done"

    proc = env.process(p())
    env.run(until=2.0)
    assert env.now == 2.0 and hits == [2.0]
    assert env.run(until=proc) == "done"
    assert hits == [2.0, 5.0]
    env.run()
    assert env.now == 5.0
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


# ----------------------------------------------------------------------
# Schedules at the slot edges, against the heap kernel
# ----------------------------------------------------------------------

#: ``(tick, near_slots, mid_buckets)``: the default wheel, and small
#: ones whose mid horizon (``near_slots * mid_buckets`` ticks) a few
#: delays cross.  1e-3 and 0.1 are no binary fractions, so ``k * tick``
#: can truncate into slot ``k - 1``; 0.25 is exact.
GEOMETRIES = st.sampled_from(
    ((1e-3, 256, 64), (1e-3, 4, 2), (0.1, 2, 3), (0.25, 4, 2)))

#: Where a delay lands, from the sleeper's own ``now``: at ``now``;
#: ``k`` mid horizons and a half slot further; the first instant of the
#: slot ``k + 1`` past ``now``'s, or one ulp either side of it; the
#: middle of that slot.
WHERES = st.one_of(
    st.just(("zero", 0, 0)),
    st.tuples(st.just("far"), st.integers(1, 3), st.just(0)),
    st.tuples(st.just("edge"), st.integers(0, 2), st.sampled_from((-1, 0, 1))),
    st.tuples(st.just("inside"), st.integers(0, 2), st.just(0)))

#: Mostly chains of sleeps: a wake that lands two slots ahead and
#: schedules into the next slot is where a wheel that filed by the
#: wrong slot would run an entry ahead of one already bucketed there.
CHAINS = st.lists(WHERES, min_size=1, max_size=6)
EDGE_OPS = st.one_of(
    st.tuples(st.just("sleeper"), CHAINS),
    st.tuples(st.just("spawn"), CHAINS),
    st.tuples(st.just("timeout"), WHERES),
    st.tuples(st.sampled_from(("succeed", "fail", "wipe")), st.none()))

EDGE_SCRIPTS = st.fixed_dictionaries({
    "geometry": GEOMETRIES,
    "start": st.sampled_from((0.0, 98765.4321)),
    "ops": st.lists(EDGE_OPS, min_size=1, max_size=24),
})


def _first_of_slot(slot, tick):
    """The least float ``t`` with ``int(t / tick) >= slot``."""
    t = slot * tick
    while int(t / tick) >= slot:
        t = math.nextafter(t, -math.inf)
    while int(t / tick) < slot:
        t = math.nextafter(t, math.inf)
    return t


def _delay(now, geometry, where):
    """The delay from ``now`` that lands where ``where`` says, exactly
    when ``now + delay`` can reach that float."""
    tick, near_slots, mid_buckets = geometry
    kind, k, ulps = where
    if kind == "zero":
        return 0.0
    if kind == "far":
        return (k * near_slots * mid_buckets + 0.5) * tick
    slot = int(now / tick) + 1 + k
    target = _first_of_slot(slot, tick)
    if kind == "inside":
        target += tick / 2
    for _ in range(abs(ulps)):
        target = math.nextafter(target, math.copysign(math.inf, ulps))
    delay = target - now
    for _ in range(4):
        if now + delay < target:
            delay = math.nextafter(delay, math.inf)
        elif now + delay > target:
            delay = math.nextafter(delay, -math.inf)
    return max(delay, 0.0)


def run_edges(env, script):
    """Play ``script`` on ``env``; return everything it observed: each
    callback and wake with the clock, and the clock and ``_seq`` after
    every operation."""
    geometry = script["geometry"]
    log = []

    def logged(tag):
        return lambda _event: log.append((tag, env.now))

    def sleeper(tag, wheres):
        for n, where in enumerate(wheres):
            yield _delay(env.now, geometry, where)
            log.append((tag, n, env.now))
        return tag

    for index, (op, arg) in enumerate(script["ops"]):
        if op == "timeout":
            env.timeout(_delay(env.now, geometry, arg)).callbacks.append(
                logged(index))
        elif op == "sleeper":
            env.process(sleeper(index, arg)).callbacks.append(logged(index))
        elif op == "spawn":
            env.spawn(sleeper(index, arg))
        elif op == "succeed":
            event = env.event()
            event.callbacks.append(logged(index))
            event.succeed()
        elif op == "fail":
            event = env.event()
            event.callbacks.append(logged(index))
            event.fail(ValueError(index))
        else:
            env.wipe()
        log.append(("op", index, env.now, env._seq))
    env.run()
    log.append(("end", env.now, env._seq))
    return log


@settings(deadline=None)
@given(script=EDGE_SCRIPTS)
def test_slot_edge_schedules_match_the_heap(script):
    tick, near_slots, mid_buckets = script["geometry"]
    gc.freeze()  # each wipe() collects; older objects are not ours
    try:
        heap = run_edges(Environment(script["start"]), script)
        wheel = run_edges(
            WheelEnvironment(script["start"], tick=tick,
                             near_slots=near_slots, mid_buckets=mid_buckets),
            script)
    finally:
        gc.unfreeze()
    assert wheel == heap


@pytest.mark.parametrize("tick", [1e-3, 0.1, 0.25, 1e-5])
@pytest.mark.parametrize("base", [0, 98_765_432, 2**40])
def test_slot_end_is_the_first_instant_of_the_next_slot(tick, base):
    for slot in range(base, base + 2_000):
        end = wheel_module._slot_end(slot, tick)
        assert int(end / tick) > slot
        assert int(math.nextafter(end, -math.inf) / tick) <= slot


def test_the_wheel_keeps_near_at_the_end_of_the_slot_being_drained():
    env = WheelEnvironment(initial_time=5.0, tick=0.1)
    assert env._near == wheel_module._slot_end(50, 0.1)
    env.timeout(1.0)
    env.run()
    assert env.now == 6.0
    assert env._near == wheel_module._slot_end(60, 0.1)
    assert Environment()._near == -math.inf


#: A sleep filed one slot too far ahead runs ahead of a timer already
#: bucketed in that slot: p sleeps to slot 2's first instant, a timer
#: waits for slot 3's, and p's second sleep lands in the middle of slot 3.
#: A zero-delay timer keeps the slot heap busy while p starts: with
#: nothing on it the loop refills it at once, skipping slot 2 for slot
#: 3, and p's second sleep lands on the slot heap either way.
ONE_SLOT_TOO_FAR = {"geometry": (1e-3, 256, 64), "start": 0.0, "ops": [
    ("sleeper", [("edge", 1, 0), ("inside", 0, 0)]),
    ("timeout", ("zero", 0, 0)),
    ("timeout", ("edge", 2, 0))]}


def test_the_edge_property_catches_near_one_slot_too_far(monkeypatch):
    script = ONE_SLOT_TOO_FAR
    geometry = dict(zip(("tick", "near_slots", "mid_buckets"),
                        script["geometry"]))
    heap = run_edges(Environment(), script)
    assert run_edges(WheelEnvironment(**geometry), script) == heap
    slot_end = wheel_module._slot_end
    monkeypatch.setattr(wheel_module, "_slot_end",
                        lambda slot, tick: slot_end(slot + 1, tick))
    assert run_edges(WheelEnvironment(**geometry), script) != heap
