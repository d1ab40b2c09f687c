"""``HddArray`` against the generator-per-I/O model it replaced.

The callback ``HddArray`` must wake every waiter in the instant, and at
the place among that instant's events, where the parent's process-based
one (``tests/storage/reference_hdd.py``) did — that is what keeps every
simulated number of every benchmark cell (DESIGN.md §13, "HddArray: five
events, and why not two").  The property test runs random scripts of a
few processes mixing disk I/O, SSD I/O and sleeps against both, on both
kernels, without and with a fault injector, and compares the full
``(now, waiter, outcome, hdd.pending, ssd.pending)`` wake log.

Delays come from a handful of device constants, as they do in a real
run, so that different chains of waits land on the *same float* — the
coincidences in which an event more or fewer per I/O shows.  The last
tests prove the property has teeth: collapsing either kind of hop the
port keeps (the one after ``submit``, the two after the last timer)
makes a pinned script wake in a different order.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.storage.hdd as hdd_module
from repro.faults import FaultInjector, IoFault
from repro.sim import KERNELS, Timeout, make_environment
from repro.storage import HddArray, IoKind, IORequest, Ssd
from tests.storage.reference_hdd import GeneratorHddArray

_PROBE = HddArray(make_environment("heap"))
R = _PROBE.service_time(IORequest(IoKind.RANDOM_READ, 0))       # disk read
L = _PROBE.service_time(IORequest(IoKind.SEQUENTIAL_WRITE, 0))  # log page
S = Ssd(make_environment("heap")).service_time(
    IORequest(IoKind.RANDOM_READ, 0))                           # SSD read
DELAYS = (R, S, L, R + S, 2 * S)

HDD_STEPS = st.tuples(
    st.just("hdd"),
    st.sampled_from(list(IoKind)),
    # Eight stripe units, 64 pages apart in pairs: with 1, 2 or 4 drives
    # some pairs share a drive, next to its head or a seek away.
    st.sampled_from((0, 8, 16, 24, 64, 72, 80, 88)),
    st.sampled_from((1, 8, 20)),              # pages: within / across stripes
    st.integers(min_value=1, max_value=3))    # submitted back to back
SSD_STEPS = st.tuples(st.just("ssd"), st.integers(min_value=0, max_value=95))
SLEEP_STEPS = st.tuples(st.just("sleep"), st.sampled_from(DELAYS))


def _read(address):
    return ("hdd", IoKind.RANDOM_READ, address, 1, 1)


#: The steps a run is mostly made of, so that equal service times on
#: two drives and sleeps that end as a drive frees are common.
PLAIN_STEPS = st.sampled_from(
    [_read(address) for address in (0, 8, 64, 72)]
    + [("ssd", 0), ("sleep", R)])
SCRIPTS = st.fixed_dictionaries({
    "ndisks": st.sampled_from((1, 2, 4)),
    "processes": st.lists(
        st.lists(st.one_of(PLAIN_STEPS, HDD_STEPS, SSD_STEPS, SLEEP_STEPS),
                 min_size=1, max_size=6),
        min_size=2, max_size=6),
})


def run_script(script, make_hdd, kernel, faulted):
    """Run ``script``; return every wake-up, in order, with what the
    woken process could read off the devices."""
    env = make_environment(kernel)
    hdd = make_hdd(env, ndisks=script["ndisks"])
    ssd = Ssd(env, channels=2)
    log = []
    if faulted:
        # One RNG behind both injectors: the order in which the two
        # devices' hooks run within an instant decides who draws what.
        rng = random.Random("hdd-equivalence")
        for device in (hdd, ssd):
            injector = FaultInjector(env, device, rng)
            injector.transient_p = injector.latency_p = 0.15
            injector.latency_factor = 2.0
        hdd.faults.stall_until = R + S

    def wait(ident, event):
        try:
            yield event
            outcome = "ok"
        except IoFault as fault:
            outcome = type(fault).__name__
        log.append((env.now, ident, outcome, hdd.pending, ssd.pending))

    def process(ident, steps):
        for step in steps:
            if step[0] == "hdd":
                _, kind, address, npages, burst = step
                events = [hdd.submit(IORequest(kind, address + 8 * i, npages))
                          for i in range(burst)]
            elif step[0] == "ssd":
                events = [ssd.read(step[1])]
            else:
                events = [env.timeout(step[1])]
            for event in events:
                yield from wait(ident, event)

    env.spawn_all(process(ident, steps)
                  for ident, steps in enumerate(script["processes"]))
    env.run()
    assert hdd.pending == ssd.pending == 0
    if faulted:
        log.append(rng.getstate())
    return log


@settings(deadline=None)
@given(script=SCRIPTS)
def test_callback_hdd_wakes_waiters_where_the_generator_hdd_did(script):
    for kernel in KERNELS:
        for faulted in (False, True):
            assert (run_script(script, HddArray, kernel, faulted)
                    == run_script(script, GeneratorHddArray, kernel, faulted))


def _collapsing(*steps):
    """A stand-in for ``hdd.Timeout`` under which the zero-delay hops
    into the named ``HddArray`` steps run at once instead."""
    class Hop:
        def __init__(self, env, delay, value=None):
            self.env, self.delay, self._value = env, delay, value
            self.callbacks = self

        def append(self, callback):
            if self.delay == 0.0 and callback.__name__ in steps:
                callback(self)
            else:
                Timeout(self.env, self.delay,
                        self._value).callbacks.append(callback)
    return Hop


#: A disk read and an SSD read that finish in one instant (R + S = S + R).
#: The SSD's waiter wakes one hop after its timer and reads
#: ``hdd.pending``, which must fall two hops after the disk's; with
#: neither hop (Device's two events) the disk's waiter even wakes first.
COINCIDENCE = {"ndisks": 2, "processes": [
    [_read(0), ("ssd", 1)],
    [("ssd", 0), _read(8)]]}
#: Process 0 wakes from a timer and submits to the idle drive 1 in the
#: instant drive 0 finishes process 1's read and starts process 2's, a
#: seek away.  Both reads take R; without the hop after ``submit`` (four
#: events) the woken process's timer is the older of the two.
FREED_DRIVE = {"ndisks": 2, "processes": [
    [("sleep", R), _read(8)],
    [_read(0)],
    [_read(64)]]}
#: name -> (the hops collapsed, a script on which that shows)
TEETH = {
    "first-post-timer-hop": (("_joined",), COINCIDENCE),
    "second-post-timer-hop": (("_complete",), COINCIDENCE),
    "both-post-timer-hops": (("_joined", "_complete"), COINCIDENCE),
    "submit-side-hop": (("_admit",), FREED_DRIVE),
}


@pytest.mark.parametrize("name", sorted(TEETH))
def test_differential_catches_a_collapsed_hop(name, monkeypatch):
    steps, script = TEETH[name]
    reference = run_script(script, GeneratorHddArray, "heap", False)
    assert run_script(script, HddArray, "heap", False) == reference
    monkeypatch.setattr(hdd_module, "Timeout", _collapsing(*steps))
    assert run_script(script, HddArray, "heap", False) != reference
