"""``Ssd`` against the hop-chain ``Device`` path it replaced.

Without an injector, ``Device`` serves an I/O in one call in (claim,
price, start the timer) and one callback out (stamp, account, pass the
channel on, trigger ``done``); ``tests/storage/reference_device.py``
keeps the chain of hops it replaced.  The property test runs random
scripts of a few processes mixing SSD reads and writes, bursts and
sleeps against the real ``Ssd`` and the ``ReferenceSsd``, on both
kernels, without and with a fault injector (transient errors, latency
spikes, a stall window and, in some scripts, the device dying
mid-run), and compares the full ``(now, waiter, outcome, ssd.pending)``
wake log, then the device's books.  With an injector the log also
holds each hook's call, in place: the hooks share one RNG, so where a
hook runs among the events of one instant is observable.

Delays come from the device's own service times, so that different
chains of waits land on the *same float*: the coincidences in which
the order of the bookkeeping and the wake-ups shows.  The last test
proves the property has teeth: a ``Device`` that triggers ``done``
before it accounts the I/O wakes a pinned script differently.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import IoFault
from repro.faults.injector import FaultInjector
from repro.sim import KERNELS, Event, make_environment
from repro.storage import IoKind, IORequest, Ssd
from repro.storage.device import Device
from tests.storage.reference_device import ReferenceSsd

_PROBE = Ssd(make_environment("heap"), channels=2)
READ, SEQ_READ, WRITE, SEQ_WRITE = (
    _PROBE.service_time(IORequest(kind, 0)) for kind in IoKind)
DELAYS = (READ, WRITE, SEQ_READ, READ + WRITE, 2 * READ)

IO_STEPS = st.tuples(
    st.just("io"),
    st.sampled_from(list(IoKind)),
    st.integers(min_value=0, max_value=31),  # frame
    st.sampled_from((1, 1, 2, 8)),           # pages
    st.integers(min_value=1, max_value=3))   # submitted back to back
SLEEP_STEPS = st.tuples(st.just("sleep"), st.sampled_from(DELAYS))
#: The steps a run is mostly made of: single-page random reads (all one
#: service time) and sleeps that end as one finishes.
PLAIN_STEPS = st.sampled_from(
    [("io", IoKind.RANDOM_READ, 0, 1, 1), ("sleep", READ)])
SCRIPTS = st.fixed_dictionaries({
    "channels": st.sampled_from((1, 2, 3)),
    # With an injector: when the device dies, if it does.
    "kill_at": st.sampled_from((None, None, 2 * READ, READ + WRITE)),
    "processes": st.lists(
        st.lists(st.one_of(PLAIN_STEPS, IO_STEPS, SLEEP_STEPS),
                 min_size=1, max_size=6),
        min_size=2, max_size=6),
})


class LoggedInjector(FaultInjector):
    """Writes each hook's call into ``log`` as it runs."""

    def __init__(self, env, device, rng, log):
        super().__init__(env, device, rng)
        self.log = log

    def _logged(self, hook, request, verdict):
        self.log.append((self.env.now, hook, request.kind.name,
                         request.address, request.npages, repr(verdict)))
        return verdict

    def pre_service_delay(self, request, service):
        return self._logged("stall", request,
                            super().pre_service_delay(request, service))

    def on_complete(self, request):
        return self._logged("complete", request, super().on_complete(request))


def run_script(script, make_ssd, kernel, faulted):
    """Run ``script``; return every wake-up, in order, with what the
    woken process could read off the device, then the device's books."""
    env = make_environment(kernel)
    ssd = make_ssd(env, channels=script["channels"])
    log = []
    if faulted:
        rng = random.Random("device-equivalence")
        injector = LoggedInjector(env, ssd, rng, log)
        injector.transient_p = injector.latency_p = 0.15
        injector.latency_factor = 2.0
        injector.stall_until = READ + WRITE
        if script["kill_at"] is not None:
            env.timeout(script["kill_at"]).callbacks.append(
                lambda _timer: injector.kill())

    def wait(ident, event):
        try:
            yield event
            outcome = "ok"
        except IoFault as fault:
            outcome = type(fault).__name__
        log.append((env.now, ident, outcome, ssd.pending))

    def process(ident, steps):
        for step in steps:
            if step[0] == "io":
                _, kind, frame, npages, burst = step
                events = [ssd.submit(IORequest(kind, frame + 8 * i, npages))
                          for i in range(burst)]
            else:
                events = [env.timeout(step[1])]
            for event in events:
                yield from wait(ident, event)

    env.spawn_all(process(ident, steps)
                  for ident, steps in enumerate(script["processes"]))
    env.run()
    assert ssd.pending == 0 and ssd.channels.busy == 0
    stats = ssd.stats
    log.append((stats.by_kind, stats.pages_by_kind, stats.busy_time))
    if faulted:
        log.append(rng.getstate())
    return log


@settings(deadline=None)
@given(script=SCRIPTS)
def test_ssd_wakes_waiters_where_the_hop_chain_did(script):
    for kernel in KERNELS:
        for faulted in (False, True):
            assert (run_script(script, Ssd, kernel, faulted)
                    == run_script(script, ReferenceSsd, kernel, faulted))


class EarlySsd(Ssd):
    """The mutant: ``done`` fires in the service timer's own pass, so its
    waiter resumes before this I/O — and any other finishing in the
    same instant — is accounted."""

    __slots__ = ()

    def _finish(self, request):
        done = request.done
        waiters, done.callbacks = done.callbacks, None
        done._ok, done._value = True, request
        for resume in waiters:
            resume(done)
        # The books, the channel and a stand-in ``done`` nobody waits on.
        request.done = Event(self.env)
        Device._finish(self, request)


#: Two reads start together on two channels and finish in one instant;
#: each waiter must read ``pending`` after both were accounted.
TOGETHER = {"channels": 2, "kill_at": None, "processes": [
    [("io", IoKind.RANDOM_READ, 0, 1, 1)],
    [("io", IoKind.RANDOM_READ, 1, 1, 1)]]}


def test_differential_catches_done_before_accounting():
    reference = run_script(TOGETHER, ReferenceSsd, "heap", False)
    assert [wake[3] for wake in reference[:2]] == [0, 0]
    assert run_script(TOGETHER, Ssd, "heap", False) == reference
    assert run_script(TOGETHER, EarlySsd, "heap", False) != reference
