"""The wake order of one crowded instant, pinned on both kernels.

Two SSD reads start in one instant on two channels and finish on one
float; a process sleeping to that same float, zero and sub-ulp sleeps,
and a ``succeed`` chain fill the instant around their completions.
Every wake is logged with the clock, the sequence number (the count
``sim.events`` reports) and the SSD's ``pending``, so a kernel that
reorders anything in the instant, or schedules one entry more or less,
fails here.
"""

import pytest

from repro.sim import KERNELS, make_environment
from repro.storage import IoKind, IORequest, Ssd


def crowded_instant(kernel):
    env = make_environment(kernel)
    ssd = Ssd(env, channels=2)
    service = ssd.service_time(IORequest(IoKind.RANDOM_READ, 0))
    chain = [env.event() for _ in range(3)]
    log = []

    def note(who, got=None):
        log.append((env.now, who, got, env._seq, ssd.pending))

    def reader(n):
        got = yield ssd.submit(IORequest(IoKind.RANDOM_READ, n))
        note(f"read{n}", got.address)
        chain[n].succeed(n)
        yield 0.0
        note(f"read{n} after 0.0")

    def sleeper():
        yield service
        note("slept")
        yield 0.0
        note("slept 0.0")
        yield 5e-324  # below an ulp of the clock: the same instant
        note("slept sub-ulp")
        chain[2].succeed("last")

    def chained():
        for n, event in enumerate(chain):
            got = yield event
            note(f"chain{n}", got)

    env.process(reader(0))
    env.process(sleeper())
    env.process(reader(1))
    env.process(chained())
    env.run()
    return service, log


@pytest.mark.parametrize("kernel", KERNELS)
def test_two_reads_on_one_float_wake_in_the_pinned_order(kernel):
    service, log = crowded_instant(kernel)
    assert [entry[0] for entry in log] == [service] * 10
    assert [entry[1:] for entry in log] == [
        ("slept", None, 8, 1),
        ("read0", 0, 10, 0),
        ("slept 0.0", None, 12, 0),
        ("read1", 1, 13, 0),
        ("chain0", 0, 15, 0),
        ("read0 after 0.0", None, 15, 0),
        ("slept sub-ulp", None, 16, 0),
        ("chain1", 1, 18, 0),
        ("read1 after 0.0", None, 18, 0),
        ("chain2", "last", 19, 0),
    ]
