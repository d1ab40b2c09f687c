"""A power cut while clients sleep on the buffer pool's partition latch.

A latched TPC-C system (16 partitions, a 20 µs page-table access, LC
over a tiny SSD) runs closed-loop clients.  Each cut lands at an instant
where some client is asleep on a latch in the middle of a B-tree
descent.  Restart recovery must then find every committed version (the
oracle :meth:`System.recover` checks), and no client that ran before a
cut may ever run again: each client counts its resumptions under its
own epoch, and the count of a dead epoch must not move.

The system is built here, not through ``harness/crashpoints.py``: the
sweep has no latch knob.
"""

import random

import pytest

from repro.harness.experiments import (SCALE_PROFILES, make_system,
                                       make_workload)

TINY = SCALE_PROFILES["tiny"]

#: Virtual instants after which the next latched descent is cut.
CUTS = (0.6, 1.5, 2.7)
CLIENTS = 8


def _innermost(generator):
    """The code name of the innermost generator ``generator`` delegates to."""
    while getattr(generator.gi_yieldfrom, "gi_code", None) is not None:
        generator = generator.gi_yieldfrom
    return generator.gi_code.co_name


def _client(env, system, workload, rng, resumes, epoch, running, ident,
            cut):
    """Run TPC-C transactions until the power goes.

    Each transaction is driven by hand: whatever it yields is handed to
    the kernel unchanged, and every resumption after it is counted under
    ``epoch`` before the answer goes back in.  ``running`` maps the
    client to the transaction it is in, for the cut to look at.  The
    first client to fall asleep mid-descent at or after the epoch's cut
    instant triggers ``cut``.
    """
    while True:
        _, txn = workload.transaction(rng, system)
        running[ident] = txn
        value, failure = None, None
        while True:
            try:
                target = (txn.send(value) if failure is None
                          else txn.throw(failure))
            except StopIteration:
                break
            if (not cut.triggered and env.now >= CUTS[epoch]
                    and _innermost(txn) == "_fetch_leaf_frame"):
                cut.succeed()
            try:
                value, failure = (yield target), None
            except Exception as exc:  # noqa: BLE001 - handed back in
                value, failure = None, exc
            resumes[epoch] += 1
        running.pop(ident)
        yield env.timeout(rng.uniform(0.0, 0.002))


@pytest.mark.parametrize("kernel", ["heap", "wheel"])
def test_a_cut_mid_descent_loses_no_commit_and_wakes_no_dead_client(kernel):
    committed = {}
    workload = make_workload("tpcc", 300, TINY, oracle=committed)
    system = make_system("tpcc", workload, "LC", TINY, partitions=16,
                         latch_us=20.0, checkpoint_interval=1.0,
                         kernel=kernel)
    workload.setup(system)
    system.start_services()
    env = system.env
    resumes = {}
    frozen = {}
    for epoch, at in enumerate(CUTS):
        resumes[epoch] = 0
        running = {}
        cut = env.event()
        env.spawn_all(
            _client(env, system, workload,
                    random.Random(f"latched-crash:{epoch}:{ident}"),
                    resumes, epoch, running, ident, cut)
            for ident in range(CLIENTS))
        env.run(until=cut)
        asleep = [ident for ident, txn in running.items()
                  if _innermost(txn) == "_fetch_leaf_frame"]
        assert asleep, f"no client asleep mid-descent after cut {at}"
        assert system.bp.stats.partition_latch_waits > 0
        assert resumes[epoch] > 0
        frozen[epoch] = resumes[epoch]
        pages_committed = len(committed)
        system.crash()
        env.run(env.process(system.recover(committed)))
        assert len(committed) == pages_committed > 0
        # The recovered system serves the next epoch; no client of a
        # cut epoch runs meanwhile.
        env.run(until=env.now + 0.05)
        assert {e: resumes[e] for e in frozen} == frozen
    system.crash()
    env.run(env.process(system.recover(committed)))
    assert {e: resumes[e] for e in frozen} == frozen
