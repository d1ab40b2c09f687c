"""Concurrent group cleaning owns its pages (§3.3.5).

A valid dirty SSD record has one owner: the dirty heap, or the group
batch that has it in flight until the batch lands or fails.  Random
pool schedules — updates that dirty and invalidate pages, SSD reads,
clean and dirty evictions through a small pool, checkpoints — run over
every write-back design with 1 to 4 batches a round and α from 1 to 8.
Every batch's claims are tracked while it is in flight: no page version
may be claimed by two at once (a page re-dirtied and admitted again is
a newer version, a record of its own).  At each quiescent point the
manager's invariants, the ownership rule among them, must hold.
"""

import contextlib
import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SsdDesignConfig
from repro.core.ssd_manager import SsdManagerBase
from repro.harness.system import System, SystemConfig
from tests.conftest import drive, settle


@contextlib.contextmanager
def tracked_claims():
    """Log every page version a group batch claims while another batch
    has it in flight; yields that list of double claims."""
    in_flight = Counter()
    starting = []
    doubled = []
    gather, batch = SsdManagerBase._gather_group, SsdManagerBase._clean_batch

    def tracked_gather(self):
        group = gather(self)
        claims = [(record.page_id, record.version) for record in group]
        doubled.extend(claim for claim in claims if in_flight[claim] > 0)
        in_flight.update(claims)
        starting.pop().extend(claims)
        return group

    def tracked_batch(self):
        claims = []
        starting.append(claims)   # the batch gathers before it yields
        try:
            return (yield from batch(self))
        finally:
            in_flight.subtract(claims)

    SsdManagerBase._gather_group = tracked_gather
    SsdManagerBase._clean_batch = tracked_batch
    try:
        yield doubled
    finally:
        SsdManagerBase._gather_group = gather
        SsdManagerBase._clean_batch = batch


def worker(system, rng, steps):
    """One client: reads, updates and now and then a checkpoint."""
    pool = system.bp
    for _ in range(steps):
        action = rng.random()
        if action < 0.93:
            frame = yield from pool.fetch(rng.randrange(160))
            if action < 0.45:
                pool.mark_dirty(frame)
            pool.unpin(frame)
        else:
            yield from system.checkpointer.checkpoint()


# 100 scripts in tier-1 (about 8 s), 1,000 under
# ``--hypothesis-profile=thorough`` (CI's chaos smoke).
@settings(deadline=None)
@given(design=st.sampled_from(["LC", "LS", "EXCL", "ROT"]),
       concurrency=st.integers(min_value=1, max_value=4),
       alpha=st.integers(min_value=1, max_value=8),
       dirty_threshold=st.sampled_from([0.05, 0.2, 0.6]),
       seed=st.integers(min_value=0, max_value=10_000))
def test_concurrent_group_cleaning_owns_its_pages(design, concurrency, alpha,
                                                  dirty_threshold, seed):
    rng = random.Random(seed)
    system = System(SystemConfig(
        design=design, db_pages=300, bp_pages=16, slack_pages=0,
        ssd=SsdDesignConfig(ssd_frames=64, dirty_threshold=dirty_threshold,
                            cleaner_concurrency=concurrency,
                            group_clean_pages=alpha, ls_segment_pages=8,
                            ls_batch_pages=4)))
    env, manager = system.env, system.ssd_manager
    with tracked_claims() as doubled:
        for _ in range(3):
            env.run(env.gather(worker(system, rng, 40) for _ in range(4)))
            settle(env, 1.0)
            assert doubled == []
            manager.check_invariants()
        drive(env, system.checkpointer.checkpoint())
        settle(env, 1.0)
    assert doubled == []
    assert manager.dirty_frames == 0
    manager.check_invariants()
