"""Tests for the buffer pool's background lazy writer."""

import repro.sim.process as process_module
from tests.conftest import MiniSystem, drive, settle


class TestCushion:
    def test_maintains_free_cushion_under_load(self):
        sys_ = MiniSystem(design="noSSD", db_pages=2_000, bp_pages=128)
        sys_.churn(accesses=2_000, write_fraction=0.3, span=2_000)
        # After load stops, the lazy writer restores the cushion.
        settle(sys_.env, 5.0)
        assert sys_.bp.free_frames >= sys_.bp._low_water

    def test_cushion_clamped_for_tiny_pools(self):
        sys_ = MiniSystem(design="noSSD", db_pages=100, bp_pages=8)
        assert sys_.bp._high_water <= sys_.bp.capacity // 2
        assert sys_.bp._high_water >= 2

    def test_no_eviction_while_pool_has_room(self):
        sys_ = MiniSystem(design="noSSD", db_pages=2_000, bp_pages=256)

        def proc():
            for pid in range(50):
                frame = yield from sys_.bp.fetch(pid)
                sys_.bp.unpin(frame)

        drive(sys_.env, proc())
        settle(sys_.env)
        assert sys_.bp.stats.evictions_clean == 0
        assert sys_.bp.stats.evictions_dirty == 0

    def test_clean_batch_costs_one_event_and_no_process(self, monkeypatch):
        """A batch of victims needing no write-out starts in one queue
        entry (it was one bootstrap per victim) and, every ``_evict``
        returning in its first step, allocates no process."""
        sys_ = MiniSystem(design="noSSD", db_pages=2_000, bp_pages=64)
        bp = sys_.bp

        def fill():
            # Down to the low-water mark, not below: no eviction yet.
            for pid in range(bp.capacity - bp._low_water):
                frame = yield from bp.fetch(pid)
                bp.unpin(frame)

        drive(sys_.env, fill())
        settle(sys_.env)
        assert bp.stats.evictions_clean == 0
        victims = bp._high_water - bp.free_frames
        assert victims > 1
        built = []
        monkeypatch.setattr(process_module.DetachedProcess, "_bind",
                            lambda self, env, generator: built.append(self))
        before = sys_.env._seq
        bp._kick_lazywriter()
        settle(sys_.env)
        assert bp.stats.evictions_clean == victims
        assert built == []
        # The kick's wake-up, the batch entry, and the wake-up the first
        # eviction's own kick schedules.
        assert sys_.env._seq - before == 3


class TestOverlap:
    def test_slow_dirty_writeout_does_not_serialize_eviction(self):
        """Evictions stream independently: total time to evict a batch
        of dirty pages must reflect overlapping disk writes, not their
        sum."""
        sys_ = MiniSystem(design="noSSD", db_pages=2_000, bp_pages=64)
        sys_.churn(accesses=600, write_fraction=1.0, span=2_000, workers=16)
        # 600 accesses over 64 frames => ~500 dirty evictions, each a
        # ~9 ms random write.  Serialized, the writes alone exceed 4 s;
        # overlapped on 8 drives the active phase is ~1 s.  (churn()
        # includes a 5 s settle after the workers finish.)
        active = sys_.env.now - 5.0
        assert sys_.bp.stats.evictions_dirty > 300
        assert active < 3.0

    def test_fetch_latency_not_inflated_by_dirty_evictions(self):
        """A miss should cost ~one disk read even when the pool is full
        of dirty pages (the lazy writer absorbs the write-out latency)."""
        sys_ = MiniSystem(design="noSSD", db_pages=2_000, bp_pages=64)
        sys_.churn(accesses=300, write_fraction=1.0, span=64)  # all dirty

        start = sys_.env.now

        def proc():
            frame = yield from sys_.bp.fetch(1_500)
            sys_.bp.unpin(frame)

        drive(sys_.env, proc())
        latency = sys_.env.now - start
        # One random read is ~8 ms; allow generous queueing headroom.
        assert latency < 0.15
