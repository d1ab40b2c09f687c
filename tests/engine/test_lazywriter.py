"""Tests for the buffer pool's background lazy writer."""

from inspect import CO_GENERATOR

import pytest

import repro.sim.process as process_module
from repro.engine.buffer_pool import RESERVED
from repro.sim import Event
from tests.conftest import MiniSystem, drive, profiled, settle


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


    def test_clean_victim_the_ssd_holds_builds_nothing(self, monkeypatch):
        """DESIGN.md §13, "Steps": evicting a clean page the SSD already
        holds is a call — no process, no generator frame, no event (the
        reservation is a marker, not an event nobody waits on)."""
        sys_ = MiniSystem(design="DW", db_pages=2_000, bp_pages=64)
        env, bp, ssd = sys_.env, sys_.bp, sys_.ssd_manager

        def fill():
            for pid in range(bp.capacity - bp._low_water):
                frame = yield from bp.fetch(pid)
                bp.unpin(frame)

        drive(env, fill())
        settle(env)
        for frame in list(bp.frames.values()):
            drive(env, ssd.on_evict_clean(frame))  # cache the copy
        assert all(ssd.contains_valid(pid) for pid in bp.frames)
        built, events, generators = [], [], []
        monkeypatch.setattr(process_module.DetachedProcess, "_bind",
                            lambda self, env, generator: built.append(self))
        init = Event.__init__

        def counting_init(self, env):
            events.append(self)
            init(self, env)

        monkeypatch.setattr(Event, "__init__", counting_init)

        def profile(frame, event, _arg):
            if event == "call" and frame.f_code.co_flags & CO_GENERATOR:
                generators.append(frame.f_code.co_name)

        victim = bp._pick_victims(1)[0]
        victim.io_busy, victim.busy_reason = RESERVED, "eviction"
        bp._evicting += 1
        with profiled(profile):
            step = bp._evict(victim)
        assert step == ()
        assert (built, events, generators) == ([], [], [])
        assert victim.page_id not in bp.frames
        assert victim.io_busy is None and bp._evicting == 0
        assert bp.stats.evictions_clean == 1
        # The lazy writer's batches start no process either.
        bp._kick_lazywriter()
        settle(env)
        assert bp.stats.evictions_clean > 1
        assert built == []


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


class TestReservedVictim:
    @pytest.mark.parametrize("design,dirty", [
        ("noSSD", False), ("DW", False), ("LC", False), ("TAC", False),
        ("LC", True)])
    def test_fetch_between_reservation_and_eviction_waits_then_misses(
            self, design, dirty):
        """A fetch that arrives after the lazy writer reserved its victim
        but before the batch entry runs its eviction waits on the frame
        latch, then misses: its ``(now, step)`` log is pinned."""
        sys_ = MiniSystem(design=design, db_pages=2_000, bp_pages=64)
        env, bp = sys_.env, sys_.bp

        def fill():
            for pid in range(bp.capacity - bp._low_water):
                frame = yield from bp.fetch(pid)
                if dirty:
                    bp.mark_dirty(frame)
                bp.unpin(frame)

        drive(env, fill())
        settle(env)
        log = []

        def note(step, *details):
            stats = bp.stats
            log.append((round(env.now, 9), step, *details, stats.hits,
                        stats.misses, stats.ssd_hits, stats.disk_reads,
                        stats.latch_waits, stats.evictions_clean,
                        stats.evictions_dirty, bp.free_frames,
                        env._seq))

        def racer():
            bp._kick_lazywriter()
            note("kicked")
            # The lazy writer's wake-up was queued first: it reserves
            # its victims and queues their eviction entry behind us.
            yield env.timeout(0)
            reserved = sorted(page for page, frame in bp.frames.items()
                              if frame.busy_reason == "eviction")
            note("reserved", tuple(reserved))
            page = reserved[len(reserved) // 2]
            victim = bp.frames[page]
            frame = yield from bp.fetch(page)
            note("fetched", page, frame is victim, frame.version,
                 {reason: round(waited, 9) for reason, waited
                  in bp.stats.latch_wait_by_reason.items()})
            bp.unpin(frame)

        drive(env, racer())
        settle(env)
        note("settled")
        assert log == PINNED_RACE[design, dirty], log


#: The logs above, pinned while every eviction still built its busy event.
PINNED_RACE = {
    ("noSSD", False): [
        (5.070037791, "kicked", 0, 56, 0, 56, 0, 0, 0, 8, 285),
        (5.070037791, "reserved", (0, 1, 2, 3, 4, 5, 6, 7), 0, 56, 0, 56, 0,
         0, 0, 8, 287),
        (5.070341166, "fetched", 4, False, 0, {"eviction": 0.0}, 0, 57, 0,
         57, 1, 8, 0, 15, 294),
        (10.070341166, "settled", 0, 57, 0, 57, 1, 8, 0, 15, 295),
    ],
    ("DW", False): [
        (5.070037791, "kicked", 0, 56, 0, 56, 0, 0, 0, 8, 285),
        (5.070037791, "reserved", (0, 1, 2, 3, 4, 5, 6, 7), 0, 56, 0, 56, 0,
         0, 0, 8, 287),
        (5.071341015, "fetched", 4, False, 0, {"eviction": 0.000646517}, 0,
         57, 1, 56, 1, 8, 0, 15, 307),
        (10.071341015, "settled", 0, 57, 1, 56, 1, 8, 0, 15, 308),
    ],
    ("LC", False): [
        (5.070037791, "kicked", 0, 56, 0, 56, 0, 0, 0, 8, 286),
        (5.070037791, "reserved", (0, 1, 2, 3, 4, 5, 6, 7), 0, 56, 0, 56, 0,
         0, 0, 8, 288),
        (5.071341015, "fetched", 4, False, 0, {"eviction": 0.000646517}, 0,
         57, 1, 56, 1, 8, 0, 15, 308),
        (10.071341015, "settled", 0, 57, 1, 56, 1, 8, 0, 15, 309),
    ],
    ("TAC", False): [
        (5.070037791, "kicked", 0, 56, 0, 56, 0, 0, 0, 8, 509),
        (5.070037791, "reserved", (0, 1, 2, 3, 4, 5, 6, 7), 0, 56, 0, 56, 0,
         0, 0, 8, 511),
        (5.070694498, "fetched", 4, False, 0, {"eviction": 0.0}, 0, 57, 1,
         56, 1, 8, 0, 15, 515),
        (10.070694498, "settled", 0, 57, 1, 56, 1, 8, 0, 15, 516),
    ],
    ("LC", True): [
        (5.070037791, "kicked", 0, 56, 0, 56, 0, 0, 0, 8, 286),
        (5.070037791, "reserved", (0, 1, 2, 3, 4, 5, 6, 7), 0, 56, 0, 56, 0,
         0, 0, 8, 288),
        (5.080279562, "fetched", 4, False, 1, {"eviction": 0.009585064}, 0,
         57, 1, 56, 1, 0, 8, 15, 315),
        (10.080279562, "settled", 0, 57, 1, 56, 1, 0, 8, 15, 316),
    ],
}
