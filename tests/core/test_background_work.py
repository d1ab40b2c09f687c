"""The SSD tier's maintenance loops, one direct case each.

The golden traces reach these loops only where a run happens to: the
cases below script the round that stalls, the wake-up that arrives late
and the faults that stop, so each loop's reaction is asserted on its
own.  Everything is driven through the public hooks (``on_evict_dirty``,
``invalidate``, ``on_checkpoint``) or the admission path the other LS
tests already use.
"""

import pytest

from repro.engine.page import Frame
from repro.faults.errors import RETRY_LIMIT
from repro.storage.request import IoKind
from tests.conftest import MiniSystem, disk_ios, drive, settle
from tests.core.test_ssd_manager import ScriptedFaults


def evict_dirty(sys_, page_id, version=1):
    """Process step: one dirty page leaves the pool."""
    frame = Frame(page_id, version=version)
    frame.dirty = True
    return sys_.ssd_manager.on_evict_dirty(frame)


class TestLambdaCleaner:
    """S = 100, λ = 0.2, slack 5 %: wakes above 20 dirty frames, drains
    to 15."""

    @staticmethod
    def system(design):
        return MiniSystem(design=design, db_pages=600, bp_pages=48,
                          ssd_frames=100, dirty_threshold=0.2,
                          clean_slack=0.05, ls_segment_pages=16)

    @pytest.mark.parametrize("design", ["LC", "LS"])
    def test_sleeps_at_the_threshold_and_drains_to_the_target(self, design):
        sys_ = self.system(design)
        manager = sys_.ssd_manager
        config = manager.config
        assert (config.dirty_limit_frames, config.clean_target_frames) == (
            20, 15)
        sys_.env.run(sys_.env.gather(
            evict_dirty(sys_, page) for page in range(20)))
        settle(sys_.env, 1.0)
        assert manager.dirty_frames == 20       # at λ, not above: asleep
        assert disk_ios(sys_.disk, "write") == 0
        assert sys_.disk.device.pending == 0
        drive(sys_.env, evict_dirty(sys_, 20))
        settle(sys_.env, 1.0)
        assert manager.dirty_frames <= 15
        for page in range(21):                  # cleaned means on disk
            record = manager.table.lookup_valid(page)
            assert record.dirty == (sys_.disk.disk_version(page) == 0)
        manager.check_invariants()

    def test_lc_woken_between_target_and_limit_still_drains(self):
        """The wake-up is sent above λ; by the time the cleaner runs, an
        invalidation has taken the count back to λ.  LC resumes its
        drain all the same and goes down to the target."""
        sys_ = self.system("LC")
        manager = sys_.ssd_manager
        sys_.env.run(sys_.env.gather(
            evict_dirty(sys_, page) for page in range(20)))

        def cross_and_fall_back():
            yield from evict_dirty(sys_, 20)    # 21 dirty: wake-up sent
            manager.invalidate(0)               # same step: back to 20

        drive(sys_.env, cross_and_fall_back())
        assert manager.dirty_frames == 20
        settle(sys_.env, 1.0)
        assert manager.dirty_frames <= 15
        assert manager.stats.lambda_crossings == 1


class TestLsDirtyCleaner:
    def test_a_wave_whose_copy_backs_all_fail_backs_off_then_drains(self):
        """Every disk write of the first four rounds is abandoned (its
        retry budget runs out): the entries stay dirty and in the dirty
        heap, the cleaner keeps trying, and once the faults stop it
        drains; a checkpoint then finds the rest in the heap.

        α = 4 and one batch a round: a round is one 4-page run."""
        sys_ = MiniSystem(design="LS", db_pages=600, bp_pages=48,
                          ssd_frames=100, dirty_threshold=0.2,
                          clean_slack=0.05, ls_segment_pages=16,
                          cleaner_concurrency=1, group_clean_pages=4)
        manager = sys_.ssd_manager
        # Four rounds of one run each, every attempt failing.
        injector = ScriptedFaults(sys_.data_device,
                                  failures=4 * (RETRY_LIMIT + 1))
        sys_.env.run(sys_.env.gather(
            evict_dirty(sys_, page) for page in range(21)))
        assert manager.dirty_frames == 21
        settle(sys_.env, 5.0)
        assert injector.failures == 0
        assert sys_.disk.retries == 4 * (RETRY_LIMIT + 1)
        # Two more rounds land a run each: 21 -> 17 -> 13 <= 15.
        assert manager.dirty_frames == 13
        assert (manager.stats.cleaner_pages, manager.stats.cleaner_ios) == (
            8, 2)
        kinds = sys_.disk.device.requests_by_kind
        assert kinds[IoKind.SEQUENTIAL_WRITE] == 2
        for page in range(21):
            record = manager.table.lookup_valid(page)
            assert record.dirty == (sys_.disk.disk_version(page) == 0)
        # What stayed dirty is filed in the dirty heap, exactly.
        assert manager.dirty_heap.live_count == 13
        manager.check_invariants()
        drive(sys_.env, manager.on_checkpoint())
        assert manager.dirty_frames == 0
        assert manager.stats.checkpoint_ssd_flushes == 13


class TestLsLogSpace:
    def test_a_log_that_cannot_free_a_slot_raises_after_the_limit(
            self, monkeypatch):
        """The foreground drain an admission batch waits in fails loudly
        instead of spinning: ``_STALL_LIMIT`` rounds, 1 ms apart."""
        sys_ = MiniSystem(design="LS", db_pages=600, bp_pages=48,
                          ssd_frames=32, ls_segment_pages=16,
                          ls_batch_pages=4)
        manager = sys_.ssd_manager
        for page in range(4):
            drive(sys_.env, manager._cache_page(page, 1, False))
        # Cleaning finds no victim: no round frees anything.
        monkeypatch.setattr(type(manager), "_pick_victim", lambda self: None)
        started = sys_.env.now
        with pytest.raises(RuntimeError, match="LS reclaim stalled") as info:
            drive(sys_.env, manager._ensure_log_space(64))
        assert str(manager._STALL_LIMIT) in str(info.value)
        assert sys_.env.now - started == pytest.approx(
            (manager._STALL_LIMIT - 1) * 0.001)


class TestDrain:
    """``SsdManagerBase._drain`` itself, with scripted rounds."""

    @staticmethod
    def scripted(manager, progress):
        """pending / round_ over a script of per-round progress values;
        the work is done when the script runs out."""
        script = list(progress)
        rounds = []

        def round_():
            rounds.append(manager.env.now)
            yield manager.env.timeout(0.0005)
            return script.pop(0)

        return (lambda: bool(script)), round_, rounds

    def test_progress_resets_the_stall_count(self):
        manager = MiniSystem(design="CW").ssd_manager
        almost = [0] * (manager._STALL_LIMIT - 1)
        pending, round_, rounds = self.scripted(manager, almost + [3] + almost)
        counts = []
        drive(manager.env, manager._drain(
            pending, round_,
            lambda count: counts.append(count) or manager._give_up(count)))
        assert counts == 2 * list(range(1, manager._STALL_LIMIT))
        # Every empty round backed off 1 ms; the one that progressed did
        # not.
        assert len(rounds) == 2 * manager._STALL_LIMIT - 1
        assert manager.env.now == pytest.approx(
            len(rounds) * 0.0005 + len(counts) * 0.001)

    def test_the_limit_raises_with_the_tally(self):
        manager = MiniSystem(design="CW").ssd_manager
        pending, round_, rounds = self.scripted(manager, [0] * 100)
        with pytest.raises(RuntimeError, match=(
                f"stalled: {manager._STALL_LIMIT} rounds without progress")):
            drive(manager.env, manager._drain(pending, round_))
        assert len(rounds) == manager._STALL_LIMIT

    def test_a_background_loop_never_gives_up(self):
        manager = MiniSystem(design="CW").ssd_manager
        pending, round_, rounds = self.scripted(manager, [0] * 100 + [1])
        drive(manager.env, manager._drain(pending, round_,
                                          manager._keep_trying))
        assert len(rounds) == 101

    @pytest.mark.parametrize("wait_detach", [False, True])
    def test_ssd_death_ends_it(self, wait_detach):
        sys_ = MiniSystem(design="LC", db_pages=600, bp_pages=48,
                          ssd_frames=100, dirty_threshold=0.9)
        manager, env = sys_.ssd_manager, sys_.env
        for page in range(5):       # something for the detach to redo
            lsn = sys_.wal.append(page, 1)
            frame = Frame(page, version=1)
            frame.dirty, frame.rec_lsn = True, lsn
            drive(env, manager.on_evict_dirty(frame))
        env.process(manager.detach())
        env.run(until=env.now + 1e-9)       # the detach has begun
        assert manager.detached and manager.used_frames == 5
        started = env.now
        pending, round_, rounds = self.scripted(manager, [1] * 10)
        drive(env, manager._drain(pending, round_, wait_detach=wait_detach))
        assert rounds == []
        if wait_detach:
            assert env.now > started and manager.used_frames == 0
            assert manager.stats.detach_redo_pages == 5
        else:
            assert env.now == started and manager.used_frames == 5
