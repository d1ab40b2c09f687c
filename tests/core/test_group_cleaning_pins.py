"""§3.3.5 group cleaning as the one round of every write-back design.

A sharp checkpoint, and every λ cleaner, writes dirty SSD pages back by
group batches: each gathers up to α dirty pages with consecutive disk
addresses and writes them to disk as one ``write_run``.  These cases pin
that for each design whose SSD can hold a page's only newest copy, and
what the λ cleaner counts while it does it.
"""

import pytest

from repro.engine.page import Frame
from repro.storage.request import IoKind
from tests.conftest import MiniSystem, disk_ios, drive, settle
from tests.core.test_background_work import evict_dirty

#: The write-back designs: the SSD may hold a page's only newest copy.
WRITE_BACK = ["LC", "EXCL", "ROT", "LS"]


@pytest.mark.parametrize("design", WRITE_BACK)
def test_a_sharp_checkpoint_writes_alpha_consecutive_pages_as_one_run(design):
    """Eight consecutive dirty SSD pages, α = 8, no dirty page in the
    pool: the checkpoint's only disk write is one sequential run."""
    sys_ = MiniSystem(design=design, db_pages=600, bp_pages=48,
                      ssd_frames=100, dirty_threshold=0.9,
                      group_clean_pages=8, ls_segment_pages=16)
    manager = sys_.ssd_manager
    sys_.env.run(sys_.env.gather(
        evict_dirty(sys_, page) for page in range(10, 18)))
    settle(sys_.env, 0.1)
    assert manager.dirty_frames == 8
    assert disk_ios(sys_.disk, "write") == 0
    drive(sys_.env, sys_.checkpointer.checkpoint())
    kinds = sys_.disk.device.requests_by_kind
    assert kinds[IoKind.SEQUENTIAL_WRITE] == 1
    assert disk_ios(sys_.disk, "write") == 1
    assert manager.dirty_frames == 0
    assert manager.stats.checkpoint_ssd_flushes == 8
    assert [sys_.disk.disk_version(page) for page in range(10, 18)] == [1] * 8
    manager.check_invariants()


@pytest.mark.parametrize("design", ["LC", "LS"])
def test_the_lambda_cleaner_counts_its_pages_ios_and_crossings(design):
    """S = 100, λ = 0.2, slack 5 %, α = 32: the 21st dirty page crosses
    λ, and one batch writes all 21 consecutive pages back."""
    sys_ = MiniSystem(design=design, db_pages=600, bp_pages=48,
                      ssd_frames=100, dirty_threshold=0.2,
                      clean_slack=0.05, ls_segment_pages=16)
    manager = sys_.ssd_manager
    sys_.env.run(sys_.env.gather(
        evict_dirty(sys_, page) for page in range(21)))
    settle(sys_.env, 1.0)
    stats = manager.stats
    assert manager.dirty_frames == 0
    assert (stats.cleaner_pages, stats.cleaner_ios,
            stats.lambda_crossings) == (21, 1, 1)
    assert sys_.disk.device.requests_by_kind[IoKind.SEQUENTIAL_WRITE] == 1
    manager.check_invariants()


# ----------------------------------------------------------------------
# Ownership: a clean batch holds its pages until they land
# ----------------------------------------------------------------------

def record_runs(disk):
    """Log each ``write_run`` ``disk`` is asked for as its page list."""
    runs = []
    write_run = disk.write_run

    def logged(page_id, versions, ctx=None):
        runs.append(list(range(page_id, page_id + len(versions))))
        return write_run(page_id, versions, ctx)

    disk.write_run = logged
    return runs


def lc_with_dirty_pages(pages, **ssd):
    """An LC system whose SSD holds ``pages`` dirty (v1), λ out of reach."""
    sys_ = MiniSystem(design="LC", db_pages=600, bp_pages=48,
                      ssd_frames=100, dirty_threshold=0.9, **ssd)
    sys_.env.run(sys_.env.gather(evict_dirty(sys_, page) for page in pages))
    settle(sys_.env, 0.1)
    return sys_


def test_concurrent_checkpoint_batches_write_each_page_once():
    """Five consecutive dirty pages, α = 4, two batches at a time: the
    second batch must not extend into the first one's pages."""
    sys_ = lc_with_dirty_pages(range(10, 15), group_clean_pages=4,
                               cleaner_concurrency=2)
    runs = record_runs(sys_.disk)
    drive(sys_.env, sys_.checkpointer.checkpoint())
    written = sorted(page for run in runs for page in run)
    assert written == list(range(10, 15))
    assert sys_.ssd_manager.dirty_frames == 0
    sys_.ssd_manager.check_invariants()


def test_an_access_to_an_in_flight_page_leaves_it_with_its_batch():
    """A batch holds pages 10 and 11.  An SSD read of 10 and a clean
    eviction of 11 only stamp them: the dirty heap stays empty, a second
    batch finds nothing, and each page is written once."""
    sys_ = lc_with_dirty_pages([10, 11], group_clean_pages=4)
    env, manager = sys_.env, sys_.ssd_manager
    runs = record_runs(sys_.disk)
    first = env.process(manager._clean_batch())
    env.run(until=env.now + 1e-6)       # the batch's SSD reads are out
    assert manager.dirty_heap.live_count == 0
    assert manager.start_read(10) is not None
    assert manager.on_evict_clean(Frame(11, version=1)) == ()
    assert manager.dirty_heap.live_count == 0
    second = env.process(manager._clean_batch())
    env.run(env.all_of([first, second]))
    assert (first.value, second.value) == (2, 0)
    assert runs == [[10, 11]]
    assert manager.dirty_frames == 0
    manager.check_invariants()


def test_no_ls_copy_back_runs_before_the_restart_rule(monkeypatch):
    """An LS crash above λ: the replayed dirty entries are settled by
    ``on_restart`` (here all clean hits), not copied back by a cleaner
    that started before it."""
    sys_ = MiniSystem(design="LS", db_pages=600, bp_pages=48,
                      ssd_frames=100, dirty_threshold=0.2,
                      clean_slack=0.05, ls_segment_pages=16)
    env, manager = sys_.env, sys_.ssd_manager
    pages = range(0, 60, 2)
    for page in pages:
        sys_.wal.append(page, 1)
    env.run(env.process(sys_.wal.force(sys_.wal.tail_lsn)))
    env.run(env.gather(evict_dirty(sys_, page) for page in pages))
    sys_.crash()
    assert manager.dirty_frames == 30    # above λ·S = 20
    events = []
    write_run = sys_.disk.write_run

    def logged(page_id, versions, ctx=None):
        events.append("write_run")
        return write_run(page_id, versions, ctx)

    sys_.disk.write_run = logged
    on_restart = type(manager).on_restart

    def restart_rule(self):
        events.append("on_restart")
        on_restart(self)

    monkeypatch.setattr(type(manager), "on_restart", restart_rule)
    env.run(env.process(sys_.recover()))
    settle(env, 1.0)
    assert events == ["on_restart"]
    assert manager.dirty_frames == 0
    manager.check_invariants()


@pytest.mark.xfail(strict=True, reason="no latch orders a group-clean run "
                   "against an eviction's disk write of the same page")
def test_the_disk_never_receives_an_older_version_after_a_newer():
    """Page 7 is in a checkpoint batch's run as v6, whose fragment on
    the second drive queues behind five reads.  Meanwhile the page is
    re-dirtied and evicted as v7, which goes to disk (no dirty page
    enters the SSD while a checkpoint runs) and lands first.  The
    landings are logged before ``DiskManager``'s monotone guard sees
    them: the stale v6 must never reach the disk after v7."""
    sys_ = MiniSystem(design="LC", db_pages=600, bp_pages=48,
                      ssd_frames=100, dirty_threshold=0.9,
                      group_clean_pages=8)
    env, manager, disk = sys_.env, sys_.ssd_manager, sys_.disk
    env.run(env.gather(evict_dirty(sys_, page, version=6)
                       for page in range(6, 10)))
    settle(env, 0.1)
    assert [disk.device.disk_of(page) for page in range(6, 10)] == [0, 0,
                                                                    1, 1]
    landings = []
    persist = disk._persist

    def logged(page_id, version):
        landings.append((page_id, version))
        persist(page_id, version)

    disk._persist = logged
    for page in range(72, 392, 64):     # drive 1, ahead of the run
        env.process(disk.read(page))
    checkpoint = env.process(sys_.checkpointer.checkpoint())
    while not sys_.ssd_device.pending:
        env.run(until=env.now + 1e-5)   # the batch's SSD reads are out
    while sys_.ssd_device.pending:
        env.run(until=env.now + 1e-5)   # they landed: the run is out
    manager.invalidate(7)
    frame = Frame(7, version=7)
    frame.dirty = True
    env.process(manager.on_evict_dirty(frame))
    env.run(checkpoint)
    settle(env, 1.0)
    assert disk.disk_version(7) == 7
    received = [version for page, version in landings if page == 7]
    assert received == sorted(received)
