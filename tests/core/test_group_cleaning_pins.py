"""§3.3.5 group cleaning as the one round of every write-back design.

A sharp checkpoint, and every λ cleaner, writes dirty SSD pages back by
group batches: each gathers up to α dirty pages with consecutive disk
addresses and writes them to disk as one ``write_run``.  These cases pin
that for each design whose SSD can hold a page's only newest copy, and
what the λ cleaner counts while it does it.
"""

import pytest

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
