"""The rotating-SSD design (Holloway 2009), described in the paper's §5.

The SSD buffer pool is organised as a circular queue with a logical
``next_frame`` pointer.  Every page evicted from the memory buffer pool —
clean or dirty — is written to the frame under the pointer, which then
advances; whatever page occupied that frame is evicted, *even if it is
hot*.  If the displaced page's copy is newer than disk it is first
copied back to disk.  Only the frame is ROT's own (the one under the
pointer): the decision is write-back, and what a dirty SSD page obliges
and how a page is placed in a frame are the base manager's.

The design trades replacement quality for strictly sequential SSD write
behaviour (it was motivated by the poor random-write speed of early
consumer SSDs).  The paper notes the premise is obsolete on enterprise
SSDs — this implementation exists so that claim can be measured: on our
(enterprise-calibrated) SSD model the rotation costs hit rate without
buying meaningful write speed.
"""

from __future__ import annotations

from repro.core.ssd_manager import SsdManagerBase
from repro.storage.request import IoKind


class RotatingSsdManager(SsdManagerBase):
    """Rotating circular-queue SSD cache (write-back variant)."""

    __slots__ = ("_next_frame",)

    name = "ROT"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._next_frame = 0

    #: The decision (§2.3): write-back, every page leaving memory goes
    #: to the SSD.
    on_evict_dirty = SsdManagerBase._evict_write_back

    def _cache_page(self, page_id: int, version: int, dirty: bool,
                    rec_lsn: int = 0, ctx=None):
        """Process step: claim the frame under the pointer.

        Same contract as the base implementation, but the frame is not
        chosen by LRU-2: whatever sits under the pointer is displaced.
        """
        settled = self._cache_guard(self.table.lookup_valid(page_id),
                                    version, dirty)
        if settled is not None:
            return settled
        record = self.table.records[self._next_frame]
        self._next_frame = (self._next_frame + 1) % self.config.ssd_frames
        if (record.valid and record.dirty
                and record.version > self.disk.disk_version(record.page_id)):
            # The occupant's newest copy lives here: it goes to disk via
            # memory *before* it leaves the table, so a checkpoint or an
            # SSD death in the meantime still finds it dirty.
            copied = yield from self._copy_back(record, record.page_id,
                                                record.version, ctx=ctx)
            if not copied or self.detached:
                return False
            # Meanwhile another placement may have wrapped the pointer and
            # put a newer dirty page here: it is not displaced, this page
            # goes to disk instead.
            if (record.valid and record.dirty and record.version
                    > self.disk.disk_version(record.page_id)):
                return False
        # Only now displace, regardless of heat.  Both records are looked
        # at afresh: either may have been invalidated during the yield.
        if record.occupied:
            self.stats.evictions += 1
            self._drop_record(record)
        existing = self.table.lookup_valid(page_id)
        if existing is not None:
            self._drop_record(existing)
        self.table.take_frame(record.frame_no)
        # The whole point of the design: the SSD write is sequential.
        return (yield from self._place(record, page_id, version, dirty,
                                       rec_lsn, ctx, IoKind.SEQUENTIAL_WRITE))
