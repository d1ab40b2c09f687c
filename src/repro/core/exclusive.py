"""The exclusive multi-level caching design (Koltsidas & Viglas 2009),
described in the paper's §5.

A page never exists in both the memory buffer pool and the SSD:

* when a page is read from the SSD into memory, the SSD copy is removed
  (its frame freed);
* when a page is evicted from the memory pool, it is written to the SSD
  (clean or dirty — the SSD may hold the newest copy, so it shares every
  write-back obligation the base manager keeps).

Exclusivity maximises the *combined* cache capacity (no duplication) but
pays an SSD write on every re-admission: a page bouncing between the
levels is written to the SSD each time it leaves memory, where the
inclusive designs find their copy still cached.  The design-comparison
benchmark measures that trade.
"""

from __future__ import annotations

from repro.core.ssd_manager import SsdManagerBase


class ExclusiveSsdManager(SsdManagerBase):
    """Exclusive two-level cache: memory and SSD hold disjoint pages."""

    __slots__ = ()

    name = "EXCL"

    def _read_record(self, record, ctx=None):
        """Serve the read, then *remove* the SSD copy (exclusivity).

        If the SSD held the newest copy, the caller's memory frame now
        holds it: the buffer pool marks that frame dirty, the WAL still
        protects it, and eviction will rewrite it to the SSD or disk.
        """
        page_id = record.page_id
        version = yield from super()._read_record(record, ctx=ctx)
        # Drop only after the read, and only if the record still maps
        # this page: a concurrent replacement may have reused the frame
        # while the read (and any retries) ran.
        if version is None or not record.holds(page_id, version):
            return version
        # The hand-over exception: a newest copy read *while a checkpoint
        # runs* stays in the SSD.  The checkpoint took its snapshot of
        # dirty memory frames before this read, so a copy handed to
        # memory now would be flushed by nobody before the log is cut;
        # left here it is still dirty in the table, which is what
        # on_checkpoint drains.
        if not (self._checkpointing()
                and version > self.disk.disk_version(page_id)):
            self._drop_record(record)
        return version

    #: The decision (§2.3): write-back, every page leaving memory goes
    #: to the SSD.
    on_evict_dirty = SsdManagerBase._evict_write_back
