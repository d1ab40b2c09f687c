"""The SSD manager's bookkeeping structures (the paper's Figure 4).

* **SSD buffer pool** — S page-sized frames on the SSD device itself; in
  this reproduction the device stores no payload, so each record carries
  the version number of the page cached in its frame.
* **SSD buffer table** — an array of S records (page id, dirty bit, last
  two access times, …), one per frame.
* **SSD hash table** — page id → record, for O(1) lookups.
* **SSD free list** — records whose frames are unoccupied.

Partitioning (§3.3.4) assigns each frame to one of N partitions; the hash
table is shared while the buffer table segments and heaps are per
partition in the paper.  The contention the partitions remove is not
modelled here (a documented simplification); N also shards the
main-memory buffer pool, where it is (``SystemConfig.bp_latch_us``).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterator, List, Optional


class SsdRecord:
    """One SSD buffer-table record, corresponding to one SSD frame."""

    __slots__ = ("frame_no", "page_id", "valid", "dirty", "version",
                 "rec_lsn", "last_access", "prev_access")

    def __init__(self, frame_no: int):
        self.frame_no = frame_no
        self.reset()

    @property
    def occupied(self) -> bool:
        """Whether the frame holds any page image (valid or invalidated)."""
        return self.page_id is not None

    def holds(self, page_id: int, version: int) -> bool:
        """Whether the record still caches exactly this page version.

        The question every step asks after an I/O it yielded on: the
        record may have been invalidated, or reused for another page,
        while the transfer was in flight.
        """
        return (self.valid and self.page_id == page_id
                and self.version == version)

    def lru2_key(self) -> float:
        """Replacement priority: penultimate access time (LRU-2)."""
        return self.prev_access

    def record_access(self, now: float) -> None:
        """Push the LRU-2 access history."""
        self.prev_access = self.last_access
        self.last_access = now

    def reset(self) -> None:
        """The record's free state: as built, and as released."""
        self.page_id: Optional[int] = None
        self.valid = False
        #: Set when the SSD copy may be newer than the disk copy (LC).
        self.dirty = False
        #: recLSN of the dirty content (for fuzzy-checkpoint truncation).
        self.rec_lsn = -1
        #: Version of the page content stored in this SSD frame.
        self.version = -1
        # LRU-2 history of accesses to the cached page *on the SSD*.
        self.last_access = 0.0
        self.prev_access = float("-inf")

    def __repr__(self) -> str:
        state = ("free" if not self.occupied else
                 f"page={self.page_id} v{self.version}"
                 f"{' dirty' if self.dirty else ''}"
                 f"{'' if self.valid else ' INVALID'}")
        return f"<SsdRecord #{self.frame_no} {state}>"


class SsdBufferTable:
    """Buffer table + hash table + free list over S SSD frames."""

    __slots__ = ("nframes", "records", "_free", "_hash", "_valid", "_dirty",
                 "segment_pages", "segment_valid")

    def __init__(self, nframes: int, segment_pages: int = 0):
        if nframes < 0:
            raise ValueError(f"nframes must be >= 0, got {nframes}")
        self.nframes = nframes
        #: Frames per log segment (0: the table is one segment) and the
        #: valid copies in each, tallied where ``_valid`` is: LS reclaims
        #: the closed segment with the fewest without scanning any.
        self.segment_pages = max(1, min(segment_pages or nframes,
                                        nframes or 1))
        self.segment_valid = [0] * -(-nframes // self.segment_pages)
        self.records: List[SsdRecord] = [SsdRecord(i) for i in range(nframes)]
        self._free: Deque[int] = deque(range(nframes))
        self._hash: Dict[int, SsdRecord] = {}
        # Incremental counters (kept exact by install/revalidate/release/
        # set_dirty/invalidate_logical) so occupancy queries are O(1).
        self._valid = 0
        self._dirty = 0

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------

    def lookup(self, page_id: int) -> Optional[SsdRecord]:
        """The record caching ``page_id`` (valid or invalidated), if any."""
        return self._hash.get(page_id)

    def lookup_valid(self, page_id: int) -> Optional[SsdRecord]:
        """The record caching a *valid* copy of ``page_id``, if any."""
        record = self._hash.get(page_id)
        return record if record is not None and record.valid else None

    # ------------------------------------------------------------------
    # Occupancy
    # ------------------------------------------------------------------

    @property
    def free_count(self) -> int:
        """Frames on the free list."""
        return len(self._free)

    @property
    def used_count(self) -> int:
        """Occupied frames (valid or logically invalidated)."""
        return self.nframes - len(self._free)

    @property
    def valid_count(self) -> int:
        """Frames holding valid page copies."""
        return self._valid

    @property
    def invalid_count(self) -> int:
        """Occupied frames holding logically invalidated pages (TAC waste)."""
        return self.used_count - self._valid

    @property
    def dirty_count(self) -> int:
        """Valid frames whose copy may be newer than disk."""
        return self._dirty

    def occupied_records(self) -> Iterator[SsdRecord]:
        """Iterate over records whose frames hold a page image."""
        return (r for r in self.records if r.occupied)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def take_free(self) -> Optional[SsdRecord]:
        """Pop a record off the free list, or None if the SSD is full."""
        if not self._free:
            return None
        return self.records[self._free.popleft()]

    def take_frame(self, frame_no: int) -> SsdRecord:
        """Claim a *specific* free frame (the rotating design's pointer)."""
        record = self.records[frame_no]
        if record.occupied:
            raise ValueError(f"{record!r} is not free")
        if self._free and self._free[-1] == frame_no:
            # ROT claims the frame it released a line earlier: the right
            # end, where a left-to-right remove() walks the whole list.
            self._free.pop()
        else:
            self._free.remove(frame_no)
        return record

    def install(self, record: SsdRecord, page_id: int, version: int,
                dirty: bool, now: float, rec_lsn: int = -1) -> None:
        """Bind ``record`` (taken from the free list or evicted) to a page."""
        if record.occupied:
            raise ValueError(f"installing over occupied {record!r}")
        record.page_id = page_id
        record.version = version
        record.valid = True
        record.dirty = dirty
        record.rec_lsn = rec_lsn if dirty else -1
        record.last_access = now
        record.prev_access = float("-inf")
        self._hash[page_id] = record
        self._valid += 1
        self.segment_valid[record.frame_no // self.segment_pages] += 1
        if dirty:
            self._dirty += 1

    def revalidate(self, record: SsdRecord, version: int, now: float) -> None:
        """Make an invalidated record valid again with fresh content.

        TAC re-writes a dirty evicted page into the SSD frame still holding
        its logically invalidated old version (§2.5 page flow, step iv).
        """
        if not record.occupied or record.valid:
            raise ValueError(f"revalidating {record!r}")
        record.version = version
        record.valid = True
        record.dirty = False
        record.record_access(now)
        self._valid += 1
        self.segment_valid[record.frame_no // self.segment_pages] += 1

    def set_dirty(self, record: SsdRecord, dirty: bool) -> None:
        """Flip a valid record's dirty bit, keeping counters exact."""
        if record.dirty == dirty:
            return
        record.dirty = dirty
        if not dirty:
            record.rec_lsn = -1
        self._dirty += 1 if dirty else -1

    def release(self, record: SsdRecord) -> None:
        """Free a record's frame entirely (physical invalidation)."""
        if not record.occupied:
            raise ValueError(f"releasing free {record!r}")
        if record.valid:
            self._valid -= 1
            self.segment_valid[record.frame_no // self.segment_pages] -= 1
            if record.dirty:
                self._dirty -= 1
        # The hash may already point at a *newer* record for the same
        # page (the LS log supersedes entries in place and frees the old
        # one only when its segment is reclaimed) — only unlink the hash
        # entry if it is ours.
        if self._hash.get(record.page_id) is record:
            del self._hash[record.page_id]
        record.reset()
        self._free.append(record.frame_no)

    def invalidate_logical(self, record: SsdRecord) -> None:
        """Mark invalid without freeing the frame (TAC's invalidation)."""
        if record.valid:
            self._valid -= 1
            self.segment_valid[record.frame_no // self.segment_pages] -= 1
            if record.dirty:
                self._dirty -= 1
        record.valid = False
        record.dirty = False

    def clear(self) -> None:
        """Drop every mapping (cold restart)."""
        for record in self.records:
            record.reset()
        self._free = deque(range(self.nframes))
        self._hash.clear()
        self._valid = 0
        self._dirty = 0
        self.segment_valid = [0] * len(self.segment_valid)

    def check_invariants(self) -> None:
        """Assert the incremental tallies equal a scan of the records."""
        scan = [sum(record.valid for record in
                    self.records[start:start + self.segment_pages])
                for start in range(0, self.nframes, self.segment_pages)]
        assert self.segment_valid == scan and sum(scan) == self._valid, (
            f"{self._valid} valid copies tallied, {self.segment_valid} by "
            f"segment; the segments hold {scan}")
