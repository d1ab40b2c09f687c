"""Victim-selection heaps for the SSD manager (the paper's Figure 4).

The paper keeps one array holding two heaps: a *clean heap* growing from
the left (root = oldest clean page, the replacement victim) and a *dirty
heap* growing from the right (root = oldest dirty page, the next page the
LC cleaner writes back).  Both are ordered by the SSD replacement policy
(LRU-2).

The reproduction implements each heap as a lazy binary heap: a frame is
filed once, a later push only records its new ``(key, stamp)``, and the
filed entry is re-keyed when it surfaces at pop time (DESIGN.md §13).
An SSD access tells no heap at all: it stamps the record
(``SsdRecord.record_access``), and an LRU-2 heap reads the stamp when
the entry surfaces, as if the access had been pushed.  The observable
behaviour — which record is selected — is identical to the paper's
in-place structure (and to ``tests/core/reference_heap.py``, which
re-files on every push and every access); only the memory layout
differs.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

from repro.core.ssd_buffer_table import SsdRecord


class LazyMinHeap:
    """A min-heap of SSD records with lazy re-keying and deletion.

    ``key`` extracts the ordering value from a record (LRU-2 penultimate
    access time for the clean/dirty heaps, extent temperature for TAC);
    equal keys come out in push order.  ``member`` decides at pop time
    whether a record still belongs to this heap; entries that fail it,
    or that no frame owns any more, are dropped silently.  ``clock``
    ticks the stamps of pushes and of accesses alike (the table's
    ``next_stamp``).  ``touched``: a member's access after its last push
    counts as a push (the LRU-2 heaps; TAC's key is no access time).
    """

    #: Compaction floor: below this many stale entries the heap is left
    #: alone, so small heaps never pay the rebuild.
    MIN_COMPACT = 64

    def __init__(self, key: Callable[[SsdRecord], float],
                 member: Callable[[SsdRecord], bool],
                 clock: Callable[[], int], touched: bool = False) -> None:
        self._key = key
        self._member = member
        self._clock = clock
        self._touched = touched
        #: Always-on vitals: real ``heappush``es, entries re-keyed as
        #: they surfaced, whole-heap rebuilds.
        self.heappushes = self.rekeys = self.compactions = 0
        self.clear()

    def __len__(self) -> int:
        """Entries in the binary heap: the live ones plus garbage."""
        return len(self._heap)

    def __contains__(self, record: SsdRecord) -> bool:
        """Whether ``record``'s frame is filed here: a pop comes to it."""
        frame_no = record.frame_no
        return frame_no < len(self._stamps) and self._stamps[frame_no] != 0

    @property
    def live_count(self) -> int:
        """Records currently considered members of this heap."""
        return self._live

    def push(self, record: SsdRecord) -> None:
        """(Re)insert a record with its current key."""
        stamp = self._clock()
        frame_no = record.frame_no
        key = self._key(record)
        stamps = self._stamps
        if frame_no >= len(stamps):
            grow = frame_no + 1 - len(stamps)
            self._keys += [0.0] * grow
            for column in (stamps, self._filed, self._seen):
                column += [0] * grow
        self._seen[frame_no] = stamp
        if not stamps[frame_no]:
            self._live += 1
        elif key >= self._keys[frame_no]:
            # Filed already, at a key no higher than this one: the entry
            # holds the frame's place until it surfaces.
            self._keys[frame_no] = key
            stamps[frame_no] = stamp
            return
        # No entry yet, or the key went *down* (the frame changed hands
        # without a remove; TAC's key may fall): the filed entry would
        # surface too late, so it becomes garbage.
        self._keys[frame_no] = key
        stamps[frame_no] = self._filed[frame_no] = stamp
        heapq.heappush(self._heap, (key, stamp, record))
        self.heappushes += 1
        self._shed_garbage()

    def _shed_garbage(self) -> None:
        """Rebuild the heap from the filed entries, dropping the rest.

        Without this, every remove and every lowered key leaves a dead
        tuple behind and each pop wades through the garbage.  Rebuilding
        is O(live) and amortized free because it only runs once the
        garbage outnumbers the live entries; it is tried wherever that
        ratio worsens, so the bound always holds.
        """
        if len(self._heap) - self._live > max(self.MIN_COMPACT, self._live):
            filed = self._filed
            self._heap = [entry for entry in self._heap
                          if filed[entry[2].frame_no] == entry[1]]
            heapq.heapify(self._heap)
            self.compactions += 1

    def _forget(self, frame_no: int) -> None:
        """The frame leaves the heap; its entry, if still filed, is garbage."""
        self._stamps[frame_no] = self._filed[frame_no] = 0
        self._live -= 1
        self._shed_garbage()

    def remove(self, record: SsdRecord) -> None:
        """Lazily remove a record (its entry becomes garbage)."""
        if record in self:
            self._forget(record.frame_no)

    def take_in(self, record: SsdRecord) -> None:
        """Count a filed record's latest access, if this heap has not
        seen it: as a push if the record is a member, else not at all.
        The manager calls it before a record stops being a member (a
        dirty page cleaned), so an access counts where it was made."""
        frame_no, stamp = record.frame_no, record.lru_stamp
        if (self._touched and frame_no < len(self._seen)
                and self._stamps[frame_no] and self._seen[frame_no] < stamp):
            self._seen[frame_no] = stamp
            if self._member(record):
                self._keys[frame_no] = self._key(record)
                self._stamps[frame_no] = stamp

    def peek(self) -> Optional[SsdRecord]:
        """The minimum live record without removing it, or None."""
        while self._heap:
            key, stamp, record = self._heap[0]
            frame_no = record.frame_no
            self.take_in(record)
            pushed = self._stamps[frame_no]
            if self._filed[frame_no] != stamp:
                heapq.heappop(self._heap)  # garbage
            elif pushed != stamp:
                # Pushed or accessed since it was filed: the entry sinks
                # to where a heap that re-files on every push holds it.
                self._filed[frame_no] = pushed
                heapq.heapreplace(self._heap,
                                  (self._keys[frame_no], pushed, record))
                self.rekeys += 1
            elif not self._member(record):
                heapq.heappop(self._heap)
                self._forget(frame_no)
            elif self._key(record) != key:
                # Key changed since push (e.g. re-accessed): reinsert with
                # the fresh key and keep looking.
                heapq.heappop(self._heap)
                self._forget(frame_no)
                self.push(record)
            else:
                return record
        return None

    def pop(self) -> Optional[SsdRecord]:
        """Remove and return the minimum live record, or None if empty."""
        record = self.peek()
        if record is not None:
            heapq.heappop(self._heap)
            self._forget(record.frame_no)
        return record

    def clear(self) -> None:
        """No entry: a new heap, or one after a cold restart."""
        self._heap: List[Tuple[float, int, SsdRecord]] = []
        # By frame number: key and stamp of the frame's last push (stamp
        # 0: not in this heap) and the stamp of the one entry of ``_heap``
        # that stands for it.  That entry never sorts after the recorded
        # pair; any other entry of the frame is garbage.
        self._keys: List[float] = []
        self._stamps: List[int] = []
        self._filed: List[int] = []
        #: By frame number: the latest stamp, pushed or accessed, this
        #: heap has counted or passed over.
        self._seen: List[int] = []
        self._live = 0

    def check_invariants(self) -> None:
        """Assert that every live frame is filed exactly once, no later
        than its last push, and that garbage is within the slack."""
        filed = sorted(
            record.frame_no for key, stamp, record in self._heap
            if self._filed[record.frame_no] == stamp and (key, stamp) <= (
                self._keys[record.frame_no], self._stamps[record.frame_no]))
        live = [frame_no for frame_no, stamp in enumerate(self._stamps)
                if stamp]
        assert filed == live and len(live) == self._live, (
            f"{self._live} live frames tallied: {live}, filed in time {filed}")
        assert len(self._heap) - self._live <= max(
            self.MIN_COMPACT, self._live), (
            f"{len(self._heap)} entries for {self._live} live frames")
