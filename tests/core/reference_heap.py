"""The eager ``LazyMinHeap`` of commit b0fdf80, kept as a reference.

``repro.core.heaps.LazyMinHeap`` files a record once and re-keys the
entry when it surfaces; this is the heap it replaced, verbatim but for
its name: every ``push`` is a real ``heappush`` of ``(key, stamp,
record)``, superseded tuples are skipped at ``pop`` and swept by
whole-heap rebuilds.  Which record comes out of a ``pop`` or a ``peek``
— the SSD replacement victim, the cleaner's next page, TAC's coldest
page — is defined by this class;
``tests/core/test_heap_equivalence.py`` runs random scripts against
both and demands the same record out of every call (DESIGN.md §13).
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.ssd_buffer_table import SsdRecord


class EagerMinHeap:
    """A min-heap of SSD records with lazy deletion.

    ``key`` extracts the ordering value from a record (LRU-2 penultimate
    access time for the clean/dirty heaps, extent temperature for TAC).
    ``member`` decides at pop time whether a record still belongs to this
    heap; entries that fail it, or whose pushed stamp is stale, are
    dropped silently.
    """

    #: Compaction floor: below this many stale entries the heap is left
    #: alone, so small heaps never pay the rebuild.
    MIN_COMPACT = 64

    def __init__(self, key: Callable[[SsdRecord], float],
                 member: Callable[[SsdRecord], bool]) -> None:
        self._key = key
        self._member = member
        self._heap: List[Tuple[float, int, SsdRecord]] = []
        self._stamps: Dict[int, int] = {}
        self._next_stamp = 0

    def __len__(self) -> int:
        """Upper bound on live entries (lazy entries inflate it)."""
        return len(self._heap)

    @property
    def live_count(self) -> int:
        """Records currently considered members of this heap."""
        return len(self._stamps)

    def push(self, record: SsdRecord) -> None:
        """(Re)insert a record with its current key."""
        self._next_stamp += 1
        self._stamps[record.frame_no] = self._next_stamp
        heapq.heappush(self._heap,
                       (self._key(record), self._next_stamp, record))
        if len(self._heap) - len(self._stamps) > max(
                self.MIN_COMPACT, 2 * len(self._stamps)):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap from live stamps, dropping stale entries.

        Without this, every re-access and every remove leaves a dead
        tuple behind; under churn (LC re-dirtying hot pages) the heap
        grows without bound and each pop wades through the garbage.
        Rebuilding is O(live) and amortized free because it only runs
        once the garbage outnumbers the live entries 2:1.
        """
        stamps = self._stamps
        self._heap = [entry for entry in self._heap
                      if stamps.get(entry[2].frame_no) == entry[1]]
        heapq.heapify(self._heap)

    def remove(self, record: SsdRecord) -> None:
        """Lazily remove a record (its entries become stale)."""
        self._stamps.pop(record.frame_no, None)

    def pop(self) -> Optional[SsdRecord]:
        """Remove and return the minimum live record, or None if empty."""
        while self._heap:
            key, stamp, record = heapq.heappop(self._heap)
            if self._stamps.get(record.frame_no) != stamp:
                continue
            if not self._member(record):
                del self._stamps[record.frame_no]
                continue
            if self._key(record) != key:
                # Key changed since push (e.g. re-accessed): reinsert with
                # the fresh key and keep looking.
                self.push(record)
                continue
            del self._stamps[record.frame_no]
            return record
        return None

    def peek(self) -> Optional[SsdRecord]:
        """The minimum live record without removing it, or None."""
        record = self.pop()
        if record is not None:
            self.push(record)
        return record

    def clear(self) -> None:
        """Drop every entry (cold restart)."""
        self._heap.clear()
        self._stamps.clear()
