"""The pool's single lazy replacement heap, kept as a reference.

``BufferPool`` files a frame's first entry in a sorted run and a
re-keyed entry in a second run when it arrives in order, and takes each
victim off the least of the runs' heads and the heap's top.  This is the
one heap it replaced, verbatim but for the class and the docstrings:
every first entry is a ``heappush`` of ``(0.0, stamp, page_id)`` and a
surfaced entry of a since-touched frame is re-keyed in place.  Which
frames a ``_pick_victims`` returns, in which order, is defined by this
class; ``tests/engine/test_pool_heap_equivalence.py`` runs random
scripts against both and demands the same victims.
"""

from __future__ import annotations

from heapq import heappop, heappush, heapreplace
from typing import List, Optional, Tuple

from repro.engine.buffer_pool import BufferPool
from repro.engine.page import Frame, PageId


class ReferencePoolHeap(BufferPool):
    """A ``BufferPool`` whose replacement order is one lazy heap.  Swap
    it in with ``pool.__class__ = ...``."""

    __slots__ = ()

    def _install(self, page_id: PageId, version: int, sequential: bool,
                 from_ssd: bool) -> Optional[Frame]:
        """The pool's own install, whose first touch of a page read
        ahead files into the sorted run inline, with that touch made
        here instead."""
        frame = BufferPool._install(self, page_id, version, False, from_ssd)
        if frame is not None and sequential:
            frame.sequential = True
            self._touch(frame)
        return frame

    def _touch(self, frame: Frame) -> None:
        frame.prev_access = frame.last_access
        frame.last_access = self.env._now
        self._stamp = stamp = self._stamp + 1
        frame.lru_stamp = stamp
        if frame.heap_stamp == 0:
            # First touch after install: enheap its single live entry.
            frame.heap_stamp = stamp
            heappush(self._heap, (frame.prev_access, stamp, frame.page_id))

    def _pick_victims(self, want: int) -> List[Frame]:
        frames = self.frames
        heap = self._heap
        victims: List[Frame] = []
        deferred: List[Tuple[float, int, PageId]] = []
        while heap and want:
            entry = heap[0]
            frame = frames.get(entry[2])
            if frame is None or frame.heap_stamp != entry[1]:
                heappop(heap)  # garbage: frame gone or superseded
            elif frame.lru_stamp != entry[1]:
                stamp = frame.lru_stamp
                frame.heap_stamp = stamp
                heapreplace(heap, (frame.prev_access, stamp, entry[2]))
            else:
                heappop(heap)
                if frame.pin_count > 0 or frame.io_busy is not None:
                    deferred.append(entry)
                else:
                    victims.append(frame)
                    want -= 1
        for entry in deferred:
            heappush(heap, entry)
        return victims
