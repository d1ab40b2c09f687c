"""Heap files: contiguous page ranges scanned sequentially.

A heap file models a table stored in contiguous pages.  Its scan drives
the read-ahead mechanism: after ``trigger_pages`` single-page (random)
fetches, subsequent pages arrive via multi-page prefetch and are marked
sequential — the signal the SSD admission policy uses.
"""

from __future__ import annotations

from typing import Optional

from repro.engine.buffer_pool import BufferPool
from repro.engine.readahead import ReadAheadAccuracy


class HeapFile:
    """A table occupying pages ``[first_page, first_page + npages)``."""

    def __init__(self, name: str, first_page: int, npages: int):
        if npages < 1:
            raise ValueError(f"npages must be >= 1, got {npages}")
        self.name = name
        self.first_page = first_page
        self.npages = npages

    @property
    def end_page(self) -> int:
        """One past the table's last page."""
        return self.first_page + self.npages

    def scan(self, bp: BufferPool, start: Optional[int] = None,
             npages: Optional[int] = None,
             accuracy: Optional[ReadAheadAccuracy] = None, ctx=None):
        """Process step: sequentially read a page range of the table.

        Touches every page (fetch + unpin), using read-ahead after the
        trigger.  Returns the number of pages scanned.  If ``accuracy`` is
        given, each page's sequential/random tag is scored against the
        ground truth that a scan is sequential.
        """
        first = self.first_page if start is None else start
        count = (self.end_page - first) if npages is None else npages
        if first < self.first_page or first + count > self.end_page:
            raise ValueError(
                f"scan range [{first}, {first + count}) outside {self.name}")

        ra = bp.readahead
        pin_hit = bp.pin_hit
        latched = bp._latch_s > 0.0
        # The leading span is read page by page before read-ahead
        # engages; the rest in pipelined batches — keep ``ra.depth``
        # prefetches in flight ahead of the consume position so the
        # striped array streams from all drives at once.
        position = first + min(ra.trigger_pages, count)
        end = first + count
        spans = [(first, position - first)]
        while position < end:
            batch = min(ra.batch_pages, end - position)
            spans.append((position, batch))
            position += batch
        env = bp.env
        inflight = {}
        launched = 1  # spans[0] is not prefetched
        scanned = 0
        for index, (start_page, batch) in enumerate(spans):
            if index:
                while launched < len(spans) and launched < index + ra.depth:
                    b_start, b_count = spans[launched]
                    inflight[launched] = env.process(
                        bp.prefetch(b_start, b_count, ctx=ctx))
                    launched += 1
                yield inflight.pop(index)
            for pid in range(start_page, start_page + batch):
                if latched:
                    yield bp.latch(pid, ctx)
                frame = pin_hit(pid)
                if frame is None:
                    frame = yield from bp.fetch(pid, ctx=ctx, latched=True)
                if accuracy is not None:
                    accuracy.score(frame.sequential, True)
                frame.pin_count -= 1
                scanned += 1
        return scanned
