"""Pages and buffer frames."""

from __future__ import annotations

from typing import Optional

#: Logical page identifier: an index into the database's page space.
PageId = int

#: LSN value meaning "no log record describes this page state yet".
INVALID_LSN = -1


class Frame:
    """A main-memory buffer frame holding one database page.

    ``version`` stands in for the page's 8 KB of content: it increases by
    one on every update, so "is this copy newer than that one" — the
    relation the paper's Figure 3 is about — is an integer comparison.

    ``sequential`` records how the page entered the pool (via read-ahead or
    a random read); the SSD admission policy reads it at eviction time.
    """

    __slots__ = (
        "page_id", "version", "dirty", "pin_count", "sequential",
        "page_lsn", "rec_lsn", "last_access", "prev_access", "io_busy",
        "busy_reason", "lru_stamp", "heap_stamp",
    )

    def __init__(self, page_id: PageId, version: int = 0,
                 sequential: bool = False):
        self.page_id = page_id
        self.version = version
        self.dirty = False
        self.pin_count = 0
        self.sequential = sequential
        #: LSN of the log record describing the latest update to this page;
        #: the WAL rule forces the log up to here before the page is
        #: written to the SSD or disk.
        self.page_lsn = INVALID_LSN
        #: LSN of the *first* update since the page was last clean — the
        #: recovery LSN fuzzy checkpoints truncate the log against.
        self.rec_lsn = INVALID_LSN
        #: LRU-2 history: most recent and second-most-recent access times.
        self.last_access = 0.0
        self.prev_access = float("-inf")
        #: Global LRU-2 ordering stamp of the latest access (ties on
        #: ``prev_access`` break by recency of touch, as the eager heap
        #: did via one entry per touch).
        self.lru_stamp = 0
        #: Stamp carried by this frame's single live replacement-heap
        #: entry; 0 while the frame has never been enheaped.  An entry
        #: whose stamp differs from the frame's ``heap_stamp`` is
        #: garbage; one that matches ``heap_stamp`` but not ``lru_stamp``
        #: is re-keyed lazily at victim-selection time.
        self.heap_stamp = 0
        #: Event held while an I/O owns this frame exclusively (e.g. TAC
        #: writing a freshly read page to the SSD); fetchers must wait on
        #: it, which is exactly the latch contention §2.5 describes.
        self.io_busy: Optional[object] = None
        #: Why the frame is latched ("eviction", "admission-write", …) —
        #: lets latch-wait time be attributed per cause.
        self.busy_reason: Optional[str] = None

    @property
    def pinned(self) -> bool:
        """Whether any caller currently holds a pin."""
        return self.pin_count > 0

    def __repr__(self) -> str:
        flags = "".join((
            "D" if self.dirty else "-",
            "P" if self.pinned else "-",
            "S" if self.sequential else "R",
        ))
        return f"<Frame page={self.page_id} v{self.version} {flags}>"
