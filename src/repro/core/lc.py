"""The Lazy-Cleaning (LC) design (§2.3.3, §3.3.5).

Dirty pages evicted from the buffer pool are written *only* to the SSD
(write-back), so the SSD can hold a page's newest copy.  That decision is
all LC keeps here: what it obliges (the changed sharp checkpoint of §3.2,
copy-back, SSD death), the background thread's λ policy and the round it
and every checkpoint run, group cleaning (§3.3.5: α dirty pages with
consecutive disk addresses to one disk write), are ``SsdManagerBase``'s,
shared with every write-back design (DESIGN.md §5.1).
"""

from __future__ import annotations

from repro.core.ssd_manager import SsdManagerBase
from repro.engine.page import Frame


class LazyCleaningManager(SsdManagerBase):
    """LC: write-back caching of dirty evictions with a cleaner thread."""

    __slots__ = ()

    name = "LC"

    def on_evict_dirty(self, frame: Frame):
        """The decision (§2.3): write-back — the SSD alone, and a new
        dirty page may push the dirty fraction over λ."""
        if (yield from self._evict_write_back(frame)):
            self._after_dirty_cached()

    def start_cleaner(self) -> None:
        """Launch the background cleaner process (idempotent)."""
        if self._cleaner is None:
            self._start_lambda_cleaner()
