"""The Clean-Write (CW) design (§2.3.1).

Only clean pages are ever cached in the SSD.  A dirty page evicted from
the buffer pool is written to disk alone, so every SSD copy is identical
to its disk copy and the checkpoint/recovery logic needs no change.  The
paper finds CW consistently slower than DW and LC (21.6% / 23.3% on the
TPC-E 20K-customer database) because the hot, frequently updated part of
the working set never benefits from the SSD.  The unmodified engine,
noSSD, is this design over an SSD of no frames.
"""

from __future__ import annotations

from repro.core.ssd_manager import SsdManagerBase
from repro.engine.page import Frame
from repro.telemetry import EVICTION_CTX


class CleanWriteManager(SsdManagerBase):
    """CW: never write dirty pages to the SSD."""

    __slots__ = ()

    name = "CW"

    def on_evict_dirty(self, frame: Frame):
        """Dirty evictions go to disk only; the SSD is not touched.

        (The dirtying itself already invalidated any SSD copy.)
        """
        yield from self.disk.write(frame.page_id, frame.version,
                                   EVICTION_CTX)


class NoSsdManager(CleanWriteManager):
    """noSSD, the unmodified engine: CW's decision over an SSD of no
    frames — the multi-tier buffer with an empty tier.  ``System`` gives
    it S = 0, so every lookup misses, nothing is admitted, every
    multi-page read is one disk run and every dirty page goes to disk."""

    __slots__ = ()

    name = "noSSD"
