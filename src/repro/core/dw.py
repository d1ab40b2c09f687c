"""The Dual-Write (DW) design (§2.3.2).

A dirty page evicted from the buffer pool is written "simultaneously" to
both the database on disk and (if it qualifies for admission) the SSD —
a write-through cache for dirty pages.  SSD and disk copies therefore
stay identical (barring a crash between the two writes, which recovery
repairs from the log), so checkpoint/recovery logic is unchanged.

DW also implements the §3.2 checkpoint extension: dirty pages flushed by
a checkpoint that are marked *random* are written to the SSD as well as
the disk, filling the SSD faster with useful data.
"""

from __future__ import annotations

from repro.core.ssd_manager import SsdManagerBase
from repro.engine.page import Frame
from repro.telemetry import CHECKPOINT_CTX, EVICTION_CTX


class DualWriteManager(SsdManagerBase):
    """DW: write-through caching of dirty evictions."""

    __slots__ = ()

    name = "DW"

    def on_evict_dirty(self, frame: Frame):
        """The decision (§2.3): to disk, and in parallel to the SSD if
        the page qualifies for admission."""
        yield self._dual_write(frame, EVICTION_CTX, self._qualifies(frame))

    def checkpoint_write(self, frame: Frame):
        """§3.2: checkpointed dirty random pages also prime the SSD."""
        yield self._dual_write(frame, CHECKPOINT_CTX, not frame.sequential)

    def _dual_write(self, frame: Frame, ctx, cache: bool):
        return self._write_through(frame, ctx, cache and self._cache_page(
            frame.page_id, frame.version, dirty=False, ctx=ctx))
