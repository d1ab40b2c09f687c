"""Sharp checkpointing.

SQL Server 2008 R2 takes *sharp* checkpoints: every dirty page in the
main-memory buffer pool is flushed to disk (§3.2).  The design-specific
wrinkles the paper describes are delegated to the SSD manager:

* **LC** must additionally flush every dirty page in the SSD to disk (it
  is the only design whose SSD can hold the newest copy), and stops
  caching new dirty pages while the checkpoint runs;
* **DW** writes checkpointed dirty *random* pages to the SSD as well as
  the disk, filling the SSD faster with useful data.

After all flushes complete the log is truncated up to the checkpoint's
begin LSN, which is exactly why LC's extra flush is a correctness
requirement and not an optimization (see the recovery tests).
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro.sim import Environment
from repro.engine.buffer_pool import BufferPool
from repro.engine.page import Frame
from repro.engine.wal import WriteAheadLog
from repro.telemetry import CHECKPOINT_CTX, NULL_TELEMETRY

#: Concurrent page writes per wave: a checkpoint's flushes, restart
#: redo's read+write pairs (:mod:`repro.engine.recovery`; one at a time
#: made a crash-point sweep quadratically slow in the redo-set size)
#: and the SSD manager's degradation redo.
FLUSH_BATCH = 32


def check_interval(interval: Optional[float]) -> None:
    """Refuse a checkpoint interval that is neither None nor finite and
    > 0: a periodic checkpointer on a zero one loops at one virtual
    instant forever."""
    if interval is not None and not 0 < interval < math.inf:
        raise ValueError(f"checkpoint_interval must be None or finite "
                         f"and > 0, got {interval!r}")


class Checkpointer:
    """Periodic sharp checkpoints over a buffer pool and SSD manager."""

    def __init__(self, env: Environment, bp: BufferPool, wal: WriteAheadLog,
                 interval: Optional[float] = None, telemetry=None):
        check_interval(interval)
        self.env = env
        self.bp = bp
        self.wal = wal
        #: Virtual seconds between checkpoints (None = never automatic,
        #: the paper's "effectively turned off" TPC-C setting).
        self.interval = interval
        self.last_checkpoint_lsn = -1
        self.checkpoints_started = 0
        self.checkpoints_taken = 0
        self.durations: List[float] = []
        self.crash_reset()  # no periodic process yet
        self.telemetry = telemetry or NULL_TELEMETRY
        self._tracer = self.telemetry.tracer

    def start(self) -> None:
        """Start the periodic checkpoint process (if an interval is set)."""
        if self.interval is not None and not self._running:
            self._running = True
            self.env.spawn(self._periodic())

    def crash_reset(self) -> None:
        """No periodic process runs: none was started yet, or it died
        with the event queue and :meth:`start` may launch a fresh one
        (``System.recover`` does, after redo).  The durable
        ``last_checkpoint_lsn`` survives — recovery replays from it."""
        self._running = False

    def _periodic(self):
        while True:
            yield self.interval
            yield from self.checkpoint()

    def checkpoint(self):
        """Process step: take one sharp checkpoint."""
        started = self.env.now
        self.checkpoints_started += 1
        begin_lsn = self.wal.tail_lsn
        self.bp.checkpoint_active = True
        dirty_count = 0
        try:
            dirty = self.bp.dirty_frames()
            dirty_count = len(dirty)
            if dirty:
                newest = max(frame.page_lsn for frame in dirty)
                yield from self.wal.force(newest, ctx=CHECKPOINT_CTX)
            for wave_start in range(0, len(dirty), FLUSH_BATCH):
                wave = dirty[wave_start:wave_start + FLUSH_BATCH]
                yield self.env.gather(
                    self._flush_one(frame) for frame in wave)
            # Design-specific phase: LC flushes dirty SSD pages here.
            yield from self.bp.ssd.on_checkpoint()
        finally:
            self.bp.checkpoint_active = False
        self.last_checkpoint_lsn = begin_lsn
        self.wal.truncate(begin_lsn)
        self.checkpoints_taken += 1
        self.durations.append(self.env.now - started)
        if self._tracer.enabled:
            self._tracer.complete("checkpoint", started, self.env.now,
                                  "checkpoint", "checkpoint",
                                  {"dirty_pages": dirty_count})

    def _flush_one(self, frame: Frame):
        """Flush one dirty frame via the design's checkpoint-write hook."""
        if not frame.dirty or self.bp.frames.get(frame.page_id) is not frame:
            return  # evicted or cleaned since the snapshot
        version_written = frame.version
        yield from self.bp.ssd.checkpoint_write(frame)
        # Only clear the dirty bit if no update raced with the write.
        if frame.version == version_written:
            self.bp.mark_clean(frame)


class FuzzyCheckpointer(Checkpointer):
    """Fuzzy checkpoints: record state, flush nothing.

    The alternative policy the paper contrasts with SQL Server's sharp
    checkpoints (§2.3.3): a fuzzy checkpoint writes only a checkpoint
    record carrying the dirty-page table, so the checkpoint itself is
    nearly free — but the log can only be truncated up to the *oldest
    recovery LSN* of any dirty page (in memory **or**, for write-back
    SSD designs, in the SSD), so restart redo has more work to do.  The
    checkpoint-policy benchmark measures exactly this trade: checkpoint
    cost vs restart time, as a function of LC's λ.
    """

    def checkpoint(self):
        """Process step: take one fuzzy checkpoint."""
        started = self.env.now
        self.checkpoints_started += 1
        rec_lsns = [frame.rec_lsn for frame in self.bp.dirty_frames()
                    if frame.rec_lsn >= 0]
        ssd_oldest = self.bp.ssd.oldest_dirty_rec_lsn()
        if ssd_oldest is not None:
            rec_lsns.append(ssd_oldest)
        redo_from = min(rec_lsns) if rec_lsns else self.wal.tail_lsn + 1
        # The checkpoint record itself: one forced log page.
        marker = self.wal.append(page_id=-1, version=0)
        yield from self.wal.force(marker, ctx=CHECKPOINT_CTX)
        self.last_checkpoint_lsn = redo_from - 1
        self.wal.truncate(redo_from - 1)
        self.checkpoints_taken += 1
        self.durations.append(self.env.now - started)
        if self._tracer.enabled:
            self._tracer.complete("fuzzy_checkpoint", started, self.env.now,
                                  "checkpoint", "checkpoint",
                                  {"redo_from": redo_from})
