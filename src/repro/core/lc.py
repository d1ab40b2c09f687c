"""The Lazy-Cleaning (LC) design (§2.3.3, §3.3.5).

Dirty pages evicted from the buffer pool are written *only* to the SSD
(write-back).  A background lazy-cleaning thread copies dirty SSD pages
back to disk:

* it wakes when the dirty fraction of the SSD exceeds λ and drains until
  slightly below it (``clean_slack``);
* each pass gathers up to α dirty pages with consecutive disk addresses
  and writes them to disk with a single I/O (*group cleaning*);
* pages cannot move SSD→disk directly — they are read into memory first,
  so cleaning consumes both SSD read and disk write bandwidth (this is
  the throughput drop visible in Figure 6 when the λ threshold is first
  crossed).

Because the SSD can hold the newest copy of a page, LC changes the sharp
checkpoint: all dirty SSD pages are flushed to disk during a checkpoint,
and no new dirty pages are cached while one is in progress (§3.2).
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.core.ssd_buffer_table import SsdRecord
from repro.core.ssd_manager import SsdManagerBase
from repro.engine.page import Frame
from repro.faults.errors import IoFault
from repro.telemetry import CLEANER_CTX


class LazyCleaningManager(SsdManagerBase):
    """LC: write-back caching of dirty evictions with a cleaner thread."""

    __slots__ = ("_cleaner_started", "_cleaner_wakeup", "_above_lambda",
                 "_cleaning_frames")

    name = "LC"

    #: Empty drain rounds between dirty-heap reseed attempts.
    _RESEED_AFTER = 3

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._cleaner_started = False
        self._cleaner_wakeup = None
        self._above_lambda = False
        #: SSD frame slots with a clean-back transfer in flight; their
        #: records are legitimately absent from the dirty heap and must
        #: not be re-seeded into it.
        self._cleaning_frames: Set[int] = set()
        registry = self.telemetry.registry
        registry.counter(
            "lc_cleaner_rounds_total", "Group-clean batches the LC cleaner ran",
            lambda: self.stats.cleaner_ios)
        registry.counter(
            "lc_cleaner_pages_total", "Dirty SSD pages the LC cleaner wrote back",
            lambda: self.stats.cleaner_pages)
        registry.counter(
            "lc_lambda_crossings_total",
            "Upward crossings of the dirty-fraction threshold (lambda)",
            lambda: self.stats.lambda_crossings)

    def _note_lambda(self) -> None:
        """Record crossings of λ (in either direction) as trace instants."""
        above = self.table.dirty_count > self.config.dirty_limit_frames
        if above == self._above_lambda:
            return
        self._above_lambda = above
        if above:
            self.stats.lambda_crossings += 1
        if self._tracer.enabled:
            self._tracer.instant(
                "lambda_crossed" if above else "lambda_recovered",
                "cleaner", "cleaner",
                {"dirty_fraction": self.dirty_fraction})

    # ------------------------------------------------------------------
    # Eviction hook
    # ------------------------------------------------------------------

    def on_evict_dirty(self, frame: Frame):
        """Write-back: the SSD alone, and a new dirty page may push the
        dirty fraction over λ."""
        if (yield from self._evict_write_back(frame)):
            self._maybe_wake_cleaner()

    # ------------------------------------------------------------------
    # The lazy-cleaning thread
    # ------------------------------------------------------------------

    def _after_dirty_cached(self) -> None:
        self._maybe_wake_cleaner()

    def start_cleaner(self) -> None:
        """Launch the background cleaner process (idempotent)."""
        if not self._cleaner_started:
            self._cleaner_started = True
            self._cleaner_wakeup = self.env.event()
            self.env.spawn(self._cleaner_loop())

    def _maybe_wake_cleaner(self) -> None:
        self._note_lambda()
        if (self._cleaner_wakeup is not None
                and not self._cleaner_wakeup.triggered
                and self.table.dirty_count > self.config.dirty_limit_frames):
            self._cleaner_wakeup.succeed()

    def _cleaner_loop(self):
        while True:
            if self._detach_started:
                return  # the SSD died; detach empties the table
            if self.table.dirty_count <= self.config.dirty_limit_frames:
                self._cleaner_wakeup = self.env.event()
                yield self._cleaner_wakeup
            target = self.config.clean_target_frames
            empty_rounds = 0
            while self.table.dirty_count > target:
                if self._detach_started:
                    return
                # Keep several group-clean batches in flight: a serial
                # cleaner is capped at one page per disk-write latency and
                # silently turns λ into "never" under load.
                batches = []
                for _ in range(self.config.cleaner_concurrency):
                    if self.table.dirty_count - len(batches) <= target:
                        break
                    batches.append(self._clean_batch())
                if not batches:
                    break
                results = yield self.env.gather(batches)
                if any(results):
                    empty_rounds = 0
                else:
                    # Nothing cleanable right now; yield and retry.
                    empty_rounds += 1
                    self._note_drain_stall(empty_rounds)
                    yield self.env.timeout(0.001)

    def _clean_batch(self):
        """Process step: clean one group of dirty SSD pages (§3.3.5).

        Starting from the oldest dirty page (dirty-heap root), gathers up
        to α dirty pages with consecutive disk addresses, reads each from
        the SSD into memory, writes them to disk as one I/O, and marks
        them clean.  Returns the number of pages cleaned.
        """
        group = self._gather_group()
        if not group:
            return 0
        round_started = self.env.now
        # Capture addresses/versions now: a page may be invalidated (and
        # its record even reused for a different page) while the cleaning
        # I/O is in flight.
        first = group[0].page_id
        versions = [record.version for record in group]
        captured = [(record, record.page_id, record.version)
                    for record in group]
        frames = [record.frame_no for record in group]
        self._cleaning_frames.update(frames)
        try:
            # SSD -> memory: one read per page (they are scattered on the
            # SSD).  These are transfer reads, not page accesses: the
            # LRU-2 history of the records must not be touched.
            results = yield self.env.gather(
                self._ssd_read_frame(record.frame_no, ctx=CLEANER_CTX)
                for record in group)
            if not all(results):
                # A read failed past the retry budget, or the device
                # died: nothing was transferred.  Requeue for a later
                # attempt (or for the detach redo) and report no
                # progress.
                self._requeue(captured)
                return 0
            try:
                yield from self.disk.write_run(first, versions,
                                               ctx=CLEANER_CTX)
            except IoFault:
                self._requeue(captured)
                return 0
        finally:
            self._cleaning_frames.difference_update(frames)
        self.stats.cleaner_pages += len(group)
        self.stats.cleaner_ios += 1
        for record, page_id, version in captured:
            # Mark clean only if the record still describes the exact
            # page/version we wrote out — it may have been invalidated
            # (re-dirtied in the pool) or reused for another page while
            # the clean-back I/O was in flight.
            if record.dirty and record.holds(page_id, version):
                self.table.set_dirty(record, False)
                self.clean_heap.push(record)
        if self._tracer.enabled:
            self._tracer.complete("clean_batch", round_started, self.env.now,
                                  "cleaner", "cleaner",
                                  {"pages": len(group), "first_page": first})
        self._note_lambda()
        return len(group)

    def _requeue(self, captured) -> None:
        """Put an unfinished batch's records back in the dirty heap."""
        for record, page_id, version in captured:
            if record.dirty and record.holds(page_id, version):
                self.dirty_heap.push(record)

    def _gather_group(self) -> List[SsdRecord]:
        """Oldest dirty page plus dirty neighbours at consecutive disk
        addresses, up to α pages, sorted by disk address."""
        seed = self.dirty_heap.pop()
        if seed is None:
            return []
        group = [seed]
        limit = self.config.group_clean_pages
        # Extend left, then right, while neighbours are dirty in the SSD.
        low = seed.page_id - 1
        while len(group) < limit:
            record = self._dirty_record(low)
            if record is None:
                break
            self.dirty_heap.remove(record)
            group.insert(0, record)
            low -= 1
        high = seed.page_id + 1
        while len(group) < limit:
            record = self._dirty_record(high)
            if record is None:
                break
            self.dirty_heap.remove(record)
            group.append(record)
            high += 1
        return group

    def _dirty_record(self, page_id: int) -> Optional[SsdRecord]:
        record = self.table.lookup_valid(page_id)
        return record if record is not None and record.dirty else None

    # ------------------------------------------------------------------
    # Drain liveness (dirty-heap/table desync recovery)
    # ------------------------------------------------------------------

    def _note_drain_stall(self, empty_rounds: int) -> None:
        """React to consecutive empty drain rounds.

        Empty rounds are legitimate while other batches hold records in
        flight (``_cleaning_frames``), but ``dirty_count > 0`` with an
        empty dirty heap and *nothing* in flight means the heap and the
        table have desynced — without intervention the drain loop would
        busy-spin forever.  Every ``_RESEED_AFTER`` rounds the heap is
        re-seeded from the table (the authoritative source); if that
        finds nothing and nothing is in flight, the counters themselves
        are inconsistent and we fail loudly rather than hang.
        """
        if empty_rounds % self._RESEED_AFTER != 0:
            return
        reseeded = self._reseed_dirty_heap()
        if reseeded:
            return
        if not self._cleaning_frames and self.table.dirty_count > 0:
            raise RuntimeError(
                f"LC drain stalled: dirty_count={self.table.dirty_count} "
                f"but no dirty records exist in the table and none are in "
                f"flight — table/counter desync")
        if empty_rounds >= self._STALL_LIMIT:
            raise RuntimeError(
                f"LC drain stalled: {empty_rounds} consecutive empty "
                f"rounds with {len(self._cleaning_frames)} transfers "
                f"still in flight")

    def _reseed_dirty_heap(self) -> int:
        """Re-push every table-dirty record absent from in-flight batches.

        Duplicate pushes are harmless (the lazy heap re-validates on
        pop).  Returns the number of records pushed; healthy runs never
        get here, so the count doubles as a desync detector.
        """
        reseeded = 0
        for record in self.table.occupied_records():
            if (record.valid and record.dirty
                    and record.frame_no not in self._cleaning_frames):
                self.dirty_heap.push(record)
                reseeded += 1
        if reseeded:
            self.stats.heap_reseeds += 1
            if self._tracer.enabled:
                self._tracer.instant("dirty_heap_reseed", "cleaner",
                                     "cleaner", {"records": reseeded})
        return reseeded

    # ------------------------------------------------------------------
    # Checkpoint integration (§3.2)
    # ------------------------------------------------------------------

    def on_checkpoint(self):
        """The base drain, α pages to a disk write: LC's dirty pages sit
        in a heap, so the checkpoint reuses the cleaner's group batches
        (§3.3.5) instead of copying back page by page."""
        empty_rounds = 0
        while self.table.dirty_count > 0:
            if self._detach_started:
                # The SSD died mid-checkpoint; the detach redo makes the
                # dirty pages durable on disk, which is all this phase
                # needs.  Wait for it rather than racing it.
                yield from self._await_detach()
                break
            results = yield self.env.gather(
                self._clean_batch()
                for _ in range(self.config.cleaner_concurrency))
            cleaned = sum(results)
            self.stats.checkpoint_ssd_flushes += cleaned
            if cleaned == 0:
                empty_rounds += 1
                self._note_drain_stall(empty_rounds)
                yield self.env.timeout(0.001)
            else:
                empty_rounds = 0

    # ------------------------------------------------------------------
    # Crash / restart
    # ------------------------------------------------------------------

    def crash_reset(self) -> None:
        """Hard-crash restart: the cleaner process died with the event
        queue; clear its in-flight bookkeeping and relaunch it (unless
        the SSD is gone, in which case there is nothing to clean)."""
        super().crash_reset()
        self._cleaning_frames.clear()
        self._cleaner_started = False
        self._cleaner_wakeup = None
        self._above_lambda = False
        if not self.detached:
            self.start_cleaner()
