"""The main-memory buffer pool.

Implements the storage-module flow of the paper's §2.1/§2.2:

* page requests check the pool, then the SSD manager, then the disk;
* LRU-2 replacement (the policy SQL Server-class systems use, and the one
  the paper uses for the SSD as well) with pinning;
* dirty pages are written out *before* their frame is reused, and the WAL
  rule is enforced first;
* every eviction is handed to the SSD manager, which decides — per design
  (CW/DW/LC/TAC/noSSD) — what gets written where;
* dirtying a page invalidates its SSD copy;
* multi-page read-ahead with the §3.3.3 trimming optimization.

The pool is *partitioned* (DESIGN.md §13): page ids hash into
``partitions`` shards, each owning a FIFO latch domain with a modeled
service time.  The backing page-table dict is shared storage (a single
C-level hash map — per-shard dicts only add constant overhead in the
host language), so ``frames`` keeps its plain-``dict`` interface.  So
is the replacement order: victims come off by ``(prev_access, stamp,
page_id)`` with a pool-global stamp, which makes the eviction order —
and therefore the whole event trace when the latch service time is zero
— independent of the partition count.

Replacement bookkeeping is O(1) per access (DESIGN.md §13): each
resident frame keeps exactly one live entry (identified by
``Frame.heap_stamp``); a touch only bumps ``Frame.lru_stamp``, and the
entry is re-keyed lazily when it surfaces during victim selection.  A
frame's first entry goes to a FIFO run, not the heap: its key is the
never-touched 0.0 and stamps only grow, so the run is sorted.  A
re-keyed entry goes to a second run when it sorts after that run's
tail, else into the heap; victims come off the least of the three
heads, so the order is the one heap's (``tests/engine/
reference_pool_heap.py``).

All methods named as process steps (``fetch``, ``prefetch``, …) are
generators meant to be driven with ``yield from`` inside a simulation
process.  :meth:`BufferPool.pin_hit` is the exception by design: the
no-I/O hit path completes without a process switch, so hot callers can
pin without paying a generator round-trip.  The pool's own inner steps
(``_evict``, ``_ensure_free_frames``) and the SSD manager's hooks it
calls follow the step convention of DESIGN.md §13: a generator when the
caller must wait, ``()`` when the work finished at the call.
"""

from __future__ import annotations

from collections import Counter, deque
from functools import partial
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Tuple

from repro.faults.errors import IoFault
from repro.sim import Environment, Event
from repro.sim.events import _PENDING
from repro.sim.process import GatherMember
from repro.engine.disk_manager import DiskManager
from repro.engine.page import Frame, PageId
from repro.engine.readahead import ReadAhead
from repro.engine.wal import WriteAheadLog
from repro.telemetry import EVICTION_CTX, NULL_TELEMETRY

if TYPE_CHECKING:
    from repro.core.ssd_manager import SsdRead

#: ``Frame.io_busy`` of a victim the lazy writer reserved: the frame is
#: latched, but the event to wait on is built only by the first fetcher
#: that needs one (:meth:`BufferPool.fetch`).
RESERVED = object()


class BufferPoolStats:
    """Cumulative buffer-pool counters."""

    __slots__ = (
        "hits", "misses", "ssd_hits", "disk_reads", "prefetched_pages",
        "prefetched_unused", "evictions_clean", "evictions_dirty",
        "latch_wait_time", "latch_waits", "latch_wait_by_reason",
        "partition_latch_waits", "partition_latch_wait_time",
    )

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self.ssd_hits = 0          # pages read in from the SSD
        self.disk_reads = 0        # misses served from the disk
        self.prefetched_pages = 0  # pages brought in by read-ahead
        #: Pages read ahead that left the pool before any fetch pinned them.
        self.prefetched_unused = 0
        self.evictions_clean = 0
        self.evictions_dirty = 0
        self.latch_wait_time = 0.0
        self.latch_waits = 0
        #: Latch wait time attributed to the cause of the latch (e.g.
        #: "eviction" write-outs vs TAC's "admission-write", §2.5).
        self.latch_wait_by_reason = {}
        #: Fetches that queued on a partition latch (only counted when a
        #: non-zero latch service time is modeled, DESIGN.md §13).
        self.partition_latch_waits = 0
        self.partition_latch_wait_time = 0.0

    @property
    def hit_rate(self) -> float:
        """Fraction of page requests served from the pool."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def ssd_hit_rate(self) -> float:
        """Pages read in from the SSD per buffer-pool miss.

        Not a fraction: ``ssd_hits`` counts read-ahead pages served from
        the SSD too, which no miss counts, so a scan-heavy run can read
        above 1 (2.59 on ``tpch_dw``)."""
        return self.ssd_hits / self.misses if self.misses else 0.0

    def as_dict(self) -> Dict[str, object]:
        """Snapshot of every counter (replaces ``vars()`` under slots)."""
        return {name: getattr(self, name) for name in self.__slots__}

    @classmethod
    def from_dict(cls, data) -> "BufferPoolStats":
        """Rebuild counters from an :meth:`as_dict` snapshot."""
        stats = cls()
        for name in cls.__slots__:
            if name in data:
                setattr(stats, name, data[name])
        return stats


class PoolPartition:
    """One buffer-pool shard: a latch domain.

    The latch is a FIFO single-server queue in virtual time:
    ``busy_until`` is when the last queued page-table access completes,
    so an arrival at ``now`` starts at ``max(now, busy_until)`` and the
    whole queue never needs materializing (DESIGN.md §13).
    """

    __slots__ = ("index", "busy_until", "latch_waits", "latch_wait_time")

    def __init__(self, index: int):
        self.index = index
        self.latch_waits = 0
        self.latch_wait_time = 0.0
        self.reset()

    def reset(self) -> None:
        """A free latch (new, or after a crash)."""
        self.busy_until = 0.0


class BufferPool:
    """A fixed-capacity page cache over the disk manager and SSD manager.

    ``ssd_manager`` is any object implementing the design protocol (see
    :class:`repro.core.ssd_manager.SsdManagerBase`); the ``noSSD``
    configuration passes a :class:`repro.core.cw.NoSsdManager`.

    ``partitions`` shards the latch by ``page_id % partitions``;
    ``latch_seconds`` is the modeled service time of one page-table
    access under a partition latch.  The default of ``0.0`` keeps the
    fetch path free of latch events, so traces are byte-identical for
    every partition count; a non-zero value makes ``--partitions``
    timing-relevant (per-tenant tail latency drops as the latch domains
    multiply).
    """

    __slots__ = (
        "env", "telemetry", "_tracer", "capacity", "disk",
        "wal", "ssd", "readahead", "expand_reads", "stats",
        "latch_wait_counts", "latch_wait_lengths", "frames",
        "_inflight", "_reserved", "_stamp", "_heap", "_fresh", "_rekeyed",
        "_dirty", "partitions",
        "_nparts", "_parts", "_latch_s", "checkpoint_active",
        "_high_water", "_low_water", "_lazywriter_wake", "_frame_freed",
        "_evicting",
    )

    def __init__(self, env: Environment, capacity: int, disk: DiskManager,
                 wal: WriteAheadLog, ssd_manager,
                 expand_reads: bool = False, telemetry=None,
                 partitions: int = 1, latch_seconds: float = 0.0):
        if capacity < 2:
            raise ValueError(f"capacity must be >= 2, got {capacity}")
        if partitions < 1:
            raise ValueError(f"partitions must be >= 1, got {partitions}")
        if latch_seconds < 0:
            raise ValueError(f"negative latch_seconds {latch_seconds}")
        self.env = env
        self.telemetry = telemetry or NULL_TELEMETRY
        self._tracer = self.telemetry.tracer
        self.capacity = capacity
        self.disk = disk
        self.wal = wal
        self.ssd = ssd_manager
        self.readahead = ReadAhead()
        #: SQL Server 2008 R2 expands every single-page read to an 8-page
        #: read until the pool is filled (§4.3.2, Figure 8's initial burst).
        self.expand_reads = expand_reads
        self.stats = BufferPoolStats()
        #: Frame-latch waits begun, by what held the latch, and the
        #: length of each wait that ended (``stats`` holds their totals;
        #: a few dozen per run, so the list stays small).
        self.latch_wait_counts: Dict[str, int] = {}
        self.latch_wait_lengths: List[float] = []
        #: Global LRU-2 ordering stamp, shared by every partition so the
        #: victim order is identical for any partition count.
        self._stamp = 0
        self.partitions = partitions
        self._nparts = partitions
        self._parts = [PoolPartition(i) for i in range(partitions)]
        self._latch_s = latch_seconds
        # Lazy-writer machinery: evictions run in a background process
        # (as SQL Server's lazywriter does) that keeps a cushion of free
        # frames, so a fetching client almost never waits for a dirty
        # page's write-out.  The cushion is sized to absorb a read-ahead
        # burst.
        self._high_water = min(
            max(2, capacity // 4),
            max(16, capacity // 32, self.readahead.batch_pages * 2))
        self._low_water = self._high_water // 2
        self.crash_reset()  # an empty pool and its lazy writer

    @property
    def _warmed(self) -> bool:
        """True once the pool has (effectively) filled.  The lazy writer
        keeps a free cushion afterwards, so 'full' means 'within two
        cushions of capacity', not literally zero free frames."""
        return self.used >= self.capacity - 2 * self._high_water

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def dirty_count(self) -> int:
        """Dirty frames currently in the pool."""
        return self._dirty

    @property
    def used(self) -> int:
        """Frames occupied plus slots reserved by in-flight misses."""
        return len(self.frames) + self._reserved

    def get_resident(self, page_id: PageId) -> Optional[Frame]:
        """The frame for ``page_id`` if currently resident, else None."""
        return self.frames.get(page_id)

    # ------------------------------------------------------------------
    # Fetch path
    # ------------------------------------------------------------------

    def pin_hit(self, page_id: PageId) -> Optional[Frame]:
        """Pin and return ``page_id``'s frame iff this needs no waiting.

        The no-I/O hit path of :meth:`fetch` as a plain call: hot
        callers try this first (after yielding :meth:`latch`, when a
        latch service time is modeled) and take ``fetch(...,
        latched=True)`` only when it returns None: a miss or a latched
        frame.
        """
        frame = self.frames.get(page_id)
        if frame is None or frame.io_busy is not None:
            return None
        frame.pin_count += 1
        # Inlined _touch: resident frames always own a live heap entry,
        # so a hit only bumps the LRU-2 history and the global stamp.
        frame.prev_access = frame.last_access
        frame.last_access = self.env._now
        self._stamp = stamp = self._stamp + 1
        frame.lru_stamp = stamp
        self.stats.hits += 1
        return frame

    def fetch(self, page_id: PageId, ctx=None, latched: bool = False):
        """Process step: pin and return the frame for ``page_id``.

        The caller must :meth:`unpin` the frame when done with it.
        ``ctx`` (a :class:`~repro.telemetry.TraceContext`) attributes
        every wait and I/O along the way to the causing transaction.
        ``latched`` says the caller already waited on :meth:`latch` for
        this access (it tried the hit path in between).
        """
        if self._latch_s and not latched:
            yield self.latch(page_id, ctx)
        env = self.env
        stats = self.stats
        while True:
            frame = self.pin_hit(page_id)
            if frame is not None:
                return frame
            frame = self.frames.get(page_id)
            if frame is not None:
                # Latch conflict: an I/O owns the frame (e.g. TAC's
                # write-to-SSD-after-read, §2.5) — wait and retry.
                busy = frame.io_busy
                if busy is RESERVED:
                    frame.io_busy = busy = env.event()
                started = env._now
                reason = frame.busy_reason or "unknown"
                stats.latch_waits += 1
                begun = self.latch_wait_counts
                begun[reason] = begun.get(reason, 0) + 1
                yield busy
                waited = env._now - started
                stats.latch_wait_time += waited
                by_reason = stats.latch_wait_by_reason
                by_reason[reason] = by_reason.get(reason, 0.0) + waited
                self.latch_wait_lengths.append(waited)
                if self._tracer.enabled:
                    self._tracer.complete("latch_wait", started, env._now,
                                          "bp", "buffer_pool",
                                          {"reason": reason}, ctx=ctx)
                continue

            pending = self._inflight.get(page_id)
            if pending is not None:
                started = env._now
                yield pending
                if self._tracer.enabled:
                    self._tracer.complete("inflight_wait", started,
                                          env._now, "bp", "buffer_pool",
                                          ctx=ctx)
                continue

            # Miss: this process performs the read.
            done = env.event()
            self._inflight[page_id] = done
            self._reserved += 1
            stats.misses += 1
            try:
                frame = yield from self._read_in(page_id, ctx=ctx)
            finally:
                # pop/max guards: a crash may have reset this bookkeeping
                # while the read was in flight (a dead process's
                # ``finally`` still runs, when its generator is closed).
                self._reserved = max(0, self._reserved - 1)
                self._inflight.pop(page_id, None)
                if done.callbacks:
                    done.succeed()
                else:
                    # No second fetcher piled up behind this miss; the
                    # event left the registry above, so nothing can
                    # reach it anymore — retire it off-queue.
                    done.settle()
            frame.pin_count = 1
            self._touch(frame)
            return frame

    def latch(self, page_id: PageId, ctx=None) -> float:
        """One page-table access under ``page_id``'s partition latch.

        FIFO single-server queue in virtual time: the request starts
        when the previous one completes and holds the latch for the
        modeled service time.  Returns the delay, wait plus service,
        that the caller yields: a latched hit is one sleep on the
        process's own queue entry, no generator and no timer.  Only
        called when ``latch_seconds > 0``.
        """
        part = self._parts[page_id % self._nparts]
        now = self.env._now
        start = part.busy_until
        if start < now:
            start = now
        service = self._latch_s
        part.busy_until = start + service
        wait = start - now
        if wait > 0.0:
            part.latch_waits += 1
            part.latch_wait_time += wait
            stats = self.stats
            stats.partition_latch_waits += 1
            stats.partition_latch_wait_time += wait
            if self._tracer.enabled:
                self._tracer.complete("partition_latch", now, start, "bp",
                                      "buffer_pool",
                                      {"partition": part.index}, ctx=ctx)
        return wait + service

    def _read_in(self, page_id: PageId, ctx=None):
        """Process step: bring a missing page in (SSD first, else disk;
        with ``expand_reads``, the aligned 8-page run around it until the
        pool has filled).

        Records an outer ``bp_miss`` span (for waterfall display; the
        analyzer sums only the leaf waits nested inside it).
        """
        miss_started = self.env._now
        step = self._ensure_free_frames(ctx)
        if step:
            yield from step
        ssd = self.ssd
        read = ssd.start_read(page_id, ctx)
        version = None
        if read is not None:
            try:
                yield read.event
            except IoFault as fault:
                version = yield from ssd.read_failed(read, fault)
            else:
                version = ssd.read_landed(read)
        from_ssd = version is not None
        if from_ssd:
            frame = self._install(page_id, version, False, True)
        else:
            self.stats.disk_reads += 1
            start, npages = page_id, 1
            if self.expand_reads and not self._warmed:
                start = page_id // 8 * 8
                npages = min(8, self.disk.npages - start)
            versions = yield from self.disk.read(start, npages,
                                                 sequential=False, ctx=ctx)
            for pid, version in enumerate(versions, start):
                if pid == page_id:
                    frame = self._install(pid, version, False, False)
                elif pid not in self._inflight and self.used < self.capacity:
                    self._install(pid, version, True, False)
            ssd.on_read_from_disk(frame)
        if self._tracer.enabled:
            self._tracer.complete("bp_miss", miss_started, self.env.now,
                                  "bp", "buffer_pool",
                                  {"page": page_id,
                                   "src": "ssd" if from_ssd else "disk"},
                                  ctx=ctx)
        return frame

    def _install(self, page_id: PageId, version: int, sequential: bool,
                 from_ssd: bool) -> Optional[Frame]:
        """Enter a page read in as a resident frame; None when it does not
        enter.  Every read into the pool builds its frame here, so the
        Figure 3 copy rules are stated once:

        * a version the SSD served that is newer than disk, with no valid
          SSD copy left, enters dirty: an exclusive design handed over its
          only copy, so checkpoints and evictions must keep the frame
          durable (its redo records were forced before the page reached
          the SSD, so no new WAL force is needed);
        * a disk copy older than a valid SSD copy is never installed: the
          page was dirtied and evicted into the SSD while the disk read
          ran, and a later fetch is served from the SSD.

        A page resident already keeps its frame.  A page read ahead
        (``sequential``) is filed for replacement now; a fetched one when
        the fetch pins it.
        """
        frames = self.frames
        if page_id in frames:
            return None
        dirty = False
        if from_ssd:
            self.stats.ssd_hits += 1
            dirty = (version > self.disk.disk_version(page_id)
                     and not self.ssd.contains_valid(page_id))
        elif self.ssd.contains_newer(page_id):
            return None
        frame = Frame(page_id, version, sequential)
        frames[page_id] = frame
        if dirty:
            frame.dirty = True
            self._dirty += 1
        if sequential:
            self._touch(frame)
        return frame

    # ------------------------------------------------------------------
    # Prefetch (read-ahead) path with multi-page trimming (§3.3.3)
    # ------------------------------------------------------------------

    def prefetch(self, start: PageId, npages: int, ctx=None):
        """Process step: bring ``[start, start+npages)`` in via read-ahead.

        Pages arrive unpinned and marked *sequential* (the admission
        signal).  Pages already resident or in flight are skipped.  The
        disk I/O is trimmed per §3.3.3: leading/trailing pages present in
        the SSD are dropped from the disk request; middle pages whose SSD
        copy is *newer* than disk are read from the SSD separately.
        """
        wanted = [
            pid for pid in range(start, start + npages)
            if pid not in self.frames and pid not in self._inflight
        ]
        if not wanted:
            return
        done = self.env.event()
        for pid in wanted:
            self._inflight[pid] = done
        self._reserved += len(wanted)
        try:
            yield from self._ensure_free_frames(ctx)
            plan = self.ssd.trim_plan(wanted)
            ios = []
            if plan.disk_count > 0:
                ios.append(self._disk_run(
                    plan.disk_start, plan.disk_count, plan.skip_in_run,
                    done))
            if plan.ssd_pages:
                ios.append((self._read_ahead_ssd, plan.ssd_pages))
            if ios:
                # One outer span covers the parallel I/O fan-out; the
                # inner reads run ctx-less so overlapping device time is
                # not double-attributed to the transaction.
                started = self.env._now
                yield self.env.gather(ios)
                if self._tracer.enabled:
                    self._tracer.complete("prefetch_wait", started,
                                          self.env.now, "bp", "buffer_pool",
                                          {"pages": len(wanted)}, ctx=ctx)
        finally:
            self._reserved = max(0, self._reserved - len(wanted))
            for pid in wanted:
                if self._inflight.get(pid) is done:
                    del self._inflight[pid]
            if done.callbacks:
                done.succeed()
            else:
                done.settle()

    def _disk_run(self, start: PageId, npages: int, skip: FrozenSet[PageId],
                  done: Event):
        """Process step: the read-ahead's one disk run; installs each of
        its pages nobody else brings in (``done`` marks this read-ahead's
        own pages in flight)."""
        versions = yield from self.disk.read(start, npages, sequential=True)
        inflight = self._inflight
        for pid, version in enumerate(versions, start):
            if pid in skip or inflight.get(pid, done) is not done:
                # A newer SSD copy is being read in parallel (§3.3.3), or
                # another reader's fetch installs the page when it
                # lands: the disk copy is discarded.
                continue
            frame = self._install_read_ahead(pid, version, False)
            if frame is not None:
                self.ssd.on_read_from_disk(frame)

    def _read_ahead_ssd(self, pages: List[PageId],
                        member: GatherMember) -> None:
        """A read-ahead's one call member for its pages planned from the
        SSD: start each page's read, and install the page from its
        completion (:meth:`_read_ahead_landed`); the member finishes
        with the last of them.  A page that must wait instead becomes a
        member of its own (``member.fork``): its copy vanished since
        planning (:meth:`_read_ahead_rest`), or a detach is in progress
        (:meth:`_read_ahead_detached`)."""
        reads: Dict[Event, SsdRead] = {}
        landed = partial(self._read_ahead_landed, reads, member)
        start_read = self.ssd.start_read
        for page_id in pages:
            read = start_read(page_id)
            if read is None:
                member.fork(self._read_ahead_rest(page_id))
            elif read.record is None:
                member.fork(self._read_ahead_detached(read))
            else:
                reads[read.event] = read
                read.event.callbacks.append(landed)
        if not reads:
            member.succeed()

    def _read_ahead_landed(self, reads: Dict[Event, SsdRead],
                           member: GatherMember, event: Event) -> None:
        read = reads.pop(event)
        if not event._ok:
            member.fork(self._read_ahead_rest(read.page_id, read,
                                              event._value))
        else:
            version = self.ssd.read_landed(read)
            if version is None:
                member.fork(self._read_ahead_rest(read.page_id))
            else:
                self._install_read_ahead(read.page_id, version, True)
        # ``_ok`` is set already if the call raised in the gather's entry
        # after it had started some reads: that failed the member.
        if not reads and member._ok is None:
            member.succeed()

    def _read_ahead_detached(self, read: SsdRead):
        """Process step: a planned SSD page whose read found a detach in
        progress waits it out; then the disk holds the newest copy."""
        yield read.event
        yield from self._read_ahead_rest(read.page_id)

    def _read_ahead_rest(self, page_id: PageId, read: Optional[SsdRead] = None,
                         fault: Optional[IoFault] = None):
        """Process step: the part of a planned SSD page's read that waits
        — the retries of a read that failed with ``fault``, then, unless
        they served it, the page's disk read.  The SSD copy vanished
        since planning (a concurrent update invalidated it, or
        replacement evicted it), the throttle declined an optional read,
        or the SSD failed: either way the disk holds the newest durable
        copy."""
        version = None
        if fault is not None:
            version = yield from self.ssd.read_failed(read, fault)
        from_ssd = version is not None
        if not from_ssd:
            versions = yield from self.disk.read(page_id, 1)
            version = versions[0]
        self._install_read_ahead(page_id, version, from_ssd)

    def _install_read_ahead(self, page_id: PageId, version: int,
                            from_ssd: bool) -> Optional[Frame]:
        """A page read ahead enters through :meth:`_install`; one that
        does is counted as prefetched."""
        frame = self._install(page_id, version, True, from_ssd)
        if frame is not None:
            self.stats.prefetched_pages += 1
        return frame

    # ------------------------------------------------------------------
    # Update path
    # ------------------------------------------------------------------

    def mark_dirty(self, frame: Frame) -> int:
        """Record an update to a pinned frame; returns the redo LSN.

        Bumps the page version, appends the redo record, and invalidates
        any SSD copy (§2.2: "the copy of the page in the SSD is
        invalidated by the SSD manager").
        """
        if frame.pin_count <= 0:
            raise ValueError(f"updating unpinned frame {frame!r}")
        frame.version += 1
        frame.page_lsn = self.wal.append(frame.page_id, frame.version)
        if not frame.dirty:
            frame.rec_lsn = frame.page_lsn
            frame.dirty = True
            self._dirty += 1
        self.ssd.invalidate(frame.page_id)
        return frame.page_lsn

    def mark_clean(self, frame: Frame) -> None:
        """A flushed frame's memory copy now matches durable storage.

        Used by the checkpointer; keeps the incremental dirty count in
        step and resets the recovery LSN.  A frame evicted while its
        checkpoint write ran left the count when it left the pool.
        """
        if frame.dirty:
            frame.dirty = False
            if self.frames.get(frame.page_id) is frame:
                self._dirty -= 1
        frame.rec_lsn = -1

    def unpin(self, frame: Frame) -> None:
        """Release one pin."""
        if frame.pin_count <= 0:
            raise ValueError(f"unpinning unpinned frame {frame!r}")
        frame.pin_count -= 1

    def new_page(self, page_id: PageId, ctx=None):
        """Create a page in the pool without reading it (B+-tree splits).

        The frame starts dirty — this is the "dirty page generated
        on-the-fly" case of §4.2 that TAC never caches.
        """
        if page_id in self.frames or page_id in self._inflight:
            raise ValueError(f"page {page_id} already resident")
        self._reserved += 1
        try:
            yield from self._ensure_free_frames(ctx)
        finally:
            self._reserved -= 1
        frame = Frame(page_id, version=0, sequential=False)
        frame.pin_count = 1
        frame.dirty = True
        self._dirty += 1
        frame.page_lsn = self.wal.append(page_id, 0)
        self.frames[page_id] = frame
        self._touch(frame)
        return frame

    # ------------------------------------------------------------------
    # Replacement (LRU-2: one lazy entry per frame, in two runs or a heap)
    # ------------------------------------------------------------------

    def _touch(self, frame: Frame) -> None:
        frame.prev_access = frame.last_access
        frame.last_access = self.env._now
        self._stamp = stamp = self._stamp + 1
        frame.lru_stamp = stamp
        if frame.heap_stamp == 0:
            # First touch after install: its single live entry, keyed
            # 0.0 like every first entry, joins the sorted run's tail.
            frame.heap_stamp = stamp
            self._fresh.append((frame.prev_access, stamp, frame.page_id))

    def _pick_victims(self, want: int) -> List[Frame]:
        """Take up to ``want`` LRU-2 victims off the replacement order.

        The least of the two runs' heads and the heap's top is taken
        each step: garbage entries (evicted or superseded frames) are
        dropped and entries of since-touched frames filed again under
        their new key and stamp — strictly larger, so the loop makes
        progress.  Pinned or latched minima are set aside and go into
        the heap after the batch, exactly as the eager heap deferred
        them.
        """
        frames = self.frames
        heap, fresh, rekeyed = self._heap, self._fresh, self._rekeyed
        victims: List[Frame] = []
        deferred: List[Tuple[float, int, PageId]] = []
        while want and (heap or fresh or rekeyed):
            source = heap
            if fresh and (not source or fresh[0] < source[0]):
                source = fresh
            if rekeyed and (not source or rekeyed[0] < source[0]):
                source = rekeyed
            entry = heappop(heap) if source is heap else source.popleft()
            frame = frames.get(entry[2])
            if frame is None or frame.heap_stamp != entry[1]:
                continue  # garbage: frame gone or superseded
            if frame.lru_stamp != entry[1]:
                frame.heap_stamp = frame.lru_stamp
                entry = (frame.prev_access, frame.lru_stamp, entry[2])
                if rekeyed and entry < rekeyed[-1]:
                    heappush(heap, entry)
                else:
                    rekeyed.append(entry)
            elif frame.pin_count > 0 or frame.io_busy is not None:
                deferred.append(entry)
            else:
                victims.append(frame)
                want -= 1
        for entry in deferred:
            heappush(heap, entry)
        return victims

    # ------------------------------------------------------------------
    # Lazy writer (background eviction)
    # ------------------------------------------------------------------

    @property
    def free_frames(self) -> int:
        """Unoccupied, unreserved frame slots."""
        return self.capacity - self.used

    def _kick_lazywriter(self) -> None:
        wake = self._lazywriter_wake
        if wake is not None and wake._value is _PENDING:
            wake.succeed()

    def _lazywriter(self):
        """Keep ``free_frames`` near the high-water mark.

        Evictions are spawned as independent processes (no barrier): one
        slow dirty write-out must not hold back the rest of the cushion.
        ``_evicting`` counts write-outs in flight so the target is not
        overshot.
        """
        while True:
            deficit = self._high_water - self.free_frames - self._evicting
            stuck = False
            if deficit > 0:
                victims = self._pick_victims(deficit)
                for victim in victims:
                    victim.io_busy = RESERVED  # reserve first
                    victim.busy_reason = "eviction"
                self._evicting += len(victims)
                if victims:
                    self.env.spawn_all(self._evict(victim)
                                       for victim in victims)
                if len(victims) < deficit:
                    stuck = self.free_frames + self._evicting <= 0
            if stuck:
                # Everything pinned/busy — wait for the world to change.
                yield 0.0005
                continue
            self._lazywriter_wake = self.env.event()
            # Eviction pressure has drained: batching designs (LS) flush
            # any partial admission batch now rather than holding the
            # just-spawned evictions hostage to the batch timeout.
            self.ssd.admission_flush_hint()
            yield self._lazywriter_wake

    def _ensure_free_frames(self, ctx=None):
        """Step: wait until the caller's (already reserved) claim fits
        within capacity — ``()`` when it fits at the call.

        Callers reserve their slots *before* calling this, so the claim
        is part of :attr:`used` already — counting it again would let a
        handful of concurrent prefetches reserve the whole pool and then
        deadlock waiting for the space their own reservations hold.

        The lazy writer normally keeps a cushion, so this returns ``()``;
        under pressure the returned generator blocks until evictions
        complete — that blocked time is recorded as a ``free_wait`` span
        under ``ctx``.
        """
        if self.free_frames < self._low_water:
            self._kick_lazywriter()
        if self.used <= self.capacity:
            return ()
        return self._wait_free_frames(ctx)

    def _wait_free_frames(self, ctx):
        """Process step: the blocking half of :meth:`_ensure_free_frames`."""
        started = self.env.now
        try:
            while self.used > self.capacity:
                if not self.frames and self._evicting == 0:
                    # Nothing exists to evict: reservations alone overcommit
                    # the pool (a cold-start burst).  Proceed — the overshoot
                    # is bounded by the number of concurrent reads and the
                    # lazy writer reclaims it as frames materialize.
                    return
                self._kick_lazywriter()
                yield self._frame_freed
        finally:
            if self._tracer.enabled:
                self._tracer.complete("free_wait", started, self.env.now,
                                      "bp", "buffer_pool", ctx=ctx)

    def _evict(self, victim: Frame):
        """Step: hand one reserved victim to the design and drop it.

        ``()`` when the design finished with a clean page at the call
        (already cached, not admitted, TAC): the frame is dropped here.
        Otherwise the generator that waits for the write-out, and drops
        the frame after it.
        """
        if victim.sequential and victim.prev_access == 0.0:
            # Touched once, when it was read ahead: no fetch pinned it.
            self.stats.prefetched_unused += 1
        if victim.dirty:
            return self._write_out(victim, None)
        self.stats.evictions_clean += 1
        step = self.ssd.on_evict_clean(victim)
        if step:
            return self._write_out(victim, step)
        tracer = self._tracer
        if tracer.enabled:
            now = self.env.now
            tracer.complete("evict_clean", now, now, "bp", "buffer_pool",
                            {"page": victim.page_id})
        self._drop_victim(victim)
        return ()

    def _write_out(self, victim: Frame, clean_step):
        """Process step: wait for ``victim``'s write-out — ``clean_step``,
        the design's for a clean page, or else the dirty page's own —
        then drop it."""
        tracer = self._tracer
        started = self.env.now
        try:
            if clean_step:
                yield from clean_step
                if tracer.enabled:
                    tracer.complete("evict_clean", started, self.env.now,
                                    "bp", "buffer_pool",
                                    {"page": victim.page_id})
            else:
                self.stats.evictions_dirty += 1
                # WAL rule: log records for the page must be durable before
                # the page goes to the SSD or disk (§2.4).  Skip the
                # generator when a group commit already covered the LSN
                # (force() would return without yielding anyway).
                wal = self.wal
                if victim.page_lsn > wal.flushed_lsn:
                    yield from wal.force(victim.page_lsn, ctx=EVICTION_CTX)
                yield from self.ssd.on_evict_dirty(victim)
                if tracer.enabled:
                    tracer.complete("evict_dirty", started, self.env.now,
                                    "bp", "buffer_pool",
                                    {"page": victim.page_id})
        finally:
            self._drop_victim(victim)

    def _drop_victim(self, victim: Frame) -> None:
        """The end of an eviction: the frame leaves the pool, its latch
        opens and a fetcher waiting on it resumes."""
        page_id = victim.page_id
        frames = self.frames
        if frames.get(page_id) is victim:
            del frames[page_id]
            if victim.dirty:
                self._dirty -= 1
        busy = victim.io_busy
        victim.io_busy = None
        victim.busy_reason = None
        if busy is not RESERVED:
            # A fetcher turned the reservation into an event and waits.
            busy.succeed()
        if self._evicting:
            self._evicting -= 1
        # Rotate the free-frame event only when somebody waits: an
        # un-observed free needs no event (a later waiter subscribes to
        # the same object and the next free wakes it, exactly as the
        # eager rotation did).
        freed = self._frame_freed
        if freed.callbacks:
            self._frame_freed = self.env.event()
            freed.succeed()
        self._kick_lazywriter()

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------

    def dirty_frames(self) -> List[Frame]:
        """Snapshot of currently dirty frames (for sharp checkpoints)."""
        return [f for f in self.frames.values() if f.dirty]

    def check_invariants(self) -> None:
        """Assert the pool's tallies add up right now: the dirty count
        matches the frames, each resident frame not being evicted has
        exactly one live replacement entry (a victim's left the heap when
        it was picked), the claim counters are not negative, and only a
        frame being evicted is reserved.  And the Figure 3 rule
        :meth:`_install` keeps: a clean frame newer than disk has a
        valid SSD copy of its version (else nothing would write it
        back), unless a detach is in progress."""
        frames = self.frames
        dirty = sum(frame.dirty for frame in frames.values())
        assert self._dirty == dirty, (self._dirty, dirty)
        filed = Counter(page_id for _, stamp, page_id
                        in [*self._heap, *self._fresh, *self._rekeyed]
                        if page_id in frames
                        and frames[page_id].heap_stamp == stamp)
        evicting = [page_id for page_id, frame in frames.items()
                    if frame.busy_reason == "eviction"]
        misfiled = [page_id for page_id, frame in frames.items()
                    if filed[page_id] != (frame.busy_reason != "eviction")]
        assert not misfiled, f"misfiled frames: {misfiled[:5]}"
        assert self._reserved >= 0, self._reserved
        assert len(evicting) <= self._evicting, (evicting, self._evicting)
        stray = [page_id for page_id, frame in frames.items()
                 if frame.io_busy is RESERVED
                 and frame.busy_reason != "eviction"]
        assert not stray, f"reserved outside an eviction: {stray[:5]}"
        ssd = self.ssd
        if ssd.detached and not ssd._detach_complete.triggered:
            return
        disk_version = self.disk.disk_version
        lookup_valid = ssd.table.lookup_valid
        orphans = [frame for page_id, frame in frames.items()
                   if not frame.dirty
                   and frame.version > disk_version(page_id)
                   and getattr(lookup_valid(page_id), "version",
                               None) != frame.version]
        assert not orphans, (
            "clean and newer than disk with no SSD copy of its version: "
            + ", ".join(f"page {frame.page_id} v{frame.version}"
                        for frame in orphans[:5]))

    def crash_reset(self) -> None:
        """Build the pool's volatile state: no frame, no miss or eviction
        in flight, a fresh lazy writer.  The constructor ends here, and
        so does a crash, after
        :meth:`~repro.sim.environment.Environment.wipe` killed every
        in-flight process — the lazy writer and any eviction write-outs
        included — with the counters and wake-up events they owned.
        """
        self.frames: Dict[PageId, Frame] = {}
        self._inflight: Dict[PageId, Event] = {}
        self._reserved = 0  # frame slots claimed by in-flight misses
        self._dirty = 0  # dirty frames, maintained incrementally
        #: The replacement order: ``(prev_access, stamp, page_id)``
        #: entries, one live entry per resident frame, in a heap or in
        #: one of two sorted runs (first entries; re-keyed ones).
        self._heap: List[Tuple[float, int, PageId]] = []
        self._fresh: deque[Tuple[float, int, PageId]] = deque()
        self._rekeyed: deque[Tuple[float, int, PageId]] = deque()
        for part in self._parts:
            part.reset()
        #: Set by the checkpointer while a sharp checkpoint is running.
        self.checkpoint_active = False
        self._evicting = 0  # eviction write-outs in flight
        self._lazywriter_wake: Optional[Event] = None
        self._frame_freed = self.env.event()
        self.env.spawn(self._lazywriter())
