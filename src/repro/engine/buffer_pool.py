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
``partitions`` shards, each owning its slice of the replacement heap, a
FIFO latch domain with a modeled service time, and its occupancy
accounting.  The backing page-table dict is shared storage (a single
C-level hash map — per-shard dicts only add constant overhead in the
host language), so ``frames`` keeps its plain-``dict`` interface.
Victim selection takes the global minimum across the shard heap tops by
``(prev_access, stamp, page_id)``, which makes the eviction order — and
therefore the whole event trace when the latch service time is zero —
independent of the partition count.

Replacement bookkeeping is O(1) per access: each resident frame keeps
exactly one live heap entry (identified by ``Frame.heap_stamp``); a
touch only bumps ``Frame.lru_stamp``, and the entry is re-keyed lazily
when it surfaces during victim selection.  Per-frame keys
(``prev_access``) only ever grow, so a surfaced stale entry re-sinks
below any current minimum and selection order matches the eager
entry-per-touch heap exactly.

All methods named as process steps (``fetch``, ``prefetch``, …) are
generators meant to be driven with ``yield from`` inside a simulation
process.  :meth:`BufferPool.pin_hit` is the exception by design: the
no-I/O hit path completes without a process switch, so hot callers can
pin without paying a generator round-trip.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush, heapreplace
from typing import Dict, List, Optional, Tuple

from repro.sim import Environment, Event, Timeout
from repro.engine.disk_manager import DiskManager
from repro.engine.page import Frame, PageId
from repro.engine.readahead import ReadAhead
from repro.engine.wal import WriteAheadLog
from repro.telemetry import EVICTION_CTX, NULL_TELEMETRY


class BufferPoolStats:
    """Cumulative buffer-pool counters."""

    __slots__ = (
        "hits", "misses", "ssd_hits", "disk_reads", "prefetched_pages",
        "evictions_clean", "evictions_dirty", "latch_wait_time",
        "latch_waits", "latch_wait_by_reason", "partition_latch_waits",
        "partition_latch_wait_time",
    )

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self.ssd_hits = 0          # misses served from the SSD
        self.disk_reads = 0        # misses served from the disk
        self.prefetched_pages = 0  # pages brought in by read-ahead
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
        """Fraction of buffer-pool misses served by the SSD."""
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
    """One buffer-pool shard: replacement heap, latch domain, occupancy.

    The latch is a FIFO single-server queue in virtual time:
    ``busy_until`` is when the last queued page-table access completes,
    so an arrival at ``now`` starts at ``max(now, busy_until)`` and the
    whole queue never needs materializing (DESIGN.md §13).
    """

    __slots__ = ("index", "heap", "busy_until", "latch_waits",
                 "latch_wait_time", "resident")

    def __init__(self, index: int):
        self.index = index
        self.latch_waits = 0
        self.latch_wait_time = 0.0
        self.reset()

    def reset(self) -> None:
        """An empty shard behind a free latch (new, or after a crash)."""
        #: Replacement heap slice: ``(prev_access, stamp, page_id)``
        #: entries, one live entry per resident frame of this shard.
        self.heap: List[Tuple[float, int, PageId]] = []
        self.busy_until = 0.0
        #: Frames of this shard currently resident (its share of the
        #: global free list).
        self.resident = 0


class BufferPool:
    """A fixed-capacity page cache over the disk manager and SSD manager.

    ``ssd_manager`` is any object implementing the design protocol (see
    :class:`repro.core.ssd_manager.SsdManagerBase`); the ``noSSD``
    configuration passes a :class:`repro.core.cw.NoSsdManager`.

    ``partitions`` shards the replacement and latch structures by
    ``page_id % partitions``; ``latch_seconds`` is the modeled service
    time of one page-table access under a partition latch.  The default
    of ``0.0`` keeps the fetch path free of latch events, so traces are
    byte-identical for every partition count; a non-zero value makes
    ``--partitions`` timing-relevant (per-tenant tail latency drops as
    the latch domains multiply).
    """

    __slots__ = (
        "env", "telemetry", "_tracer", "capacity", "disk",
        "wal", "ssd", "readahead", "expand_reads", "stats",
        "latch_wait_counts", "latch_wait_lengths", "frames",
        "_inflight", "_reserved", "_stamp", "_dirty", "partitions",
        "_nparts", "_parts", "_latch_s", "checkpoint_active",
        "_high_water", "_low_water", "_lazywriter_wake", "_frame_freed",
        "_evicting",
    )

    def __init__(self, env: Environment, capacity: int, disk: DiskManager,
                 wal: WriteAheadLog, ssd_manager,
                 readahead: Optional[ReadAhead] = None,
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
        registry = self.telemetry.registry
        self._tracer = self.telemetry.tracer
        registry.counter(
            "bp_requests_total", "Page requests by how they were served",
            lambda: {("hit",): self.stats.hits,
                     ("ssd_hit",): self.stats.ssd_hits,
                     ("disk_read",): self.stats.disk_reads},
            labelnames=("result",))
        registry.counter(
            "bp_evictions_total", "Frames evicted by the lazy writer",
            lambda: {("clean",): self.stats.evictions_clean,
                     ("dirty",): self.stats.evictions_dirty},
            labelnames=("kind",))
        registry.counter(
            "bp_latch_waits_total", "Fetches that waited on a frame latch",
            lambda: {(reason,): count for reason, count
                     in self.latch_wait_counts.items()},
            labelnames=("reason",))
        registry.histogram(
            "bp_latch_wait_seconds", "Time spent waiting on frame latches",
            lambda: self.latch_wait_lengths)
        registry.counter(
            "bp_prefetched_pages_total", "Pages brought in by read-ahead",
            lambda: self.stats.prefetched_pages)
        registry.gauge("bp_dirty_frames", "Dirty frames in the buffer pool",
                       lambda: self.dirty_count)
        registry.gauge("bp_used_frames", "Occupied + reserved frame slots",
                       lambda: self.used)
        self.capacity = capacity
        self.disk = disk
        self.wal = wal
        self.ssd = ssd_manager
        self.readahead = readahead or ReadAhead()
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
        if latch_seconds > 0.0:
            registry.counter(
                "bp_partition_latch_waits_total",
                "Fetches that queued on a partition latch",
                lambda: {(str(part.index),): part.latch_waits
                         for part in self._parts},
                labelnames=("partition",))
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

    def partition_occupancy(self) -> List[int]:
        """Resident frames per partition (the sharded free-list view)."""
        return [part.resident for part in self._parts]

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
        frames = self.frames
        stats = self.stats
        while True:
            frame = frames.get(page_id)
            if frame is not None:
                if frame.io_busy is not None:
                    # Latch conflict: an I/O owns the frame (e.g. TAC's
                    # write-to-SSD-after-read, §2.5) — wait and retry.
                    started = env._now
                    reason = frame.busy_reason or "unknown"
                    stats.latch_waits += 1
                    begun = self.latch_wait_counts
                    begun[reason] = begun.get(reason, 0) + 1
                    yield frame.io_busy
                    waited = env._now - started
                    stats.latch_wait_time += waited
                    by_reason = stats.latch_wait_by_reason
                    by_reason[reason] = by_reason.get(reason, 0.0) + waited
                    self.latch_wait_lengths.append(waited)
                    if self._tracer.enabled:
                        self._tracer.complete("latch_wait", started,
                                              env._now, "bp",
                                              "buffer_pool",
                                              {"reason": reason}, ctx=ctx)
                    continue
                frame.pin_count += 1
                frame.prev_access = frame.last_access
                frame.last_access = env._now
                self._stamp = stamp = self._stamp + 1
                frame.lru_stamp = stamp
                stats.hits += 1
                return frame

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

    def latch(self, page_id: PageId, ctx=None) -> Timeout:
        """One page-table access under ``page_id``'s partition latch.

        FIFO single-server queue in virtual time: the request starts
        when the previous one completes and holds the latch for the
        modeled service time.  Returns the timer the caller yields, so
        a latched hit costs one event and no generator.  Only called
        when ``latch_seconds > 0``.
        """
        part = self._parts[page_id % self._nparts]
        env = self.env
        now = env._now
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
        return Timeout(env, wait + service)

    def _read_in(self, page_id: PageId, ctx=None):
        """Process step: bring a missing page in (SSD first, else disk).

        Records an outer ``bp_miss`` span (for waterfall display; the
        analyzer sums only the leaf waits nested inside it).
        """
        miss_started = self.env.now
        yield from self._ensure_free_frames(ctx=ctx)
        version = yield from self.ssd.try_read(page_id, ctx=ctx)
        if version is not None:
            self.stats.ssd_hits += 1
            if self._tracer.enabled:
                self._tracer.complete("bp_miss", miss_started, self.env.now,
                                      "bp", "buffer_pool",
                                      {"page": page_id, "src": "ssd"},
                                      ctx=ctx)
            frame = Frame(page_id, version, sequential=False)
            if (version > self.disk.disk_version(page_id)
                    and not self.ssd.contains_valid(page_id)):
                # An *exclusive* SSD design just handed us its only copy
                # of a version newer than disk: the memory frame is now
                # the authoritative copy and must be treated as dirty so
                # checkpoints and evictions keep it durable.  (The redo
                # records for this version were forced before the page
                # ever reached the SSD, so no new WAL force is needed.)
                frame.dirty = True
                self._dirty += 1
            self.frames[page_id] = frame
            return frame

        self.stats.disk_reads += 1
        if self.expand_reads and not self._warmed:
            frame = yield from self._expanded_read(page_id, ctx=ctx)
        else:
            versions = yield from self.disk.read(page_id, 1, sequential=False,
                                                 ctx=ctx)
            frame = Frame(page_id, versions[0], sequential=False)
            self.frames[page_id] = frame
        self.ssd.on_read_from_disk(frame)
        if self._tracer.enabled:
            self._tracer.complete("bp_miss", miss_started, self.env.now,
                                  "bp", "buffer_pool",
                                  {"page": page_id, "src": "disk"},
                                  ctx=ctx)
        return frame

    def _expanded_read(self, page_id: PageId, ctx=None):
        """Read an aligned 8-page run to fill the pool faster (cold start)."""
        span = 8
        start = (page_id // span) * span
        npages = min(span, self.disk.npages - start)
        versions = yield from self.disk.read(start, npages, sequential=False,
                                             ctx=ctx)
        frame = None
        for offset, version in enumerate(versions):
            pid = start + offset
            if pid == page_id:
                frame = Frame(pid, version, sequential=False)
                self.frames[pid] = frame
            elif (pid not in self.frames and pid not in self._inflight
                  and self.used < self.capacity):
                extra = Frame(pid, version, sequential=True)
                self.frames[pid] = extra
                self._touch(extra)
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
            yield from self._ensure_free_frames(ctx=ctx)
            plan = self.ssd.trim_plan(wanted)
            ios = []
            if plan.disk_count > 0:
                ios.append(self._disk_run(
                    plan.disk_start, plan.disk_count, plan.skip_in_run))
            for pid in plan.ssd_pages:
                ios.append(self._ssd_single(pid))
            if ios:
                # One outer span covers the parallel I/O fan-out; the
                # inner reads run ctx-less so overlapping device time is
                # not double-attributed to the transaction.
                started = self.env.now
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

    def _disk_run(self, start: PageId, npages: int, skip=frozenset()):
        versions = yield from self.disk.read(start, npages, sequential=True)
        for offset, version in enumerate(versions):
            pid = start + offset
            if pid in self.frames or pid in skip:
                # Resident already, or a newer SSD copy is being read in
                # parallel: the stale disk copy is discarded (§3.3.3).
                continue
            if self.ssd.contains_newer(pid):
                # The page was dirtied and evicted into the SSD *while*
                # this disk I/O was in flight: the disk copy is stale.
                # Drop it; a later fetch will be served from the SSD.
                continue
            frame = Frame(pid, version, sequential=True)
            self.frames[pid] = frame
            self._touch(frame)
            self.stats.prefetched_pages += 1
            self.ssd.on_read_from_disk(frame)

    def _ssd_single(self, page_id: PageId):
        version = yield from self.ssd.try_read(page_id)
        from_ssd = version is not None
        if not from_ssd:
            # The SSD copy vanished between planning and this read (a
            # concurrent update invalidated it, or replacement evicted
            # it) or the throttle declined an optional read.  Either
            # way the disk holds the newest durable copy: fall back.
            versions = yield from self.disk.read(page_id, 1)
            version = versions[0]
        if page_id in self.frames:
            return
        frame = Frame(page_id, version, sequential=True)
        self.frames[page_id] = frame
        self._touch(frame)
        self.stats.prefetched_pages += 1
        if from_ssd:
            self.stats.ssd_hits += 1

    # ------------------------------------------------------------------
    # Update path
    # ------------------------------------------------------------------

    def mark_dirty(self, frame: Frame, txn_id: Optional[int] = None) -> int:
        """Record an update to a pinned frame; returns the redo LSN.

        Bumps the page version, appends the redo record, and invalidates
        any SSD copy (§2.2: "the copy of the page in the SSD is
        invalidated by the SSD manager").
        """
        if frame.pin_count <= 0:
            raise ValueError(f"updating unpinned frame {frame!r}")
        frame.version += 1
        frame.page_lsn = self.wal.append(frame.page_id, frame.version,
                                         txn_id=txn_id)
        if not frame.dirty:
            frame.rec_lsn = frame.page_lsn
            frame.dirty = True
            self._dirty += 1
        self.ssd.invalidate(frame.page_id)
        return frame.page_lsn

    def mark_clean(self, frame: Frame) -> None:
        """A flushed frame's memory copy now matches durable storage.

        Used by the checkpointer; keeps the incremental dirty count in
        step and resets the recovery LSN.
        """
        if frame.dirty:
            frame.dirty = False
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
            yield from self._ensure_free_frames(ctx=ctx)
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
    # Replacement (LRU-2, partitioned lazy heap: one entry per frame)
    # ------------------------------------------------------------------

    def _touch(self, frame: Frame) -> None:
        frame.prev_access = frame.last_access
        frame.last_access = self.env._now
        self._stamp = stamp = self._stamp + 1
        frame.lru_stamp = stamp
        if frame.heap_stamp == 0:
            # First touch after install: enheap the frame's single live
            # entry and charge its shard's occupancy.
            frame.heap_stamp = stamp
            part = self._parts[frame.page_id % self._nparts]
            part.resident += 1
            heappush(part.heap, (frame.prev_access, stamp, frame.page_id))

    def _pick_victims(self, want: int) -> List[Frame]:
        """Pop up to ``want`` LRU-2 victims across all partitions.

        A k-way merge of the shard heaps: each is cleaned to a *current*
        top once (:meth:`_clean_top`), the tops are merged by
        ``(prev_access, stamp, page_id)``, and only the shard a minimum
        was popped from is cleaned again — which reproduces the
        single-heap victim order for any partition count.  Pinned or
        latched minima are set aside and re-enheaped after the batch,
        exactly as the eager heap deferred them.
        """
        frames = self.frames
        tops = [(part.heap[0], part.heap) for part in self._parts
                if self._clean_top(part.heap)]
        heapify(tops)
        victims: List[Frame] = []
        deferred: List[Tuple[List[Tuple[float, int, PageId]],
                             Tuple[float, int, PageId]]] = []
        while tops and len(victims) < want:
            entry, heap = tops[0]
            heappop(heap)
            frame = frames[entry[2]]
            if frame.pin_count > 0 or frame.io_busy is not None:
                deferred.append((heap, entry))
            else:
                victims.append(frame)
            if self._clean_top(heap):
                heapreplace(tops, (heap[0], heap))
            else:
                heappop(tops)
        for heap, entry in deferred:
            heappush(heap, entry)
        return victims

    def _clean_top(self, heap: List[Tuple[float, int, PageId]]) -> bool:
        """Make ``heap[0]`` a current entry; False if the shard is empty.

        Garbage entries (evicted or superseded frames) are dropped and
        entries of since-touched frames are re-keyed in place.
        """
        frames = self.frames
        while heap:
            entry = heap[0]
            frame = frames.get(entry[2])
            if frame is None or frame.heap_stamp != entry[1]:
                heappop(heap)  # garbage: frame gone or superseded
            elif frame.lru_stamp != entry[1]:
                # Touched since enheaped: re-key lazily.  The new
                # key/stamp are strictly larger, so the entry sinks (or
                # stays a *current* top) and the loop makes progress.
                stamp = frame.lru_stamp
                frame.heap_stamp = stamp
                heapreplace(heap, (frame.prev_access, stamp, entry[2]))
            else:
                return True
        return False

    # ------------------------------------------------------------------
    # Lazy writer (background eviction)
    # ------------------------------------------------------------------

    @property
    def free_frames(self) -> int:
        """Unoccupied, unreserved frame slots."""
        return self.capacity - self.used

    def _kick_lazywriter(self) -> None:
        if (self._lazywriter_wake is not None
                and not self._lazywriter_wake.triggered):
            self._lazywriter_wake.succeed()

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
                    victim.io_busy = self.env.event()  # reserve first
                    victim.busy_reason = "eviction"
                self._evicting += len(victims)
                self.env.spawn_all(self._evict(victim) for victim in victims)
                if len(victims) < deficit:
                    stuck = self.free_frames + self._evicting <= 0
            if stuck:
                # Everything pinned/busy — wait for the world to change.
                yield self.env.timeout(0.0005)
                continue
            self._lazywriter_wake = self.env.event()
            # Eviction pressure has drained: batching designs (LS) flush
            # any partial admission batch now rather than holding the
            # just-spawned evictions hostage to the batch timeout.
            self.ssd.admission_flush_hint()
            yield self._lazywriter_wake

    def _signal_freed(self) -> None:
        # Rotate only when somebody waits: an un-observed free needs no
        # event (a later waiter subscribes to the same object and the
        # next signal wakes it, exactly as the eager rotation did).
        event = self._frame_freed
        if event.callbacks:
            self._frame_freed = self.env.event()
            event.succeed()

    def _ensure_free_frames(self, needed: int = 0, ctx=None):
        """Process step: wait until the caller's (already reserved) claim
        fits within capacity.

        Callers reserve their slots *before* calling this, so the claim
        is part of :attr:`used` already — counting it again would let a
        handful of concurrent prefetches reserve the whole pool and then
        deadlock waiting for the space their own reservations hold.
        ``needed`` covers only *additional* un-reserved slots.

        The lazy writer normally keeps a cushion, so this returns without
        yielding; under pressure it blocks until evictions complete — that
        blocked time is recorded as a ``free_wait`` span under ``ctx``.
        """
        if self.free_frames - needed < self._low_water:
            self._kick_lazywriter()
        if self.used + needed <= self.capacity:
            return
        started = self.env.now
        try:
            while self.used + needed > self.capacity:
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
        """Process step: write out (per design) and drop one frame."""
        busy = victim.io_busy or self.env.event()
        victim.io_busy = busy
        victim.busy_reason = "eviction"
        tracer = self._tracer
        started = self.env.now
        try:
            if victim.dirty:
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
            else:
                self.stats.evictions_clean += 1
                yield from self.ssd.on_evict_clean(victim)
                if tracer.enabled:
                    tracer.complete("evict_clean", started, self.env.now,
                                    "bp", "buffer_pool",
                                    {"page": victim.page_id})
        finally:
            if self.frames.get(victim.page_id) is victim:
                del self.frames[victim.page_id]
                part = self._parts[victim.page_id % self._nparts]
                part.resident -= 1
                if victim.dirty:
                    self._dirty -= 1
            victim.io_busy = None
            victim.busy_reason = None
            if busy.callbacks:
                busy.succeed()
            else:
                # No fetcher hit the latch during the write-out; the
                # frame no longer references the event, so retire it
                # off-queue.
                busy.settle()
            self._evicting = max(0, self._evicting - 1)
            self._signal_freed()
            self._kick_lazywriter()

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------

    def dirty_frames(self) -> List[Frame]:
        """Snapshot of currently dirty frames (for sharp checkpoints)."""
        return [f for f in self.frames.values() if f.dirty]

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
        for part in self._parts:
            part.reset()
        #: Set by the checkpointer while a sharp checkpoint is running.
        self.checkpoint_active = False
        self._evicting = 0  # eviction write-outs in flight
        self._lazywriter_wake: Optional[Event] = None
        self._frame_freed = self.env.event()
        self.env.spawn(self._lazywriter())
