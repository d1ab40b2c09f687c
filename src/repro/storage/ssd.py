"""Flash SSD model.

Models the paper's 160 GB SLC Fusion-io card as a multi-channel flash
device: several independent channels, nearly seek-free access, and only a
modest gap between random and sequential throughput (the property that
makes caching *randomly* accessed pages on it profitable while leaving
sequential scans to the striped disks).

Constants are calibrated to the paper's Table 1 aggregates at 8 KB:
12,182 random-read / 15,980 sequential-read / 12,374 random-write /
14,965 sequential-write IOPS.

Two service-time models are available:

* **Black box** (default, ``ftl=None``): one flat latency per op kind,
  exactly the paper-era model.  Behaviour is unchanged from before the
  FTL existed.
* **FTL-backed** (``ftl=FtlConfig(...)``): reads, programs, and erases
  are billed separately, and every host write is translated by a
  :class:`~repro.storage.ftl.FlashTranslationLayer` into the NAND work
  it really costs — including garbage-collection migration and erases,
  which land as latency on the write that triggered them.  This is what
  lets ``repro analyze`` report per-design write amplification.
"""

from __future__ import annotations

from typing import Optional

from repro.sim import Environment
from repro.storage.device import Device
from repro.storage.ftl import FlashTranslationLayer, FtlConfig
from repro.storage.request import IORequest

#: Number of independent flash channels the card exposes.
DEFAULT_CHANNELS = 8

# Per-channel service times (seconds) derived from Table 1 aggregates:
#   aggregate IOPS = channels / service_time  =>  service = channels / IOPS.
_PER_PAGE_SEQ_READ = DEFAULT_CHANNELS / 15_980.0
_PER_PAGE_SEQ_WRITE = DEFAULT_CHANNELS / 14_965.0
# A random 1-page op costs the sequential per-page time plus a small
# lookup/translation overhead that accounts for the random-vs-seq gap.
_RANDOM_READ_OVERHEAD = DEFAULT_CHANNELS / 12_182.0 - _PER_PAGE_SEQ_READ
_RANDOM_WRITE_OVERHEAD = DEFAULT_CHANNELS / 12_374.0 - _PER_PAGE_SEQ_WRITE
#: Block-erase time (seconds, per channel at DEFAULT_CHANNELS).  SLC
#: block erases run 1.5–2 ms on paper-era flash — several times a page
#: program; under the FTL model they surface as GC stalls on writes.
_BLOCK_ERASE = 0.002


class Ssd(Device):
    """A multi-channel flash SSD, optionally with modelled internals."""

    __slots__ = ("_per_page_read", "_per_page_program",
                 "_random_read_overhead", "_random_write_overhead",
                 "_block_erase", "_channels_total", "_channels_dead",
                 "_degrade", "ftl")

    def __init__(self, env: Environment, channels: int = DEFAULT_CHANNELS,
                 name: str = "ssd", ftl: Optional[FtlConfig] = None,
                 logical_pages: int = 0):
        # Service times scale with the channel count so that the aggregate
        # IOPS stays calibrated to Table 1 whatever parallelism is chosen.
        scale = channels / DEFAULT_CHANNELS
        self._per_page_read = _PER_PAGE_SEQ_READ * scale
        self._per_page_program = _PER_PAGE_SEQ_WRITE * scale
        self._random_read_overhead = _RANDOM_READ_OVERHEAD * scale
        self._random_write_overhead = _RANDOM_WRITE_OVERHEAD * scale
        self._block_erase = _BLOCK_ERASE * scale
        self._channels_total = channels
        self._channels_dead = 0
        self._degrade = 1.0
        #: Modelled internals, or None for the flat black-box timing.
        #: Set before ``Device.__init__`` — it resolves telemetry, and
        #: :meth:`attach_telemetry` registers FTL gauges when present.
        self.ftl: Optional[FlashTranslationLayer] = None
        if ftl is not None:
            if logical_pages < 1:
                raise ValueError(
                    "an FTL-backed Ssd needs logical_pages >= 1")
            self.ftl = FlashTranslationLayer(logical_pages, ftl)
        super().__init__(env, name, channels=channels)

    def attach_telemetry(self, telemetry) -> None:
        super().attach_telemetry(telemetry)
        registry = telemetry.registry
        registry.gauge(
            "ssd_channels_alive", "Flash channels still in service",
            lambda: self._channels_total - self._channels_dead)
        ftl = self.ftl
        if ftl is None:
            return
        registry.gauge(
            "ftl_waf", "Device write amplification (NAND/host writes)",
            lambda: ftl.waf)
        registry.gauge(
            "ftl_erases_total", "Erase-block erasures performed by GC",
            lambda: ftl.stats.erases)
        registry.gauge(
            "ftl_free_blocks", "Erase blocks in the FTL free pool",
            lambda: ftl.free_block_count)
        registry.gauge(
            "ftl_wear_spread", "Max minus min per-block erase count",
            lambda: ftl.wear_spread)

    # ------------------------------------------------------------------
    # Channel failures (fault plan ``ssd_chan_die``)
    # ------------------------------------------------------------------

    @property
    def channels_alive(self) -> int:
        """Flash channels still in service."""
        return self._channels_total - self._channels_dead

    def fail_channels(self, count: int = 1) -> int:
        """Take ``count`` channels out of service; returns those left.

        A mid-flight queueing resource cannot shrink, so a dead channel
        is modelled as a proportional service-time inflation on the
        survivors (identical aggregate bandwidth loss).  Zero survivors
        means the device is dead — the fault plan escalates that to a
        full device kill + detach.
        """
        self._channels_dead = min(self._channels_total,
                                  self._channels_dead + max(0, count))
        alive = self._channels_total - self._channels_dead
        if alive > 0:
            self._degrade = self._channels_total / alive
        return alive

    # ------------------------------------------------------------------
    # TRIM (metadata-only; what keeps the LS design's GC victims empty)
    # ------------------------------------------------------------------

    def trim(self, address: int, npages: int = 1) -> None:
        """Declare ``npages`` logical pages from ``address`` dead.

        TRIM is a queued metadata command whose cost is negligible next
        to programs and erases, so it is free in virtual time; its value
        is entirely in the FTL bookkeeping.  A no-op without an FTL.
        """
        if self.ftl is not None:
            for page in range(npages):
                self.ftl.trim(address + page)

    # ------------------------------------------------------------------
    # Service-time model
    # ------------------------------------------------------------------

    def service_time(self, request: IORequest) -> float:
        """Per-channel service time for ``request``.

        Called exactly once per request (by ``Device._start`` when the
        request gets its channel), so the FTL accounting below runs once
        per I/O.
        """
        if self.ftl is None:
            if request.kind.is_read:
                per_page = self._per_page_read
                overhead = self._random_read_overhead
            else:
                per_page = self._per_page_program
                overhead = self._random_write_overhead
            service = ((overhead if request.kind.random else 0.0)
                       + per_page * request.npages)
        else:
            service = self._ftl_service(request)
        if self._channels_dead:
            service *= self._degrade
        return service

    def _ftl_service(self, request: IORequest) -> float:
        """Bill the NAND work the FTL says this request really costs."""
        if request.kind.is_read:
            reads = 0
            for page in range(request.npages):
                reads += self.ftl.host_read(request.address + page).reads
            return ((self._random_read_overhead if request.kind.random
                     else 0.0) + reads * self._per_page_read)
        programs = reads = erases = 0
        for page in range(request.npages):
            work = self.ftl.host_write(request.address + page)
            programs += work.programs
            reads += work.reads
            erases += work.erases
        if erases and self._tracer.enabled:
            self._tracer.instant(
                "ftl_gc", "io", self._trace_track,
                {"erases": erases, "migrated_reads": reads,
                 "programs": programs})
        return ((self._random_write_overhead if request.kind.random else 0.0)
                + programs * self._per_page_program
                + reads * self._per_page_read
                + erases * self._block_erase)
