"""System assembly: devices + engine + one SSD design = a runnable DBMS."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, Optional

from repro.sim import KERNELS, Environment, make_environment
from repro.storage import HddArray, Ssd
from repro.core import DESIGNS, SsdDesignConfig, design_class
from repro.engine import (
    BufferPool,
    Checkpointer,
    Database,
    DiskManager,
    WriteAheadLog,
)
from repro.engine.checkpoint import FuzzyCheckpointer, check_interval
from repro.engine.recovery import RecoveryError, RecoveryManager
from repro.telemetry import NULL_TELEMETRY, Telemetry

if TYPE_CHECKING:
    from repro.faults.plan import FaultPlan


@dataclass
class SystemConfig:
    """Everything needed to assemble one configuration of the system.

    Mirrors the paper's experimental setup: a data volume striped over
    eight drives, a dedicated log disk, a main-memory buffer pool, and
    an SSD buffer pool run by one of the designs.
    """

    design: str = "noSSD"
    db_pages: int = 10_000
    bp_pages: int = 2_000
    ssd: SsdDesignConfig = field(default_factory=SsdDesignConfig)
    checkpoint_interval: Optional[float] = None
    #: "sharp" (SQL Server 2008 R2's policy, the paper's default) or
    #: "fuzzy" (record-only checkpoints; fast checkpoint, slow restart).
    checkpoint_policy: str = "sharp"
    #: SQL Server's expand-single-reads-until-pool-full behaviour (§4.3.2).
    expand_reads: bool = False
    #: Extra page headroom for run-time allocations (B+-tree splits etc.).
    slack_pages: int = 512
    #: Event-queue implementation: "heap" (default) or "wheel" (the
    #: hierarchical timer wheel — same event order, O(1) timer inserts).
    #: No run option sets it; ``perf/``'s open-loop cell times the wheel.
    kernel: str = "heap"
    #: Modeled buffer-pool partition-latch service time in microseconds.
    #: 0 (the default) keeps latches free — any partition count then
    #: produces byte-identical traces.  Nonzero values queue every fetch
    #: through its partition's latch in virtual time, which is what makes
    #: ``--partitions`` timing-relevant for per-tenant tail latency.
    #: The pool's partition *count* is Table 2's N, ``ssd.partitions``.
    latch_us: float = 0.0
    #: Model the SSD's internals (FTL, erase blocks, GC, write-amp
    #: accounting; DESIGN.md §10) with the geometry that is
    #: :class:`repro.storage.ftl.FtlConfig`'s default.  Off = the
    #: paper-era black-box timing.  No design reads it: it picks the
    #: device the design runs on.
    ftl: bool = False

    def __post_init__(self) -> None:
        # A nan or infinite latch time ran and reported tpmC 0.0.
        if not 0 <= self.latch_us < math.inf:
            raise ValueError(f"latch_us must be finite and >= 0, "
                             f"got {self.latch_us}")
        # The checkpointer's own check, made here as well so a RunSpec
        # fails before any system is built.
        check_interval(self.checkpoint_interval)
        if self.design not in DESIGNS:
            raise ValueError(
                f"unknown design {self.design!r}; choose from {sorted(DESIGNS)}")
        if self.checkpoint_policy not in ("sharp", "fuzzy"):
            raise ValueError(
                f"unknown checkpoint policy {self.checkpoint_policy!r}")
        if self.kernel not in KERNELS:
            raise ValueError(
                f"unknown kernel {self.kernel!r}; choose from {KERNELS}")


class System:
    """One assembled DBMS instance on a fresh simulation environment."""

    def __init__(self, config: SystemConfig,
                 env: Optional[Environment] = None,
                 telemetry: Optional[Telemetry] = None,
                 faults=None):
        self.config = config
        self.env = env or make_environment(config.kernel)
        self.telemetry = telemetry or NULL_TELEMETRY
        #: Per-system transaction-id sequence (see :meth:`next_txn_id`).
        self._txn_seq = 0
        #: Whether :meth:`start_services` ran: :meth:`recover` repeats it.
        self._services_started = False
        self.telemetry.set_clock(lambda: self.env.now)
        total_pages = config.db_pages + config.slack_pages
        self.data_device = HddArray(self.env)
        ssd = config.ssd
        if config.design == "noSSD":
            # The unmodified engine is CW's decision over an SSD of no
            # frames: it finds nothing, admits nothing, and has no flash
            # for an FTL to model.
            ssd = replace(ssd, ssd_frames=0)
        if config.ftl and ssd.ssd_frames > 0:
            # Model the SSD's internals: the logical space the FTL maps
            # is exactly the design's S frames.
            from repro.storage.ftl import FtlConfig
            self.ssd_device = Ssd(self.env, ftl=FtlConfig(),
                                  logical_pages=ssd.ssd_frames)
        else:
            self.ssd_device = Ssd(self.env)
        if self.telemetry.enabled:
            self.data_device.attach_telemetry(self.telemetry)
            self.ssd_device.attach_telemetry(self.telemetry)
        self.disk = DiskManager(self.env, self.data_device, total_pages,
                                telemetry=self.telemetry)
        self.wal = WriteAheadLog(self.env, telemetry=self.telemetry)
        design_cls = design_class(config.design)
        self.ssd_manager = design_cls(self.env, self.ssd_device, self.disk,
                                      self.wal, ssd, telemetry=self.telemetry)
        self.bp = BufferPool(
            self.env, config.bp_pages, self.disk, self.wal, self.ssd_manager,
            expand_reads=config.expand_reads,
            telemetry=self.telemetry,
            partitions=ssd.partitions,
            latch_seconds=config.latch_us * 1e-6)
        self.ssd_manager.bp = self.bp
        self.ssd_manager.start_cleaner()
        checkpointer_cls = (FuzzyCheckpointer
                            if config.checkpoint_policy == "fuzzy"
                            else Checkpointer)
        self.checkpointer = checkpointer_cls(
            self.env, self.bp, self.wal,
            interval=config.checkpoint_interval,
            telemetry=self.telemetry)
        self.db = Database(total_pages)
        #: The installed fault plan (None when running fault-free).
        self.faults: Optional[FaultPlan] = None
        if faults:
            from repro.faults.plan import FaultPlan
            plan = (FaultPlan.parse(faults)
                    if isinstance(faults, str) else faults)
            plan.install(self)
            self.faults = plan

    @property
    def design(self) -> str:
        """Name of the SSD design this system runs."""
        return self.ssd_manager.name

    def next_txn_id(self) -> int:
        """Allocate the next transaction id.

        System-scoped (not process-global) so a second run in the same
        process starts from 1 again and its trace is byte-identical to a
        fresh process — the determinism contract the trace-md5 tests
        assert.
        """
        self._txn_seq += 1
        return self._txn_seq

    def start_services(self) -> None:
        """Start background services (periodic checkpoints)."""
        self._services_started = True
        self.checkpointer.start()

    def run(self, until: float) -> None:
        """Advance the simulation to virtual time ``until``."""
        self.env.run(until=until)

    def crash(self) -> None:
        """Simulated power failure at the current instant — the only way
        volatile state is lost.

        Every in-flight process and scheduled event dies with the event
        queue (a process calling this goes on: its generator is running,
        not queued); each component then resets its volatile state so
        the same :class:`System` can restart on the same environment
        (disk/SSD/log *contents* survive).  Follow with :meth:`recover`.

        The devices reset first: a drive's queue holds the only
        reference to the processes waiting on its requests, and they
        must die inside the wipe, whose clear-and-collect loop discards
        what their ``finally`` blocks schedule.
        """
        for device in (self.data_device, self.ssd_device, self.wal.device):
            device.reset()
        self.env.wipe()
        for component in (self.wal, self.bp, self.ssd_manager,
                          self.checkpointer):
            component.crash_reset()

    def recover(self, committed: Optional[Dict[int, int]] = None):
        """Process step: restart recovery after :meth:`crash`; returns
        the number of pages redone.

        Redo since the last checkpoint, then the SSD manager's restart
        rule; if ``committed`` maps page ids to the versions committed
        before the crash, any loss raises ``RecoveryError``.  Only then
        do the services :meth:`start_services` had started come back: a
        checkpoint during redo would truncate the log it is reading.
        """
        redone = yield from RecoveryManager(self.env, self.disk, self.wal).redo(
            self.checkpointer.last_checkpoint_lsn)
        self.ssd_manager.on_restart()
        lost = {
            page_id: (version, self.disk.disk_version(page_id))
            for page_id, version in (committed or {}).items()
            if self.disk.disk_version(page_id) < version
        }
        if lost:
            sample = dict(list(lost.items())[:5])
            raise RecoveryError(
                f"{len(lost)} committed page versions lost, e.g. {sample}")
        if self._services_started:
            self.start_services()
        return redone
