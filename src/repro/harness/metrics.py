"""Run-time metric sampling (time series for Figures 6–9) and
transaction-latency tracking.

Both are built over :mod:`repro.telemetry`: the sampled fields are
declared once in :data:`SAMPLE_FIELDS` and published through the
system's telemetry (registry gauges are registered by the components
themselves; each sampler tick additionally emits Chrome counter events
so the occupancy/queue-depth series show up in a trace viewer), and
:class:`LatencyTracker` shares the percentile math with
:class:`repro.telemetry.Histogram`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional

from repro.telemetry import NULL_TELEMETRY, percentile_of


@dataclass
class Sample:
    """One periodic snapshot of system state.

    The ``bp_*`` request counters are cumulative; consumers (the
    ``repro analyze`` time series) difference adjacent samples to get
    windowed hit ratios.
    """

    time: float
    ssd_used: int
    ssd_dirty: int
    ssd_dirty_fraction: float
    bp_dirty: int
    disk_pending: int
    ssd_pending: int
    bp_hits: int = 0
    bp_misses: int = 0
    bp_ssd_hits: int = 0
    # Cumulative FTL counters (0 when the SSD runs the black-box model).
    ftl_host_writes: int = 0
    ftl_nand_writes: int = 0
    ftl_erases: int = 0


def _ftl_stat(system, field: str) -> int:
    ftl = getattr(system.ssd_device, "ftl", None)
    return getattr(ftl.stats, field) if ftl is not None else 0


#: The sampled fields, declared once: (name, getter) pairs shared by the
#: :class:`Sample` rows and the trace counter events.
SAMPLE_FIELDS = (
    ("ssd_used", lambda s: s.ssd_manager.used_frames),
    ("ssd_dirty", lambda s: s.ssd_manager.dirty_frames),
    ("ssd_dirty_fraction", lambda s: s.ssd_manager.dirty_fraction),
    ("bp_dirty", lambda s: s.bp.dirty_count),
    ("disk_pending", lambda s: s.data_device.pending),
    ("ssd_pending", lambda s: s.ssd_device.pending),
    ("bp_hits", lambda s: s.bp.stats.hits),
    ("bp_misses", lambda s: s.bp.stats.misses),
    ("bp_ssd_hits", lambda s: s.bp.stats.ssd_hits),
    ("ftl_host_writes", lambda s: _ftl_stat(s, "host_writes")),
    ("ftl_nand_writes", lambda s: _ftl_stat(s, "nand_writes")),
    ("ftl_erases", lambda s: _ftl_stat(s, "erases")),
)


class Sampler:
    """Samples SSD/buffer-pool occupancy every ``interval`` virtual seconds.

    Feeds the analyses behind Figure 6 (when does LC cross λ?), Figure 7
    (dirty-fraction trajectories per λ), and the ramp-up measurements
    (when does the SSD fill?).

    ``max_samples`` bounds memory on long simulations; :meth:`stop` ends
    the sampling process (it would otherwise run for the lifetime of the
    environment).  When the system carries an enabled telemetry sink,
    every tick also emits Chrome counter events on the ``sampler`` track.
    """

    def __init__(self, system, interval: float = 1.0,
                 max_samples: Optional[int] = None):
        if max_samples is not None and max_samples < 1:
            raise ValueError(f"max_samples must be >= 1, got {max_samples}")
        self.system = system
        self.interval = interval
        self.max_samples = max_samples
        self.samples: List[Sample] = []
        self._started = False
        self._stopped = False

    def start(self) -> None:
        """Start the periodic sampling process (idempotent)."""
        if not self._started:
            self._started = True
            self.system.env.spawn(self._loop())

    def stop(self) -> None:
        """Stop sampling; takes effect at the next tick."""
        self._stopped = True

    @property
    def running(self) -> bool:
        """Whether the sampling process is (still) collecting."""
        return self._started and not self._stopped and (
            self.max_samples is None or len(self.samples) < self.max_samples)

    def _loop(self):
        system = self.system
        tracer = getattr(system, "telemetry", NULL_TELEMETRY).tracer
        while not self._stopped:
            if (self.max_samples is not None
                    and len(self.samples) >= self.max_samples):
                break
            values = {name: getter(system) for name, getter in SAMPLE_FIELDS}
            self.samples.append(Sample(time=system.env.now, **values))
            if tracer.enabled:
                tracer.counter("ssd_frames",
                               {"used": values["ssd_used"],
                                "dirty": values["ssd_dirty"]},
                               track="sampler")
                tracer.counter("ssd_dirty_fraction",
                               {"fraction": values["ssd_dirty_fraction"]},
                               track="sampler")
                tracer.counter("pending_ios",
                               {"disk": values["disk_pending"],
                                "ssd": values["ssd_pending"]},
                               track="sampler")
                tracer.counter("bp_dirty", {"frames": values["bp_dirty"]},
                               track="sampler")
                tracer.counter("bp_requests",
                               {"hits": values["bp_hits"],
                                "misses": values["bp_misses"],
                                "ssd_hits": values["bp_ssd_hits"]},
                               track="sampler")
                # Emitted only when the FTL model is active so that
                # black-box traces stay byte-identical to before.
                if getattr(system.ssd_device, "ftl", None) is not None:
                    tracer.counter("ftl",
                                   {"host_writes": values["ftl_host_writes"],
                                    "nand_writes": values["ftl_nand_writes"],
                                    "erases": values["ftl_erases"]},
                                   track="sampler")
            yield system.env.timeout(self.interval)

    def fill_time(self, threshold_frames: int) -> float:
        """First sample time at which the SSD held >= ``threshold_frames``
        pages (inf if never) — the ramp-up measurement."""
        for sample in self.samples:
            if sample.ssd_used >= threshold_frames:
                return sample.time
        return float("inf")

    def dirty_cross_time(self, threshold_frames: int) -> float:
        """First sample time at which the SSD's dirty page count exceeded
        ``threshold_frames`` (inf if never) — LC's λ-crossing."""
        for sample in self.samples:
            if sample.ssd_dirty > threshold_frames:
                return sample.time
        return float("inf")


@dataclass
class TenantStats:
    """Per-tenant accounting for one open-loop traffic run.

    ``latencies`` records *sojourn* time (queue wait + service) per
    transaction type — the latency a logical user of that tenant sees —
    while ``queue_waits`` isolates the admission-queue component so
    overload shows up separately from slow service.
    """

    name: str
    #: Arrivals the tenant's generator produced.
    offered: int = 0
    #: Arrivals dropped because the admission queue was full.
    shed: int = 0
    #: Transactions finished within the measurement window.
    completed: int = 0
    latencies: "LatencyTracker" = field(
        default_factory=lambda: LatencyTracker())
    queue_waits: "LatencyTracker" = field(
        default_factory=lambda: LatencyTracker())

    @property
    def admitted(self) -> int:
        """Arrivals that made it into the queue."""
        return self.offered - self.shed

    @property
    def shed_fraction(self) -> float:
        """Fraction of offered arrivals that were shed (0 when idle)."""
        return self.shed / self.offered if self.offered else 0.0

    def throughput(self, duration: float) -> float:
        """Completed transactions per second over ``duration``."""
        return self.completed / duration if duration > 0 else 0.0

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form (the run record's per-tenant entry)."""
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["latencies"] = self.latencies.to_dict()
        data["queue_waits"] = self.queue_waits.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TenantStats":
        """Inverse of :meth:`to_dict`."""
        return cls(**{
            **data,
            "latencies": LatencyTracker.from_dict(data["latencies"]),
            "queue_waits": LatencyTracker.from_dict(data["queue_waits"])})


class LatencyTracker:
    """Per-transaction-type latency distributions (virtual seconds).

    Latencies are what closed-loop throughput is made of, and where the
    designs differ mechanically (a miss served by the SSD is ~12× faster
    than one served by the disks; TAC's post-read SSD writes show up as
    latch waits inside other transactions' latencies).

    Sorted views are cached per type (plus the merged view) and
    invalidated by :meth:`record`, so a :meth:`summary` sorts once, not
    four times.
    """

    def __init__(self):
        self._samples: Dict[str, List[float]] = {}
        #: Sorted-sample cache, keyed by txn_type (None = merged view).
        self._sorted: Dict[Optional[str], List[float]] = {}

    def to_dict(self) -> Dict[str, List[float]]:
        """Every sample by transaction type (the run record's form)."""
        return {txn: list(values) for txn, values in self._samples.items()}

    @classmethod
    def from_dict(cls, data: Dict[str, List[float]]) -> "LatencyTracker":
        """Inverse of :meth:`to_dict`."""
        tracker = cls()
        tracker._samples = {txn: list(values) for txn, values in data.items()}
        return tracker

    def record(self, txn_type: str, latency: float) -> None:
        """Record one completed transaction's latency."""
        samples = self._samples.get(txn_type)
        if samples is None:
            samples = self._samples[txn_type] = []
        samples.append(latency)
        if self._sorted:  # stays empty while a run records
            self._sorted.pop(txn_type, None)
            self._sorted.pop(None, None)

    def count(self, txn_type: str = None) -> int:
        """Number of recorded transactions (optionally one type)."""
        if txn_type is not None:
            return len(self._samples.get(txn_type, ()))
        return sum(len(v) for v in self._samples.values())

    def _all(self, txn_type: str = None) -> List[float]:
        cached = self._sorted.get(txn_type)
        if cached is not None:
            return cached
        if txn_type is not None:
            values = sorted(self._samples.get(txn_type, ()))
        else:
            merged: List[float] = []
            for per_type in self._samples.values():
                merged.extend(per_type)
            merged.sort()
            values = merged
        self._sorted[txn_type] = values
        return values

    def percentile(self, q: float, txn_type: str = None) -> float:
        """The q-th percentile (q in [0, 100]) latency."""
        return percentile_of(self._all(txn_type), q)

    def mean(self, txn_type: str = None) -> float:
        """Mean latency (NaN when empty)."""
        values = self._all(txn_type)
        return sum(values) / len(values) if values else float("nan")

    def summary(self, txn_type: str = None) -> Dict[str, float]:
        """mean / p50 / p95 / p99 in one dict."""
        return {
            "mean": self.mean(txn_type),
            "p50": self.percentile(50, txn_type),
            "p95": self.percentile(95, txn_type),
            "p99": self.percentile(99, txn_type),
        }
