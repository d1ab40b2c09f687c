"""What a run is measured by: the ``--metrics`` table, run-time
sampling (time series for Figures 6–9) and transaction latencies.

A fact is tallied once, in a plain always-on field of the component
that makes it (``SsdStats.writes``, ``WriteAheadLog.flushes``, ...;
DESIGN.md §5.2).  :data:`SAMPLE_FIELDS` and :data:`METRICS` are the two
ways of reading those fields off a :class:`~repro.harness.system.System`:
the sampler every tick (each tick also emits Chrome counter events, so
the occupancy and queue-depth series show up in a trace viewer), and
:func:`snapshot` once, for ``--metrics``.  :class:`LatencyTracker` and a
histogram row share :func:`percentile_of`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from operator import itemgetter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.storage.device import KIND_LABELS
from repro.telemetry import NULL_TELEMETRY


def percentile_of(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolated q-th percentile of a pre-sorted sequence."""
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    if not sorted_values:
        return float("nan")
    rank = (len(sorted_values) - 1) * q / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return sorted_values[low]
    weight = rank - low
    return sorted_values[low] * (1 - weight) + sorted_values[high] * weight


def summary(samples: Sequence[float]) -> Dict[str, float]:
    """count / mean / p50 / p95 / p99: a histogram's row value and
    ``repro analyze``'s latency figures.  The mean is summed in the
    order given, what a running sum over the owner's appends would hold
    to the last digit (the sorted samples differ)."""
    ordered = sorted(samples)
    return {
        "count": float(len(ordered)),
        "mean": sum(samples) / len(samples) if samples else float("nan"),
        "p50": percentile_of(ordered, 50),
        "p95": percentile_of(ordered, 95),
        "p99": percentile_of(ordered, 99),
    }


@dataclass
class Sample:
    """One periodic snapshot of system state: a field per
    :data:`SAMPLE_FIELDS` row, in its order.

    The ``bp_*`` request counters are cumulative; consumers (the
    ``repro analyze`` time series) difference adjacent samples to get
    windowed hit ratios.
    """

    time: float
    ssd_used: int
    ssd_dirty: int
    ssd_dirty_fraction: float
    disk_pending: int
    ssd_pending: int
    bp_dirty: int
    bp_hits: int = 0
    bp_misses: int = 0
    bp_ssd_hits: int = 0
    # Cumulative FTL counters (0 when the SSD runs the black-box model).
    ftl_host_writes: int = 0
    ftl_nand_writes: int = 0
    ftl_erases: int = 0


def _ftl_stat(field: str) -> Callable[[Any], int]:
    """The FTL's cumulative ``field`` (0 on the black-box SSD)."""
    def read(system) -> int:
        ftl = getattr(system.ssd_device, "ftl", None)
        return getattr(ftl.stats, field) if ftl is not None else 0
    return read


#: The trace counter the sampler emits only when the SSD runs the FTL
#: model, so that black-box traces keep their bytes.
FTL_COUNTER = "ftl"

#: The sampled fields, declared once: ``(name, read, counter, arg)``.
#: Each tick reads every row into a :class:`Sample`; a traced tick also
#: emits one Chrome counter event per ``counter`` on the ``sampler``
#: track, its rows' values under their ``arg`` names, in table order,
#: and ``repro analyze`` reads those events back into series by the
#: same rows (DESIGN.md §5.2).
SAMPLE_FIELDS: Tuple[Tuple[str, Callable[[Any], Any], str, str], ...] = (
    ("ssd_used", lambda s: s.ssd_manager.used_frames, "ssd_frames", "used"),
    ("ssd_dirty", lambda s: s.ssd_manager.dirty_frames,
     "ssd_frames", "dirty"),
    ("ssd_dirty_fraction", lambda s: s.ssd_manager.dirty_fraction,
     "ssd_dirty_fraction", "fraction"),
    ("disk_pending", lambda s: s.data_device.pending, "pending_ios", "disk"),
    ("ssd_pending", lambda s: s.ssd_device.pending, "pending_ios", "ssd"),
    ("bp_dirty", lambda s: s.bp.dirty_count, "bp_dirty", "frames"),
    ("bp_hits", lambda s: s.bp.stats.hits, "bp_requests", "hits"),
    ("bp_misses", lambda s: s.bp.stats.misses, "bp_requests", "misses"),
    ("bp_ssd_hits", lambda s: s.bp.stats.ssd_hits, "bp_requests", "ssd_hits"),
    ("ftl_host_writes", _ftl_stat("host_writes"), FTL_COUNTER, "host_writes"),
    ("ftl_nand_writes", _ftl_stat("nand_writes"), FTL_COUNTER, "nand_writes"),
    ("ftl_erases", _ftl_stat("erases"), FTL_COUNTER, "erases"),
)


def sample_counters() -> Dict[str, List[Tuple[str, str]]]:
    """Each trace counter of :data:`SAMPLE_FIELDS` with its ``(arg,
    name)`` pairs, both in table order."""
    counters: Dict[str, List[Tuple[str, str]]] = {}
    for name, _, counter, arg in SAMPLE_FIELDS:
        counters.setdefault(counter, []).append((arg, name))
    return counters


#: One ``--metrics`` name: ``(name, kind, labelnames, read)``.  ``read``
#: takes what its table is read off (a system, or a latency tracker)
#: and returns a number for a counter or gauge, the samples for a
#: histogram, or with ``labelnames`` a mapping from label-value tuples
#: to those: ``("ssd", "random_read")`` is
#: ``io_pages_total{device="ssd",kind="random_read"}``.
Metric = Tuple[str, str, Tuple[str, ...], Callable[[Any], Any]]


def _devices(read: Callable[[Any], Dict[Tuple[str, ...], Any]]):
    """``read(device)`` over the data, SSD and log devices, merged."""
    def read_all(system) -> Dict[Tuple[str, ...], Any]:
        values: Dict[Tuple[str, ...], Any] = {}
        for device in (system.data_device, system.ssd_device,
                       system.wal.device):
            values.update(read(device))
        return values
    return read_all


def _by_kind(device, counts) -> Dict[Tuple[str, str], int]:
    """``counts`` (by :class:`~repro.storage.request.IoKind`) keyed the
    way the ``io_*_total`` rows are."""
    return {(device.name, KIND_LABELS[kind]): count
            for kind, count in counts.items()}


def _ssd(field_name: str) -> Callable[[Any], int]:
    """The SSD manager's ``SsdStats`` field ``field_name``."""
    return lambda s: getattr(s.ssd_manager.stats, field_name)


def _per_heap(vital: Callable[[Any], int]):
    """``vital(heap)`` for each of the design's victim heaps."""
    return lambda s: {(name,): vital(heap)
                      for name, heap in s.ssd_manager.heaps().items()}


def _partition_latch_waits(system) -> Dict[Tuple[str], int]:
    """Per partition, when the pool models its latch (else no rows)."""
    bp = system.bp
    if not bp._latch_s:
        return {}
    return {(str(part.index),): part.latch_waits for part in bp._parts}


def _injected(system) -> Dict[Tuple[str, str], int]:
    """Faults injected by each of the installed plan's injectors."""
    injectors = system.faults.injectors.values() if system.faults else ()
    return {(injector.device.name, kind): count
            for injector in injectors
            for kind, count in injector.stats.items()}


#: Every system's rows, read off its components' own fields.
METRICS: Tuple[Metric, ...] = (
    # devices
    ("io_pages_total", "counter", ("device", "kind"),
     _devices(lambda d: _by_kind(d, d.stats.pages_by_kind))),
    ("io_requests_total", "counter", ("device", "kind"),
     _devices(lambda d: _by_kind(d, d.requests_by_kind))),
    ("device_pending_ios", "gauge", ("device",),
     _devices(lambda d: {(d.name,): d.pending})),
    ("ssd_channels_alive", "gauge", (), lambda s: s.ssd_device.channels_alive),
    ("faults_injected_total", "counter", ("device", "kind"), _injected),
    # disk manager, log, checkpoints
    ("disk_retries_total", "counter", (), lambda s: s.disk.retries),
    ("wal_records_total", "counter", (),
     lambda s: s.wal.tail_lsn + 1 + s.wal.records_lost),
    ("wal_flushes_total", "counter", (), lambda s: s.wal.flushes),
    ("wal_pages_flushed_total", "counter", (), lambda s: s.wal.pages_flushed),
    ("wal_retries_total", "counter", (), lambda s: s.wal.flush_retries),
    ("checkpoints_total", "counter", (),
     lambda s: s.checkpointer.checkpoints_taken),
    ("checkpoint_duration_seconds", "histogram", (),
     lambda s: s.checkpointer.durations),
    # buffer pool
    ("bp_requests_total", "counter", ("result",),
     lambda s: {("hit",): s.bp.stats.hits,
                ("ssd_hit",): s.bp.stats.ssd_hits,
                ("disk_read",): s.bp.stats.disk_reads}),
    ("bp_evictions_total", "counter", ("kind",),
     lambda s: {("clean",): s.bp.stats.evictions_clean,
                ("dirty",): s.bp.stats.evictions_dirty}),
    ("bp_latch_waits_total", "counter", ("reason",),
     lambda s: {(reason,): count
                for reason, count in s.bp.latch_wait_counts.items()}),
    ("bp_latch_wait_seconds", "histogram", (),
     lambda s: s.bp.latch_wait_lengths),
    ("bp_partition_latch_waits_total", "counter", ("partition",),
     _partition_latch_waits),
    ("bp_prefetched_pages_total", "counter", (),
     lambda s: s.bp.stats.prefetched_pages),
    ("bp_prefetched_unused_total", "counter", (),
     lambda s: s.bp.stats.prefetched_unused),
    ("bp_dirty_frames", "gauge", (), lambda s: s.bp.dirty_count),
    ("bp_used_frames", "gauge", (), lambda s: s.bp.used),
    # SSD manager (every design)
    ("ssd_mgr_reads_total", "counter", (), _ssd("reads")),
    ("ssd_mgr_writes_total", "counter", (), _ssd("writes")),
    ("ssd_mgr_invalidations_total", "counter", (), _ssd("invalidations")),
    ("ssd_mgr_declined_throttle_total", "counter", (),
     _ssd("declined_throttle")),
    ("ssd_mgr_evictions_total", "counter", (), _ssd("evictions")),
    ("ssd_mgr_fallback_disk_writes_total", "counter", (),
     _ssd("fallback_disk_writes")),
    ("ssd_mgr_retries_total", "counter", (), _ssd("io_retries")),
    ("ssd_mgr_throttle_preserved_total", "counter", (),
     _ssd("throttle_preserved")),
    ("ssd_mgr_heap_entries", "gauge", ("heap",), _per_heap(len)),
    ("ssd_mgr_heap_live", "gauge", ("heap",),
     _per_heap(lambda heap: heap.live_count)),
    ("ssd_mgr_heap_rekeys_total", "counter", ("heap",),
     _per_heap(lambda heap: heap.rekeys)),
    ("ssd_mgr_heap_compactions_total", "counter", ("heap",),
     _per_heap(lambda heap: heap.compactions)),
    ("ssd_used_frames", "gauge", (), lambda s: s.ssd_manager.used_frames),
    ("ssd_dirty_frames", "gauge", (), lambda s: s.ssd_manager.dirty_frames),
    ("ssd_dirty_fraction", "gauge", (),
     lambda s: s.ssd_manager.dirty_fraction),
)

#: A system whose SSD runs the FTL model (``Ssd.ftl``) adds these.
FTL_METRICS: Tuple[Metric, ...] = (
    ("ftl_waf", "gauge", (), lambda s: s.ssd_device.ftl.waf),
    ("ftl_erases_total", "gauge", (), lambda s: s.ssd_device.ftl.stats.erases),
    ("ftl_free_blocks", "gauge", (),
     lambda s: s.ssd_device.ftl.free_block_count),
    ("ftl_wear_spread", "gauge", (), lambda s: s.ssd_device.ftl.wear_spread),
)

#: The rows only one design has, by design name (naming it here
#: imports none of the design modules).
DESIGN_METRICS: Dict[str, Tuple[Metric, ...]] = {
    "LC": (
        ("lc_cleaner_rounds_total", "counter", (), _ssd("cleaner_ios")),
        ("lc_cleaner_pages_total", "counter", (), _ssd("cleaner_pages")),
        ("lc_lambda_crossings_total", "counter", (),
         _ssd("lambda_crossings")),
    ),
    "LS": (
        ("ls_batches_total", "counter", (), lambda s: s.ssd_manager.batches),
        ("ls_batch_pages_total", "counter", (),
         lambda s: s.ssd_manager.batch_pages),
        ("ls_reclaimed_segments_total", "counter", (),
         lambda s: s.ssd_manager.reclaims),
        ("ls_reclaim_dirty_flushes_total", "counter", (),
         lambda s: s.ssd_manager.reclaim_flushes),
        ("ls_relocated_entries_total", "counter", (),
         lambda s: s.ssd_manager.relocations),
        ("ls_replayed_entries_total", "counter", (),
         lambda s: s.ssd_manager.replays),
    ),
    "TAC": (
        ("tac_admission_writes_total", "counter", (),
         lambda s: s.ssd_manager.admission_writes),
        ("tac_missed_dirty_writes_total", "counter", (),
         _ssd("missed_dirty_writes")),
    ),
}

#: Read off a run's :class:`LatencyTracker`.
LATENCY_METRICS: Tuple[Metric, ...] = (
    ("txn_latency_seconds", "histogram", ("type",),
     lambda latencies: {(txn,): samples for txn, samples
                        in latencies._samples.items()}),
)


def read_rows(table: Sequence[Metric], source: Any) -> List[Dict[str, Any]]:
    """Each metric of ``table`` read off ``source``: the report rows,
    sorted by name and, within a labeled name, by label values.

    Each row is ``{"name", "kind", "labels", "value"}``: a counter's or
    gauge's value as a float, a histogram's :func:`summary`.  A labeled
    name has one row per label-value tuple its reader reports now.
    """
    rows: List[Dict[str, Any]] = []
    for name, kind, labelnames, read in sorted(table, key=itemgetter(0)):
        values = read(source) if labelnames else {(): read(source)}
        for key in sorted(values):
            value = values[key]
            rows.append({
                "name": name,
                "kind": kind,
                "labels": dict(zip(labelnames, key)),
                "value": (summary(value) if kind == "histogram"
                          else float(value)),
            })
    return rows


def snapshot(system, latencies: Optional[LatencyTracker] = None
             ) -> List[Dict[str, Any]]:
    """What ``--metrics`` prints for ``system``, and for ``latencies``
    (a run's tracker) when given: :func:`read_rows` over every table
    that applies, in one name order."""
    table = METRICS + DESIGN_METRICS.get(system.design, ())
    if system.ssd_device.ftl is not None:
        table += FTL_METRICS
    rows = read_rows(table, system)
    if latencies is not None:
        rows += read_rows(LATENCY_METRICS, latencies)
    return sorted(rows, key=itemgetter("name"))


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
        # A zero interval would tick forever at one instant.
        if not 0 < interval < math.inf:
            raise ValueError(f"interval must be finite and > 0, "
                             f"got {interval}")
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

    def _loop(self):
        system = self.system
        tracer = getattr(system, "telemetry", NULL_TELEMETRY).tracer
        counters = sample_counters()
        if getattr(system.ssd_device, "ftl", None) is None:
            del counters[FTL_COUNTER]
        while not self._stopped:
            if (self.max_samples is not None
                    and len(self.samples) >= self.max_samples):
                break
            values = {name: read(system) for name, read, _, _ in SAMPLE_FIELDS}
            self.samples.append(Sample(time=system.env.now, **values))
            if tracer.enabled:
                for counter, args in counters.items():
                    tracer.counter(counter, {arg: values[name]
                                             for arg, name in args},
                                   track="sampler")
            yield self.interval

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
