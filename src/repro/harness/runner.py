"""Closed-loop workload driver and run results.

Mirrors the paper's methodology: N concurrent clients issue transactions
back-to-back for a fixed (virtual) duration; throughput is reported in
time buckets (the paper uses six-minute buckets over ten hours — scaled
runs use proportionally smaller buckets), and the headline number is the
average over the final window, "similar to the method specified by the
TPC-C benchmark".
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, fields
from math import ceil, inf
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.ssd_manager import SsdStats
from repro.engine.buffer_pool import BufferPoolStats
from repro.harness.metrics import (LatencyTracker, Sample, Sampler,
                                   TenantStats)
from repro.harness.system import System
from repro.sim import Store
from repro.storage.ftl import FtlStats
from repro.telemetry import NULL_TELEMETRY, percentile_of

#: RunResult fields that are objects rather than plain JSON values;
#: :meth:`RunResult.to_dict` / ``from_dict`` convert exactly these.
_OBJECT_FIELDS = ("sampler", "latencies", "system", "tenants",
                  "bp_stats", "ssd_stats", "ftl_stats")


@dataclass
class RunResult:
    """Everything measured during one workload run, as plain data.

    The runners fill the end-of-run fields through :meth:`capture`, so
    every consumer (CLI tables, ``benchmarks/``, the sweep cache, the
    run store) reads the same fields whether the run was live or came
    back through :meth:`to_dict` / :meth:`from_dict`.
    """

    design: str
    metric_name: str
    duration: float
    bucket_seconds: float
    metric_window: float
    start_time: float = 0.0
    #: Metric-transaction completions per bucket.
    buckets: List[int] = field(default_factory=list)
    #: All transaction completions by type.
    txn_counts: Dict[str, int] = field(default_factory=dict)
    sampler: Optional[Sampler] = None
    latencies: Optional[LatencyTracker] = None
    #: The live system, for same-process inspection only: it is not part
    #: of the record and is ``None`` after :meth:`from_dict`.
    system: Optional[System] = None
    #: Per-tenant accounting, filled by :class:`OpenLoopRunner` (empty
    #: for closed-loop runs).
    tenants: Dict[str, TenantStats] = field(default_factory=dict)
    #: Logical users the run's arrival rates represent (0 = closed-loop).
    logical_users: float = 0.0
    # End-of-run state (see :meth:`capture`).
    bp_stats: Optional[BufferPoolStats] = None
    ssd_stats: Optional[SsdStats] = None
    #: ``None`` when the SSD ran the black-box timing model.
    ftl_stats: Optional[FtlStats] = None
    ssd_used_frames: int = 0
    ssd_dirty_frames: int = 0
    #: Occupied frames holding logically invalidated pages (TAC waste).
    ssd_invalid_frames: int = 0
    #: Dirty-frame count at which the LC cleaner wakes (λ · S).
    ssd_dirty_limit_frames: int = 0
    #: The SSD died mid-run and the design fell back to disk-only.
    ssd_detached: bool = False
    #: FTL max-minus-min per-block erase count (0 without the FTL).
    wear_spread: int = 0
    checkpoints_started: int = 0
    checkpoints_taken: int = 0
    checkpoint_durations: List[float] = field(default_factory=list)

    def capture(self, system: System) -> None:
        """Read the end-of-run state off ``system``.

        O(number of counters): the stats objects are held, not copied,
        and every scalar is an O(1) property (``wear_spread`` scans the
        FTL's erase blocks once).
        """
        manager = system.ssd_manager
        self.bp_stats = system.bp.stats
        self.ssd_stats = manager.stats
        self.ssd_used_frames = manager.used_frames
        self.ssd_dirty_frames = manager.dirty_frames
        self.ssd_invalid_frames = manager.table.invalid_count
        self.ssd_dirty_limit_frames = manager.config.dirty_limit_frames
        self.ssd_detached = manager.detached
        ftl = system.ssd_device.ftl
        if ftl is not None:
            self.ftl_stats = ftl.stats
            self.wear_spread = ftl.wear_spread
        checkpointer = system.checkpointer
        self.checkpoints_started = checkpointer.checkpoints_started
        self.checkpoints_taken = checkpointer.checkpoints_taken
        self.checkpoint_durations = checkpointer.durations

    def to_dict(self) -> Dict[str, Any]:
        """The whole record as JSON-ready plain data."""
        data = {f.name: getattr(self, f.name) for f in fields(self)
                if f.name not in _OBJECT_FIELDS}
        ftl = self.ftl_stats
        data.update(
            samples=[vars(sample).copy() for sample in self.sampler.samples],
            latencies=self.latencies.to_dict(),
            tenants={name: tenant.to_dict()
                     for name, tenant in self.tenants.items()},
            bp_stats=self.bp_stats.as_dict(),
            ssd_stats=self.ssd_stats.as_dict(),
            ftl_stats=vars(ftl).copy() if ftl is not None else None)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunResult":
        """Inverse of :meth:`to_dict`; the result has no live system."""
        data = dict(data)
        sampler = Sampler(None)
        sampler.samples = [Sample(**row) for row in data.pop("samples")]
        ftl = data.pop("ftl_stats")
        return cls(
            sampler=sampler,
            latencies=LatencyTracker.from_dict(data.pop("latencies")),
            tenants={name: TenantStats.from_dict(tenant)
                     for name, tenant in data.pop("tenants").items()},
            bp_stats=BufferPoolStats.from_dict(data.pop("bp_stats")),
            ssd_stats=SsdStats(**data.pop("ssd_stats")),
            ftl_stats=FtlStats(**ftl) if ftl is not None else None,
            **data)

    def metrics(self) -> Dict[str, float]:
        """The scalar rows the run store records for this run."""
        metrics: Dict[str, float] = {
            "value": self.steady_state_throughput(),
            "total_txns": float(self.total_metric_txns),
        }
        if self.latencies is not None and self.latencies.count():
            for name, value in self.latencies.summary().items():
                metrics[f"latency_{name}"] = value
        if self.tenants:
            # Per-tenant rows need no schema: ``tenant_<name>_<stat>``.
            metrics["offered"] = float(self.offered)
            metrics["shed"] = float(self.shed)
            metrics["shed_fraction"] = self.shed_fraction
            metrics["queue_wait_p99"] = self.queue_wait_percentile(99)
            metrics["logical_users"] = float(self.logical_users)
            for name, stats in sorted(self.tenants.items()):
                prefix = f"tenant_{name}_"
                metrics[prefix + "offered"] = float(stats.offered)
                metrics[prefix + "shed"] = float(stats.shed)
                metrics[prefix + "completed"] = float(stats.completed)
                metrics[prefix + "throughput"] = stats.throughput(
                    self.duration)
                if stats.latencies.count():
                    metrics[prefix + "p50"] = stats.latencies.percentile(50)
                    metrics[prefix + "p99"] = stats.latencies.percentile(99)
                    metrics[prefix + "queue_wait_p99"] = (
                        stats.queue_waits.percentile(99))
        if self.bp_stats is not None:
            metrics["bp_hit_rate"] = self.bp_stats.hit_rate
            metrics["ssd_hit_rate"] = self.bp_stats.ssd_hit_rate
            metrics["ssd_used_frames"] = float(self.ssd_used_frames)
            metrics["ssd_dirty_frames"] = float(self.ssd_dirty_frames)
            metrics["ssd_detached"] = float(self.ssd_detached)
            metrics["io_retries"] = float(self.ssd_stats.io_retries)
            metrics["detach_redo_pages"] = float(
                self.ssd_stats.detach_redo_pages)
            metrics["checkpoints_taken"] = float(self.checkpoints_taken)
        if self.ftl_stats is not None:
            metrics["waf"] = self.ftl_stats.waf
            metrics["wear_spread"] = float(self.wear_spread)
            metrics["host_writes"] = float(self.ftl_stats.host_writes)
            metrics["nand_writes"] = float(self.ftl_stats.nand_writes)
            metrics["erases"] = float(self.ftl_stats.erases)
        return metrics

    @property
    def waf(self) -> Optional[float]:
        """Device write amplification (``None`` without the FTL model)."""
        return self.ftl_stats.waf if self.ftl_stats is not None else None

    @property
    def offered(self) -> int:
        """Open-loop arrivals generated across all tenants."""
        return sum(t.offered for t in self.tenants.values())

    @property
    def shed(self) -> int:
        """Open-loop arrivals dropped at admission across all tenants."""
        return sum(t.shed for t in self.tenants.values())

    @property
    def shed_fraction(self) -> float:
        """Fraction of offered arrivals shed (0 when nothing offered)."""
        offered = self.offered
        return self.shed / offered if offered else 0.0

    def queue_wait_percentile(self, q: float) -> float:
        """q-th percentile admission-queue wait across all tenants."""
        merged: List[float] = []
        for tenant in self.tenants.values():
            for values in tenant.queue_waits._samples.values():
                merged.extend(values)
        merged.sort()
        return percentile_of(merged, q)

    @property
    def total_metric_txns(self) -> int:
        """Metric-transaction completions across all buckets."""
        return sum(self.buckets)

    def bucket_widths(self) -> List[float]:
        """True width of each bucket in seconds.

        All buckets are ``bucket_seconds`` wide except possibly the last:
        when ``duration`` is not a bucket multiple, the final bucket only
        covers the tail window, and rates must be normalized by that true
        width rather than the nominal one.
        """
        if not self.buckets:
            return []
        widths = [self.bucket_seconds] * len(self.buckets)
        tail = self.duration - (len(self.buckets) - 1) * self.bucket_seconds
        if 0.0 < tail < self.bucket_seconds:
            widths[-1] = tail
        return widths

    def throughput_series(self, smooth: int = 1) -> List[Tuple[float, float]]:
        """(bucket start time, metric rate) pairs.

        ``smooth`` applies the paper's Figure 6 moving average over that
        many adjacent buckets.
        """
        rates = [count / width * self.metric_window
                 for count, width in zip(self.buckets, self.bucket_widths())]
        if smooth > 1:
            half = smooth // 2
            rates = [
                sum(rates[max(0, i - half):i + half + 1])
                / len(rates[max(0, i - half):i + half + 1])
                for i in range(len(rates))
            ]
        return [(i * self.bucket_seconds, rate)
                for i, rate in enumerate(rates)]

    def steady_state_throughput(self, window_fraction: float = 0.2) -> float:
        """Average metric rate over the last ``window_fraction`` of the
        run (the paper averages the last hour of ten)."""
        if not self.buckets:
            return 0.0
        take = max(1, int(len(self.buckets) * window_fraction))
        tail = self.buckets[-take:]
        widths = self.bucket_widths()[-take:]
        return sum(tail) / sum(widths) * self.metric_window


def _publish_latencies(runner) -> None:
    """``txn_latency_seconds{type}`` reads the tracker of ``runner``'s
    newest run — registered once per runner, so running it again swaps
    the samples read and adds no second row per type."""
    registry = getattr(runner.system, "telemetry", NULL_TELEMETRY).registry
    registry.histogram(
        "txn_latency_seconds", "Transaction latency by type",
        lambda: {(txn,): samples for txn, samples
                 in runner.latencies._samples.items()},
        labelnames=("type",))


def check_loop(nworkers: int = 1, bucket_seconds: float = 1.0,
               queue_limit: int = 1) -> None:
    """The sizes a closed or an open loop can run with, else a
    ``ValueError`` naming the knob: the runners ask when they are built,
    a ``RunSpec`` before anything is (an infinite bucket width ran and
    reported a throughput of 0)."""
    for knob, count in (("nworkers", nworkers), ("queue_limit", queue_limit)):
        if count < 1:
            raise ValueError(f"{knob} must be >= 1, got {count}")
    if not 0 < bucket_seconds < inf:
        raise ValueError(f"bucket_seconds must be finite and > 0, "
                         f"got {bucket_seconds}")


class _Runner:
    """What a closed and an open loop share: where a run begins and
    where it ends.  A subclass spawns its processes in between."""

    def __init__(self, system: System, workload, nworkers: int = 32,
                 bucket_seconds: float = 2.0, seed: int = 20110612,
                 sample_interval: float = 1.0):
        check_loop(nworkers=nworkers, bucket_seconds=bucket_seconds)
        self.system = system
        self.workload = workload
        self.nworkers = nworkers
        self.bucket_seconds = bucket_seconds
        self.seed = seed
        self.sample_interval = sample_interval
        self._stopped = False
        self.latencies = LatencyTracker()
        _publish_latencies(self)

    def stop(self) -> None:
        """Ask the clients (workers) to finish their current transaction
        and exit; an open loop's arrivals stop being offered.  For
        post-run phases that advance virtual time with the load gone (a
        crash needs no ``stop()`` first: it kills them)."""
        self._stopped = True

    def _begin(self, duration: float, setup: bool, **tenancy: Any) -> RunResult:
        """Start services and the sampler; returns the run's record."""
        system, workload = self.system, self.workload
        # A stop() from a previous run must not leak into this one, or the
        # fresh clients would exit on their first loop check and the run
        # silently report ~zero throughput.
        self._stopped = False
        if setup:
            workload.setup(system)
            system.start_services()
        self.latencies = LatencyTracker()
        result = RunResult(
            design=system.design,
            metric_name=workload.metric_name,
            duration=duration,
            bucket_seconds=self.bucket_seconds,
            metric_window=workload.metric_window,
            start_time=system.env.now,
            # ceil, not round: a partial tail window still gets a bucket
            # (normalized by its true width in bucket_widths()).
            buckets=[0] * max(1, ceil(duration / self.bucket_seconds - 1e-9)),
            sampler=Sampler(system, self.sample_interval),
            latencies=self.latencies,
            system=system,
            **tenancy,
        )
        result.sampler.start()
        return result

    def _finish(self, result: RunResult) -> RunResult:
        """Drive the run to its end and read the final state."""
        system = self.system
        system.run(until=result.start_time + result.duration)
        # The run's measurement window is over: stop the sampler so later
        # phases (crash simulation, restarts) don't grow it unboundedly.
        result.sampler.stop()
        result.capture(system)
        return result


class WorkloadRunner(_Runner):
    """Runs an OLTP workload against a system with N closed-loop clients."""

    def run(self, duration: float, setup: bool = True) -> RunResult:
        """Drive the workload for ``duration`` virtual seconds."""
        result = self._begin(duration, setup)
        self.system.env.spawn_all(
            self._client(random.Random(self.seed + worker * 1009), result)
            for worker in range(self.nworkers))
        return self._finish(result)

    def _client(self, rng: random.Random, result: RunResult):
        system, workload = self.system, self.workload
        metric_txn = workload.metric_transaction
        nbuckets = len(result.buckets)
        env = system.env
        transaction = workload.transaction
        txn_counts = result.txn_counts
        record_latency = result.latencies.record
        buckets = result.buckets
        bucket_seconds = self.bucket_seconds
        start_time = result.start_time
        while not self._stopped:
            name, body = transaction(rng, system)
            started = env._now
            yield from body
            now = env._now
            txn_counts[name] = txn_counts.get(name, 0) + 1
            latency = now - started
            record_latency(name, latency)
            if name == metric_txn:
                bucket = int((now - start_time) / bucket_seconds)
                if 0 <= bucket < nbuckets:
                    buckets[bucket] += 1


class OpenLoopRunner(_Runner):
    """Drives open-loop, multi-tenant traffic against one system.

    Per-tenant arrival processes (:mod:`repro.workloads.traffic`) drop
    work into a bounded admission queue; ``nworkers`` simulated workers
    drain it.  The logical-user count is carried by the arrival *rates*
    — a million users at 100 s think time is 10k arrivals/sec through a
    few dozen workers — so memory stays bounded by ``queue_limit`` and
    ``nworkers``, never by the user count.

    Overload is measurable instead of silent: arrivals finding the queue
    at ``queue_limit`` are *shed* (counted per tenant), and every
    admitted transaction records its queue wait separately from its
    sojourn time.
    """

    def __init__(self, system: System, workload, tenants: Sequence,
                 nworkers: int = 64, queue_limit: int = 10_000,
                 bucket_seconds: float = 2.0, seed: int = 20110612,
                 sample_interval: float = 1.0):
        check_loop(queue_limit=queue_limit)
        if not tenants:
            raise ValueError("need at least one tenant")
        super().__init__(system, workload, nworkers, bucket_seconds, seed,
                         sample_interval)
        self.tenants = list(tenants)
        self.queue_limit = queue_limit

    def run(self, duration: float, setup: bool = True) -> RunResult:
        """Offer traffic for ``duration`` virtual seconds."""
        workload = self.workload
        stats = [TenantStats(name=spec.name) for spec in self.tenants]
        result = self._begin(
            duration, setup,
            tenants={spec.name: st for spec, st in zip(self.tenants, stats)},
            logical_users=sum(spec.logical_users for spec in self.tenants))
        views = [workload.tenant_view(spec.name, spec.theta)
                 if hasattr(workload, "tenant_view") else workload
                 for spec in self.tenants]
        env = self.system.env
        queue: Store = Store(env)
        end = result.start_time + duration
        # A distinct prime stride per tenant keeps arrival streams
        # independent of the worker rngs (seed + 1009*worker).
        env.spawn_all(
            self._arrivals(spec, stats[index], index,
                           random.Random(self.seed + 7919 * (index + 1)),
                           queue, end)
            for index, spec in enumerate(self.tenants))
        env.spawn_all(
            self._worker(random.Random(self.seed + worker * 1009), views,
                         stats, queue, result)
            for worker in range(self.nworkers))
        return self._finish(result)

    def _arrivals(self, spec, stats: TenantStats, index: int,
                  rng: random.Random, queue: Store, end: float):
        env = self.system.env
        limit = self.queue_limit
        for when in spec.arrivals.times(rng, start=env.now):
            if when >= end:
                break
            yield env.timeout(when - env.now)
            if self._stopped:
                break
            stats.offered += 1
            if len(queue) >= limit:
                stats.shed += 1
            else:
                queue.put((index, env.now))

    def _worker(self, rng: random.Random, views, stats, queue: Store,
                result: RunResult):
        system = self.system
        metric_txn = self.workload.metric_transaction
        nbuckets = len(result.buckets)
        while not self._stopped:
            index, enqueued = yield queue.get()
            tenant = stats[index]
            wait = system.env.now - enqueued
            name, body = views[index].transaction(rng, system)
            yield from body
            sojourn = system.env.now - enqueued
            tenant.completed += 1
            tenant.queue_waits.record(name, wait)
            tenant.latencies.record(name, sojourn)
            result.txn_counts[name] = result.txn_counts.get(name, 0) + 1
            result.latencies.record(name, sojourn)
            if name == metric_txn:
                bucket = int((system.env.now - result.start_time)
                             / self.bucket_seconds)
                if 0 <= bucket < nbuckets:
                    result.buckets[bucket] += 1
