"""The experiment registry: one run description, one way to run it.

Every figure of the paper's evaluation is a grid over one small run
description — :class:`RunSpec` — and :func:`run` executes any of them;
:func:`run_oltp_experiment` is a keyword-argument adapter over it for
the closed-loop rows of the experiment index in DESIGN.md.  The scaled
sizing preserves the paper's ratios:

=====================  ===============  ====================
Paper                  Scaled (default)  Ratio preserved
=====================  ===============  ====================
20 GB buffer pool      2,000 pages       BP : SSD = 1 : 7
140 GB SSD             14,000 frames     SSD : DB per config
100–415 GB databases   10k–41.5k pages
10-hour runs           60 virtual s      ramp-up visible
6-minute buckets       2-s buckets       ~30 points/series
=====================  ===============  ====================
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any, Dict, Optional, Type, Union

from repro.core import SsdDesignConfig
from repro.harness.runner import (OpenLoopRunner, RunResult, WorkloadRunner,
                                  check_loop)
from repro.harness.system import System, SystemConfig
from repro.sim import KERNELS

if TYPE_CHECKING:
    from repro.workloads.tpch import TpchResult


@dataclass(frozen=True)
class ScaleProfile:
    """Maps the paper's gigabytes to simulated page counts."""

    pages_per_gb: int = 100
    bp_gb: float = 20.0
    ssd_gb: float = 140.0

    @property
    def bp_pages(self) -> int:
        """Main-memory buffer pool size in pages."""
        return int(self.bp_gb * self.pages_per_gb)

    @property
    def ssd_frames(self) -> int:
        """SSD buffer pool size in frames."""
        return int(self.ssd_gb * self.pages_per_gb)

    def pages(self, gb: float) -> int:
        """Convert paper gigabytes to simulated pages."""
        return int(gb * self.pages_per_gb)


#: "default" is used by the benchmark harness; "small" keeps unit and
#: integration tests fast while preserving every ratio.
SCALE_PROFILES: Dict[str, ScaleProfile] = {
    "default": ScaleProfile(pages_per_gb=100),
    "small": ScaleProfile(pages_per_gb=20),
    "tiny": ScaleProfile(pages_per_gb=5),
}

#: The paper's per-benchmark λ settings (Table 2).
PAPER_LAMBDA = {"tpcc": 0.50, "tpce": 0.01, "tpch": 0.01}


def profile_name(profile: ScaleProfile) -> str:
    """The registry name of a profile (a :class:`RunSpec` names its
    profile, so an unregistered one cannot be run through it)."""
    for name, known in SCALE_PROFILES.items():
        if known == profile:
            return name
    raise ValueError(f"{profile} is not registered in SCALE_PROFILES")


def make_workload(benchmark: str, scale: int, profile: ScaleProfile,
                  oracle: Optional[Dict[int, int]] = None):
    """Build a workload: ``scale`` is warehouses (TPC-C, e.g. 1000),
    thousands of customers (TPC-E, e.g. 20), or SF (TPC-H, 30/100).
    Only the chosen benchmark's module is imported."""
    if benchmark == "tpcc":
        from repro.workloads.tpcc import TpccWorkload
        # One warehouse is 0.1 GB in the paper's sizing.
        return TpccWorkload(
            scale, pages_per_warehouse=max(1, profile.pages_per_gb // 10),
            item_pages=max(4, profile.pages(1.0)), oracle=oracle)
    if benchmark == "tpce":
        from repro.workloads.tpce import TpceWorkload
        # 10K customers = 115 GB  =>  11.5 GB per 1K customers.
        return TpceWorkload(
            scale, pages_per_customer_k=11.5 * profile.pages_per_gb,
            oracle=oracle)
    if benchmark == "tpch":
        from repro.workloads.tpch import TpchWorkload
        gb = {30: 45.0, 100: 160.0}.get(scale, 1.5 * scale)
        return TpchWorkload(scale, db_gb=gb,
                            pages_per_gb=profile.pages_per_gb, oracle=oracle)
    raise ValueError(f"unknown benchmark {benchmark!r}")


def make_system(benchmark: str, workload, design: str,
                profile: ScaleProfile,
                dirty_threshold: Optional[float] = None,
                checkpoint_interval: Optional[float] = None,
                warm_restart: bool = False,
                expand_reads: bool = False,
                ftl: bool = False,
                partitions: Optional[int] = None,
                latch_us: float = 0.0,
                kernel: str = "heap",
                telemetry=None, faults=None) -> System:
    """Assemble a system sized for ``workload`` running ``design``.

    ``ftl=True`` models the SSD's internals (erase blocks, GC, WAF
    accounting; DESIGN.md §10) instead of the flat Table 1 timing.
    ``partitions`` overrides the partition count N (§3.3.4) shared by
    the SSD buffer table and the main-memory buffer pool — the
    isolation knob the multi-tenant experiments sweep.  ``latch_us``
    models the buffer-pool partition-latch service time (0 keeps the
    latch free and traces partition-count-independent).
    ``kernel`` picks the event-queue implementation ("heap"/"wheel").
    """
    ssd_kwargs: Dict[str, Any] = {}
    if partitions is not None:
        ssd_kwargs["partitions"] = partitions
    ssd = SsdDesignConfig(
        ssd_frames=profile.ssd_frames,
        dirty_threshold=(dirty_threshold if dirty_threshold is not None
                         else PAPER_LAMBDA.get(benchmark, 0.5)),
        warm_restart=warm_restart,
        ftl_enabled=ftl,
        **ssd_kwargs,
    )
    config = SystemConfig(
        design=design,
        db_pages=workload.db_pages(),
        bp_pages=profile.bp_pages,
        ssd=ssd,
        checkpoint_interval=checkpoint_interval,
        expand_reads=expand_reads,
        slack_pages=max(256, workload.db_pages() // 20),
        kernel=kernel,
        bp_latch_us=latch_us,
    )
    return System(config, telemetry=telemetry, faults=faults)


@dataclass(frozen=True)
class RunSpec:
    """One deterministic run, fully described by plain values.

    The single description of a run: :func:`run` executes it, the CLI
    flags are generated from its fields, and its :meth:`to_dict` is the
    sweep cache key and the run store's ``spec_json``.  ``kind`` is
    ``"oltp"`` (closed loop, the Figures 5–9 building block),
    ``"traffic"`` (open loop, needs ``tenants``) or ``"tpch"`` (power +
    throughput tests; only ``scale``/``design``/``profile``/
    ``checkpoint_interval`` apply).  ``scale`` is warehouses /
    customer-thousands / SF depending on the benchmark.

    Field metadata declares a knob's CLI flag once (``help``, optional
    ``choices``; the option is ``--<field-name>`` unless ``flag`` says
    otherwise and its type is the field's); each subcommand picks only
    its flag set and defaults (``repro.cli._add_spec_flags``).
    """

    kind: str
    benchmark: str = field(metadata=dict(
        help="workload", choices=tuple(PAPER_LAMBDA)))
    scale: int = field(metadata=dict(
        help="warehouses (tpcc) or customers/1000 (tpce)"))
    design: str
    profile: str = field(default="default", metadata=dict(
        help="scale profile", choices=sorted(SCALE_PROFILES)))
    duration: float = field(default=60.0, metadata=dict(
        help="virtual seconds"))
    nworkers: int = field(default=32, metadata=dict(
        flag="--workers",
        help="simulated workers inside each run (closed-loop clients, or "
             "the pool draining the open-loop queue)"))
    bucket_seconds: float = 2.0
    seed: int = field(default=20110612, metadata=dict(
        help="seed of the run's random streams"))
    dirty_threshold: Optional[float] = field(default=None, metadata=dict(
        help="LC lambda (default: the paper's per-benchmark value)"))
    checkpoint_interval: Optional[float] = field(default=None, metadata=dict(
        help="virtual seconds between checkpoints"))
    expand_reads: bool = False
    ftl: bool = field(default=False, metadata=dict(
        help="model the SSD's internals (erase blocks, GC, write "
             "amplification; DESIGN.md §10)"))
    partitions: Optional[int] = field(default=None, metadata=dict(
        help="partition count N (§3.3.4) for the SSD buffer table and the "
             "main-memory buffer pool — the tenant-isolation knob"))
    latch_us: float = field(default=0.0, metadata=dict(
        help="modeled buffer-pool partition-latch service time in "
             "microseconds (0: free latches, partition-count-independent "
             "runs; nonzero makes --partitions move per-tenant p99)"))
    kernel: str = field(default="heap", metadata=dict(
        choices=KERNELS,
        help="event-queue implementation (wheel is built for open-loop "
             "timer volume)"))
    tenants: Optional[str] = field(default=None, metadata=dict(
        help="';'-separated tenant specs: name=kind:rate=R|users=U:think=T"
             "[:theta=Z] with kind in poisson|bursty|diurnal"))
    queue_limit: int = field(default=10_000, metadata=dict(
        help="admission queue bound; arrivals beyond it are shed"))

    def __post_init__(self) -> None:
        if self.kind not in ("oltp", "traffic", "tpch"):
            raise ValueError(f"unknown run kind {self.kind!r}")
        if self.benchmark not in PAPER_LAMBDA:
            raise ValueError(f"unknown benchmark {self.benchmark!r}; "
                             f"choose from {sorted(PAPER_LAMBDA)}")
        if (self.kind == "tpch") != (self.benchmark == "tpch"):
            raise ValueError(f"a {self.kind!r} run cannot drive benchmark "
                             f"{self.benchmark!r}")
        if self.profile not in SCALE_PROFILES:
            raise ValueError(f"unknown scale profile {self.profile!r}")
        for knob in _INTEGER_KNOBS:
            value = getattr(self, knob)
            if value is not None and not isinstance(value, int):
                raise ValueError(f"{knob} must be an integer, got {value!r}")
        # A nan duration sized the buckets from nan; Environment.run
        # refused a negative one only after the system was built.
        if not 0 <= self.duration < math.inf:
            raise ValueError(f"duration must be finite and >= 0, "
                             f"got {self.duration}")
        # Every other range is its owner's.  The workload, the configs
        # and the loop sizes are cheap to check, so a bad value fails
        # here, before any system is built or pool worker spawned.
        try:
            make_workload(self.benchmark, self.scale,
                          SCALE_PROFILES[self.profile])
        except ValueError as exc:
            raise ValueError(f"scale: {exc}") from exc
        ssd = {knob: getattr(self, knob)
               for knob in ("dirty_threshold", "partitions")
               if getattr(self, knob) is not None}
        SystemConfig(design=self.design, kernel=self.kernel,
                     bp_latch_us=self.latch_us,
                     checkpoint_interval=self.checkpoint_interval,
                     ssd=SsdDesignConfig(**ssd))
        check_loop(self.nworkers, self.bucket_seconds, self.queue_limit)
        if self.kind == "traffic":
            from repro.workloads.traffic import parse_tenants
            try:
                parse_tenants(self.tenants or "")
            except ValueError as exc:
                raise ValueError(f"tenants: {exc}") from exc

    def to_dict(self) -> Dict[str, Any]:
        """Canonical plain-dict form (the hashed representation)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "RunSpec":
        """Inverse of :meth:`to_dict` (used to ship specs to workers)."""
        return RunSpec(**data)

    @property
    def label(self) -> str:
        """Short human-readable tag for progress lines."""
        return f"{self.benchmark}/{self.scale}/{self.design}"

    @property
    def result_type(self) -> Type[Union[RunResult, TpchResult]]:
        """The record class a run of this spec produces."""
        if self.kind == "tpch":
            from repro.workloads.tpch import TpchResult
            return TpchResult
        return RunResult


#: The knobs a :class:`RunSpec` declares as counts (annotations are
#: strings here: ``from __future__ import annotations``).
_INTEGER_KNOBS = tuple(f.name for f in fields(RunSpec)
                       if f.type in ("int", "Optional[int]"))


def run(spec: RunSpec, telemetry=None, faults=None,
        store=None) -> Union[RunResult, TpchResult]:
    """Build, drive and record the run ``spec`` describes.

    ``telemetry`` (a sink), ``faults`` (a :class:`FaultPlan` or its
    grammar string) and ``store`` (a :class:`repro.runstore.RunStore`)
    are the run's live collaborators, not part of its description.
    Recording failures warn and never fail the run.
    """
    profile = SCALE_PROFILES[spec.profile]
    tenants = None
    if spec.kind == "traffic":
        from repro.workloads.traffic import parse_tenants
        tenants = parse_tenants(spec.tenants)
    workload = make_workload(spec.benchmark, spec.scale, profile)
    system = make_system(
        spec.benchmark, workload, spec.design, profile,
        dirty_threshold=spec.dirty_threshold,
        checkpoint_interval=spec.checkpoint_interval,
        expand_reads=spec.expand_reads, ftl=spec.ftl,
        partitions=spec.partitions, latch_us=spec.latch_us,
        kernel=spec.kernel, telemetry=telemetry, faults=faults)
    tracer = system.telemetry.tracer
    if tracer.enabled:
        # Run identity + provenance ride on the trace, so a JSONL file
        # answers "which code produced this?" like a run-store row does.
        from repro.runstore.provenance import provenance_args

        timed = spec.kind != "tpch"
        meta: Dict[str, Any] = {
            "design": spec.design, "benchmark": spec.benchmark,
            "scale": spec.scale,
            "duration": spec.duration if timed else None}
        if timed:
            meta["seed"] = spec.seed
        meta.update(provenance_args())
        if tenants:
            meta["tenants"] = [tenant.name for tenant in tenants]
        tracer.instant("run_meta", "meta", "meta", meta)
    if spec.kind == "tpch":
        workload.setup(system)
        system.start_services()
        result = system.env.run(system.env.process(workload.full_run(system)))
    else:
        sizing = dict(nworkers=spec.nworkers,
                      bucket_seconds=spec.bucket_seconds, seed=spec.seed)
        runner = (OpenLoopRunner(system, workload, tenants,
                                 queue_limit=spec.queue_limit, **sizing)
                  if tenants else WorkloadRunner(system, workload, **sizing))
        result = runner.run(spec.duration)
    if store is not None:
        from repro.runstore.store import StoreError

        try:
            store.record_result(spec, result, faulted=faults is not None)
        except StoreError as exc:
            print(f"runstore: {exc}; run not recorded", file=sys.stderr)
    return result


def run_oltp_experiment(benchmark: str, scale: int, design: str,
                        duration: float = 60.0,
                        profile: Optional[ScaleProfile] = None,
                        dirty_threshold: Optional[float] = None,
                        checkpoint_interval: Optional[float] = None,
                        nworkers: int = 32,
                        bucket_seconds: float = 2.0,
                        expand_reads: bool = False,
                        ftl: bool = False,
                        partitions: Optional[int] = None,
                        latch_us: float = 0.0,
                        kernel: str = "heap",
                        seed: int = 20110612,
                        telemetry=None, faults=None,
                        store=None) -> RunResult:
    """One closed-loop OLTP run: the building block of Figures 5–9.

    The paper runs TPC-C with checkpointing effectively off and λ=50%,
    TPC-E with 40-minute checkpoints and λ=1% — callers pass the analog
    (a ``checkpoint_interval`` scaled to the run duration).  A
    keyword-argument adapter over :func:`run`: the knobs become the
    :class:`RunSpec`, the live collaborators are passed through.
    """
    params = dict(locals())
    live = {name: params.pop(name)
            for name in ("telemetry", "faults", "store")}
    params["profile"] = profile_name(profile or SCALE_PROFILES["default"])
    return run(RunSpec(kind="oltp", **params), **live)


def speedup_over_nossd(results: Dict[str, float]) -> Dict[str, float]:
    """Normalize a {design: metric} map to the noSSD baseline."""
    baseline = results.get("noSSD")
    if not baseline:
        return {design: 0.0 for design in results}
    return {design: value / baseline for design, value in results.items()}
