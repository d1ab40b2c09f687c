"""Experiment harness: system assembly, workload driving, and the
per-table/figure experiment registry that regenerates the paper's
evaluation section."""

from repro.harness.system import System, SystemConfig
from repro.harness.runner import (OpenLoopRunner, RunResult,
                                 WorkloadRunner)
from repro.harness.metrics import Sampler, TenantStats
from repro.harness.experiments import (
    SCALE_PROFILES,
    ScaleProfile,
    run_oltp_experiment,
)

__all__ = [
    "OpenLoopRunner",
    "RunResult",
    "SCALE_PROFILES",
    "Sampler",
    "ScaleProfile",
    "System",
    "TenantStats",
    "SystemConfig",
    "WorkloadRunner",
    "run_oltp_experiment",
]
