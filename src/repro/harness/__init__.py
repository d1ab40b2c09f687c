"""Experiment harness: system assembly, workload driving, and the
per-table/figure experiment registry that regenerates the paper's
evaluation section."""

from repro.harness.system import System, SystemConfig
from repro.harness.runner import (OpenLoopRunner, RunResult,
                                 WorkloadRunner)
from repro.harness.metrics import Sampler, TenantStats
from repro.harness.crashpoints import (
    CrashPointOutcome,
    CrashSweepConfig,
    CrashSweepResult,
    crash_point_sweep,
    format_sweep_table,
)
from repro.harness.experiments import (
    SCALE_PROFILES,
    ScaleProfile,
    run_oltp_experiment,
)
from repro.harness.report import format_series, format_table

__all__ = [
    "CrashPointOutcome",
    "CrashSweepConfig",
    "CrashSweepResult",
    "OpenLoopRunner",
    "RunResult",
    "crash_point_sweep",
    "format_sweep_table",
    "SCALE_PROFILES",
    "Sampler",
    "ScaleProfile",
    "System",
    "TenantStats",
    "SystemConfig",
    "WorkloadRunner",
    "format_series",
    "format_table",
    "run_oltp_experiment",
]
