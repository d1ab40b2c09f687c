"""Shared infrastructure for the benchmark harness.

Every module in ``benchmarks/`` regenerates one table or figure of the
paper (see DESIGN.md's experiment index).  Runs go through the on-disk
run cache of :mod:`repro.harness.sweep`, so benches sharing an
underlying experiment (e.g. Figure 5(g–h) and Table 3) execute it once,
and a later session reuses it: the cache key covers the full config
*and* the simulator sources, so a code change is an automatic miss.

Scaling: the default profile preserves the paper's sizing ratios at
100 pages/GB and compresses the 10-hour timeline into 60 virtual seconds
(see EXPERIMENTS.md).  Set ``REPRO_BENCH_FAST=1`` to use the smaller
profile for a quick smoke pass.
"""

from __future__ import annotations

import os

from repro.harness.experiments import SCALE_PROFILES
from repro.harness.sweep import RunSpec, run_cached

FAST = bool(os.environ.get("REPRO_BENCH_FAST"))
PROFILE_NAME = "small" if FAST else "default"
PROFILE = SCALE_PROFILES[PROFILE_NAME]

#: Virtual seconds standing in for the paper's 10-hour runs.
OLTP_DURATION = 30.0 if FAST else 60.0
#: Bucket width standing in for the paper's 6-minute buckets.
BUCKET = 2.0
#: Checkpoint-interval analog of the paper's 40 minutes (TPC-E/H runs
#: checkpoint "roughly every 40 minutes" of their 10 hours).
CHECKPOINT_40MIN = OLTP_DURATION / 15.0
#: Analog of the 5-hour interval used in Figure 9.
CHECKPOINT_5H = OLTP_DURATION / 2.0

#: TPC-C benches drive more closed-loop clients: the update-intensive
#: workload must *saturate* the devices for the cleaner-contention
#: effects (Figures 6 and 7) to be measurable, exactly as the paper's
#: multi-user runs did.
TPCC_WORKERS = 16 if FAST else 96

def oltp_run(benchmark: str, scale: int, design: str, **knobs):
    """Cached OLTP run with the bench-wide defaults; ``knobs`` are
    :class:`RunSpec` fields that override them."""
    defaults = dict(profile=PROFILE_NAME, bucket_seconds=BUCKET,
                    duration=OLTP_DURATION,
                    nworkers=TPCC_WORKERS if benchmark == "tpcc" else 32)
    return run_cached(RunSpec(kind="oltp", benchmark=benchmark, scale=scale,
                              design=design, **{**defaults, **knobs}))


def ramp_fraction(result, level: float = 0.8) -> float:
    """Fraction of the run before throughput first reached ``level`` of
    its steady tail average (the ramp-up measurement of Figure 6)."""
    series = result.throughput_series(smooth=3)
    if not series:
        return 1.0
    tail = [rate for _, rate in series[-max(1, len(series) // 5):]]
    steady = sum(tail) / len(tail)
    if steady <= 0:
        return 1.0
    for index, (_, rate) in enumerate(series):
        if rate >= level * steady:
            return index / len(series)
    return 1.0


def tpch_run(sf: int, design: str):
    """Cached full TPC-H run (power + throughput)."""
    return run_cached(RunSpec(kind="tpch", benchmark="tpch", scale=sf,
                              design=design, profile=PROFILE_NAME,
                              checkpoint_interval=CHECKPOINT_40MIN))


def once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark's timer."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
