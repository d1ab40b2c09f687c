"""The four benchmark cells, and the child process that runs one of them once.

``perf/run.py`` starts this file in a fresh interpreter for every run
(``python perf/cells.py --workload W --seed N --scale F [--traced]``) and
reads one JSON object from the last line of its standard output.
Nothing here changes ``src/``: a cell is built with the public
``make_workload`` / ``make_system``, driven by ``WorkloadRunner`` /
``OpenLoopRunner`` / the ``TpchWorkload`` test methods, and read back
through the public stats objects.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import random
import resource
import sys
import time
from typing import Any, Dict, Optional

import calib
from layermap import LAYERS, SRC, layer_of

DEFAULT_SEED = 20110612

#: ``--seconds`` at which every cell runs at the full size written below;
#: ``scale = seconds / FULL_SECONDS`` multiplies all four simulated
#: durations (tpch: the share of the throughput test that is run).
FULL_SECONDS = 100.0

#: The ISSUE's tenant string offers 10k arrivals/sim-s against a service
#: capacity of ~8.8k (log disk 99 % busy, hot pool-partition latch), and
#: its 10 s burst cycle is as long as a scaled run: it sheds 0-20 % and
#: p99 spans 80-1150 ms depending on the seed.  Same two tenants, same 1.2M
#: logical users, same burst ratio and skews; think times doubled (5k
#: arrivals/sim-s, 57 % load) and the burst cycle cut to 50 ms so a run
#: holds ~100 cycles and no arrival is shed.
TENANTS = ("web=poisson:users=800000:think=200:theta=0.6;"
           "batch=bursty:users=400000:think=400:burst=8:cycle=0.05:theta=0.95")

CELLS: Dict[str, Dict[str, Any]] = {
    "tpcc_lc": dict(
        kind="closed", benchmark="tpcc", scale=1000, design="LC",
        profile="default", clients=16, full_sim_s=60.0, system={},
        why="Closed loop, 16 clients, update-heavy, DB 10k pages > pool 2k "
            "< SSD 14k: B-tree descent, pool hit and dirty-evict path, LC "
            "write-back; FTL and cleaner idle."),
    "tpch_dw": dict(
        kind="tpch", benchmark="tpch", scale=100, design="DW",
        profile="default", system={"checkpoint_interval": 4.0},
        round_sim_s=24.0,  # the power test and one round last about this
        why="Fixed work, 5 query streams, scans larger than the SSD (16k "
            "pages): read-ahead, sequential I/O, admission bypass, clean "
            "eviction; bypasses the generators and the B-tree."),
    "tpcc_ls_ftl": dict(
        kind="closed", benchmark="tpcc", scale=1200, design="LS",
        profile="small", clients=16, full_sim_s=30.0, system={"ftl": True},
        why="Closed loop, 16 clients, writes to flash: log-structured "
            "admission, segment cleaning, lambda-cleaner, FTL GC and TRIM; "
            "the only cell where the ftl layer runs at all."),
    "traffic_open": dict(
        kind="open", benchmark="tpcc", scale=100, design="LC",
        profile="tiny", workers=32, queue_limit=10_000, tenants=TENANTS,
        full_sim_s=40.0, system={"latch_us": 20.0, "kernel": "wheel"},
        why="Open loop, 5k arrivals/sim-s from two tenants (1.2M logical "
            "users), data fits the caches: arrival generators, admission "
            "queue, wheel kernel, pool hit path; bypasses devices and SSD "
            "manager."),
}

#: ``--smoke``: the same shapes on the tiny profile for 2 simulated
#: seconds, so the self-check tests finish in seconds.
SMOKE = {
    "tpcc_lc": dict(scale=100, profile="tiny"),
    "tpch_dw": dict(scale=30, profile="tiny", round_sim_s=0.4),
    "tpcc_ls_ftl": dict(scale=120, profile="tiny"),
    "traffic_open": {},
}
SMOKE_SIM_S = 2.0

#: Calibration slices per run (one every 1/40 of the simulated duration).
TICKS = 40


def tpch_rounds(scale: float, streams: int) -> int:
    """tpch: the throughput test is cut into ``streams`` equal rounds, each
    running every query template once across the streams; how many run."""
    return min(streams, max(1, round(streams * scale)))


def _tpch_run(system, workload, seed: int, rounds: int):
    """Process step: the power test, then ``rounds`` of the throughput test.

    Stream ``i`` runs its seeded permutation of the 22 templates but
    skips those with ``(number - 1 - i) % streams >= rounds``, so every
    round adds each template exactly once whatever the seed, and
    ``streams`` rounds are ``TpchWorkload.throughput_test`` itself (same
    rngs, same order; the self-check test pins that).  Returns a
    ``TpchResult`` whose ``streams`` is the number of rounds run, so
    ``qphh`` counts the queries that were executed.
    """
    from repro.workloads.tpch import QUERIES, TpchResult

    env = system.env
    result = TpchResult(sf=workload.sf)
    yield from workload.power_test(system, result, seed=seed)
    started = env.now
    streams = workload.streams

    def stream(stream_no: int):
        rng = random.Random((seed + 1) * 1000 + stream_no)
        order = list(QUERIES)
        rng.shuffle(order)
        for profile in order:
            if (profile.number - 1 - stream_no) % streams < rounds:
                yield from workload.run_query(system, profile, rng)

    def refresher():
        rng = random.Random((seed + 1) * 7777)
        for _ in range(rounds):
            yield from workload.refresh(system, rng)

    procs = [env.process(stream(i)) for i in range(streams)]
    procs.append(env.process(refresher()))
    yield env.all_of(procs)
    result.streams = rounds
    result.throughput_elapsed = env.now - started
    return result


def _device_counts(prefix: str, device) -> Dict[str, float]:
    stats = device.stats
    return {f"{prefix}.ios": stats.completed,
            f"{prefix}.pages_read": stats.pages_read,
            f"{prefix}.pages_written": stats.pages_written,
            f"{prefix}.busy_sim_s": stats.busy_time}


def collect_counts(system, result, ops: int) -> Dict[str, float]:
    """Per-layer work counts, read from the public stats objects."""
    counts: Dict[str, float] = {
        # The kernel's schedule counter; -1 if a later kernel drops it.
        "sim.events": getattr(system.env, "_seq", -1)}
    counts.update(_device_counts("storage.hdd", system.data_device))
    counts.update(_device_counts("storage.ssd", system.ssd_device))
    log = system.wal.device.stats
    counts["storage.log.ios"] = log.completed
    counts["storage.log.pages_written"] = log.pages_written
    ftl = system.ssd_device.ftl
    for name in ("host_writes", "nand_writes", "gc_runs",
                 "gc_migrated_pages", "erases", "trims"):
        counts[f"ftl.{name}"] = getattr(ftl.stats, name) if ftl else 0
    pool = system.bp.stats
    counts.update({
        "engine.pool.fetches": pool.hits + pool.misses,
        "engine.pool.hit_rate": pool.hit_rate,
        "engine.pool.ssd_hit_rate": pool.ssd_hit_rate,
        "engine.pool.disk_reads": pool.disk_reads,
        "engine.pool.prefetched_pages": pool.prefetched_pages,
        "engine.pool.evictions_clean": pool.evictions_clean,
        "engine.pool.evictions_dirty": pool.evictions_dirty,
        "engine.pool.latch_wait_sim_s": pool.latch_wait_time,
        "engine.pool.partition_latch_wait_sim_s":
            pool.partition_latch_wait_time,
    })
    records = system.wal.tail_lsn + 1
    counts["engine.wal.records"] = records
    counts["engine.wal.flushes"] = log.completed
    counts["engine.wal.records_per_flush"] = (
        records / log.completed if log.completed else 0.0)
    durations = system.checkpointer.durations
    counts["engine.ckpt.taken"] = system.checkpointer.checkpoints_taken
    counts["engine.ckpt.mean_sim_s"] = (
        sum(durations) / len(durations) if durations else 0.0)
    ssd = system.ssd_manager.stats
    for name in ("reads", "writes", "invalidations", "evictions",
                 "cleaner_pages", "cleaner_ios", "declined_throttle",
                 "fallback_disk_writes", "io_retries"):
        counts[f"core.{name}"] = getattr(ssd, name)
    open_loop = bool(getattr(result, "tenants", None))
    counts["workloads.txns"] = ops
    counts["workloads.offered"] = result.offered if open_loop else 0
    counts["workloads.shed"] = result.shed if open_loop else 0
    counts["workloads.queue_wait_p99_sim_ms"] = (
        result.queue_wait_percentile(99) * 1e3 if open_loop else 0.0)
    return counts


def check_outputs(system, result, ops: int, timed: int,
                  latencies) -> list:
    """What is wrong with the finished run's state (empty = correct)."""
    problems = []
    try:
        system.ssd_manager.check_invariants()
        if system.ssd_device.ftl is not None:
            system.ssd_device.ftl.check()
    except AssertionError as exc:
        problems.append(f"invariant: {exc}")
    pool = system.bp.stats
    if ops < 1 or pool.hits + pool.misses < ops:
        problems.append(f"{ops} operations over "
                        f"{pool.hits + pool.misses} page fetches")
    if latencies.count() != timed:
        problems.append(f"{latencies.count()} latencies for {timed} "
                        f"timed operations")
    if system.wal.flushed_lsn > system.wal.tail_lsn:
        problems.append("log flushed past its tail")
    tenants = getattr(result, "tenants", None) or {}
    for tenant in tenants.values():
        if tenant.completed + tenant.shed > tenant.offered:
            problems.append(f"tenant {tenant.name}: completed + shed "
                            f"exceeds offered")
    return problems


def run_cell(name: str, seed: int, scale: float, traced: bool = False,
             smoke: bool = False, setup_only: bool = False,
             design: Optional[str] = None) -> Dict[str, Any]:
    """Build, run and read back one cell; returns the child's JSON record.

    ``design`` swaps the SSD design and nothing else: ``tpcc_lc`` run as
    ``noSSD`` is the twin that ``harness.paper_rel_err`` divides by.
    """
    # Set-up is the product's share of a start: from the first ``repro``
    # import to the first simulated event, with calibration slices on
    # both sides of it.
    ticker = calib.Ticker()
    ticker.take(8)
    setup_cpu0 = time.process_time()
    sys.path.insert(0, str(SRC))
    from repro.harness.experiments import (SCALE_PROFILES, make_system,
                                           make_workload)
    from repro.harness.metrics import LatencyTracker
    from repro.harness.runner import OpenLoopRunner, WorkloadRunner

    cell = dict(CELLS[name], **(SMOKE[name] if smoke else {}))
    if design:
        cell["design"] = design
    kind = cell["kind"]
    profile = SCALE_PROFILES[cell["profile"]]
    workload = make_workload(cell["benchmark"], cell["scale"], profile)
    system = make_system(cell["benchmark"], workload, cell["design"],
                         profile, **cell["system"])
    if kind == "tpch":
        rounds = 1 if smoke else tpch_rounds(scale, workload.streams)
        tick_sim_s = cell["round_sim_s"] * rounds / TICKS
    else:
        sim_s = SMOKE_SIM_S if smoke else cell["full_sim_s"] * scale
        tick_sim_s = sim_s / TICKS
        # Buckets shrink with the run, so the steady-state window stays
        # the last fifth of it at every scale.
        sizing = dict(bucket_seconds=2.0 * sim_s / cell["full_sim_s"],
                      seed=seed)
        if kind == "closed":
            runner = WorkloadRunner(system, workload,
                                    nworkers=cell["clients"], **sizing)
        else:
            from repro.workloads.traffic import parse_tenants
            runner = OpenLoopRunner(
                system, workload, parse_tenants(cell["tenants"]),
                nworkers=cell["workers"], queue_limit=cell["queue_limit"],
                **sizing)
    workload.setup(system)
    system.start_services()
    setup_raw_s = time.process_time() - setup_cpu0
    ticker.take(8)
    setup_s = setup_raw_s / ticker.summary()["slowdown"]
    if setup_only:
        return {"setup_s": setup_s}

    ticker = calib.Ticker()
    system.env.process(ticker.process(system.env, tick_sim_s))
    profiler = cProfile.Profile(builtins=False) if traced else None
    started_sim = system.env.now
    wall0, cpu0 = time.perf_counter(), time.process_time()
    if profiler:
        profiler.enable()
    if kind == "tpch":
        result = system.env.run(system.env.process(
            _tpch_run(system, workload, seed, rounds)))
    else:
        result = runner.run(sim_s, setup=False)
    if profiler:
        profiler.disable()
    cpu_s = time.process_time() - cpu0
    run_wall_s = time.perf_counter() - wall0
    host = ticker.summary()
    run_raw_s = cpu_s - ticker.spent_s

    if kind == "tpch":
        # Latency is read off the serial power test only: beside four
        # other streams a query's elapsed time says who its neighbours
        # were.  Operations are the queries and refresh functions run.
        latencies = LatencyTracker()
        for number, elapsed in result.query_times.items():
            latencies.record(f"q{number}", elapsed)
        for elapsed in result.rf_times:
            latencies.record("refresh", elapsed)
        timed = metric_txns = latencies.count()
        ops = timed + rounds * (len(result.query_times) + 1)
        txn_counts = {"power": timed, "throughput": ops - timed}
        series = [result.power_elapsed, result.throughput_elapsed]
        sim_tput = result.qphh / 60.0
        attempted, failed = ops, 0
    else:
        latencies = result.latencies
        timed = ops = sum(result.txn_counts.values())
        txn_counts = dict(sorted(result.txn_counts.items()))
        metric_txns = result.total_metric_txns
        series = list(result.buckets)
        sim_tput = result.steady_state_throughput()
        attempted, failed = ((result.offered, result.shed)
                             if kind == "open" else (ops, 0))
    sim = {
        "sim_tput": sim_tput,
        "sim_mean_ms": latencies.mean() * 1e3,
        "sim_p95_ms": latencies.percentile(95) * 1e3,
    }
    counts = collect_counts(system, result, ops)
    counts["harness.sim_s"] = system.env.now - started_sim
    counts["harness.ops"] = ops
    counts["harness.metric_txns"] = metric_txns
    counts["workloads.p50_sim_ms"] = latencies.percentile(50) * 1e3
    counts["workloads.p99_sim_ms"] = latencies.percentile(99) * 1e3
    # The flat Table 1 SSD model programs one page per page written.
    ftl = system.ssd_device.ftl
    counts["ftl.waf"] = ftl.waf if ftl is not None else 1.0
    problems = check_outputs(system, result, ops, timed, latencies)
    digest = hashlib.sha256(json.dumps(
        [sim, txn_counts, series, counts], sort_keys=True).encode()
    ).hexdigest()

    layer_own_s: Optional[Dict[str, float]] = None
    if profiler:
        layer_own_s = dict.fromkeys(LAYERS, 0.0)
        for entry in profiler.getstats():
            filename = entry.code.co_filename
            if filename != calib.__file__:  # the reference is not the run
                layer_own_s[layer_of(filename)] += entry.inlinetime
    return {
        # setup_s and run_cpu_s are host CPU seconds as if every
        # calibration slice had taken calib.REFERENCE_SLICE_S; run_raw_s
        # is the run phase as clocked.
        "setup_s": setup_s,
        "run_cpu_s": run_raw_s / host["slowdown"], "run_raw_s": run_raw_s,
        "run_wall_s": run_wall_s, "wall_over_cpu": run_wall_s / cpu_s,
        "host": host,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": ops, "attempted": attempted, "failed": failed,
        "sim": sim, "counts": counts, "sim_digest": digest,
        "layer_own_s": layer_own_s, "problems": problems,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(CELLS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--design")
    args = parser.parse_args()
    print(json.dumps(run_cell(args.workload, args.seed, args.scale,
                              traced=args.traced, smoke=args.smoke,
                              setup_only=args.setup_only,
                              design=args.design)))


if __name__ == "__main__":
    main()
