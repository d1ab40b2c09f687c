"""Each layer alone: one row per layer, driven through public functions only.

    python perf/layers.py [--smoke]

Every row builds the smallest ``System`` / ``Environment`` that lets it
call the named functions, times the calls with ``time.process_time()``,
and asserts its own work count, so a row that silently does nothing
fails instead of reporting a fast number.  ``iso_rows`` runs each row
five times and reports the median and the median absolute deviation.
``iso.calib.loop_s`` is the host-speed reference the other rows (and
``perf/run.py``'s disturbed-run guard) are read against.
"""

from __future__ import annotations

import argparse
import itertools
import random
import statistics
import sys
from time import process_time
from typing import Callable, Dict, Tuple

from calib import calib_loop
from layermap import SRC

sys.path.insert(0, str(SRC))

from repro.core import SsdDesignConfig  # noqa: E402
from repro.engine.page import Frame  # noqa: E402
from repro.harness.experiments import run_oltp_experiment  # noqa: E402
from repro.harness.system import System, SystemConfig  # noqa: E402
from repro.sim import Environment, WheelEnvironment  # noqa: E402
from repro.storage import HddArray, Ssd  # noqa: E402
from repro.storage.ftl import FlashTranslationLayer, FtlConfig  # noqa: E402
from repro.storage.request import IoKind, IORequest  # noqa: E402
from repro.telemetry import Telemetry  # noqa: E402
from repro.workloads.traffic import BurstyArrivals, PoissonArrivals  # noqa: E402

REPEATS = 5


# ----------------------------------------------------------------------
# sim: events per host second
# ----------------------------------------------------------------------

def _kernel_rate(envcls, nprocs: int, delay: float) -> Callable[[int], float]:
    """``nprocs`` processes, each yielding back-to-back timeouts; with
    20 000 processes that many timers are pending at every instant."""
    def row(n: int) -> float:
        env = envcls()
        per_proc = max(1, n // nprocs)

        def proc(step: float):
            timeout = env.timeout
            for _ in range(per_proc):
                yield timeout(step)

        for i in range(nprocs):
            # Distinct steps keep the pending timers spread over the queue.
            env.process(proc(delay * (1.0 + i / nprocs)))
        started = process_time()
        env.run()
        elapsed = process_time() - started
        slowest = delay * (2.0 - 1.0 / nprocs) * per_proc
        assert abs(env.now - slowest) < 1e-6 * slowest, (env.now, slowest)
        return nprocs * per_proc / elapsed
    return row


# ----------------------------------------------------------------------
# storage: Device.submit -> completion, 32 requests in flight
# ----------------------------------------------------------------------

def _submit_us(make_device) -> Callable[[int], float]:
    def row(n: int) -> float:
        env = Environment()
        device = make_device(env)
        per_proc = max(1, n // 32)

        def proc(base: int):
            for i in range(per_proc):
                yield device.submit(
                    IORequest(IoKind.RANDOM_READ, base + i * 97, 1))

        for i in range(32):
            env.process(proc(i * 10_000))
        started = process_time()
        env.run()
        elapsed = process_time() - started
        assert device.stats.completed == 32 * per_proc, device.stats.completed
        return elapsed * 1e6 / device.stats.completed
    return row


# ----------------------------------------------------------------------
# engine: pool hit, pool miss + evict, B-tree lookup, WAL commit
# ----------------------------------------------------------------------

def _system(design: str, db_pages: int, bp_pages: int,
            ssd_frames: int = 0) -> System:
    return System(SystemConfig(design=design, db_pages=db_pages,
                               bp_pages=bp_pages,
                               ssd=SsdDesignConfig(ssd_frames=ssd_frames)))


def _drive(system: System, *generators) -> float:
    """Run the generators to completion; CPU seconds it took."""
    env = system.env
    procs = [env.process(g) for g in generators]
    started = process_time()
    env.run(env.all_of(procs))
    return process_time() - started


def pool_hit_us(n: int) -> float:
    system = _system("noSSD", db_pages=1_024, bp_pages=512)
    bp = system.bp

    def touch(count: int):
        for i in range(count):
            frame = yield from bp.fetch(i % 256)
            bp.unpin(frame)

    _drive(system, touch(256))
    before = bp.stats.hits
    elapsed = _drive(system, touch(n))
    assert bp.stats.hits - before == n, bp.stats.hits - before
    return elapsed * 1e6 / n


def pool_miss_evict_us(n: int) -> float:
    system = _system("noSSD", db_pages=2_560, bp_pages=256)
    bp = system.bp
    per_proc = max(1, n // 8)

    def reader(seed: int):
        rng = random.Random(seed)
        for _ in range(per_proc):
            frame = yield from bp.fetch(rng.randrange(2_560))
            bp.unpin(frame)

    elapsed = _drive(system, *(reader(i) for i in range(8)))
    fetched = bp.stats.hits + bp.stats.misses
    assert fetched == 8 * per_proc, fetched
    assert bp.stats.misses > 0.8 * fetched, bp.stats.misses
    if fetched > 1_000:
        assert bp.stats.evictions_clean > 0.5 * fetched, (
            bp.stats.evictions_clean)
    return elapsed * 1e6 / fetched


def btree_lookup_us(n: int) -> float:
    system = _system("noSSD", db_pages=4_096, bp_pages=2_048)
    nkeys = 60_000
    tree = system.db.create_index("iso", range(nkeys), leaf_capacity=63)
    found = [0]

    def lookups(count: int, seed: int):
        rng = random.Random(seed)
        for _ in range(count):
            value = yield from tree.lookup(system.bp, rng.randrange(nkeys))
            found[0] += value is not None

    _drive(system, lookups(20_000, 1))  # warm: the whole tree fits the pool
    found[0] = 0
    elapsed = _drive(system, lookups(n, 2))
    assert found[0] == n, found[0]
    return elapsed * 1e6 / n


def wal_commit_us(n: int) -> float:
    system = _system("noSSD", db_pages=1_024, bp_pages=64)
    wal = system.wal
    per_proc = max(1, n // 16)

    def committer(page: int):
        for version in range(per_proc):
            yield from wal.force(wal.append(page, version))

    elapsed = _drive(system, *(committer(i) for i in range(16)))
    assert wal.flushed_lsn == 16 * per_proc - 1, wal.flushed_lsn
    return elapsed * 1e6 / (16 * per_proc)


# ----------------------------------------------------------------------
# core: a page leaves the pool (on_evict_*), then is asked for (try_read)
# ----------------------------------------------------------------------

def _evict_read_us(design: str) -> Callable[[int], float]:
    """The buffer pool's own call order against one SSD manager, with the
    pool taken out: ``try_read`` (disk on a miss, then
    ``on_read_from_disk``), then the frame leaves again through
    ``invalidate`` + ``on_evict_dirty`` one time in three, else through
    ``on_evict_clean``.  Eight workers own disjoint pages, as the pool's
    frame latch would guarantee."""
    def row(n: int) -> float:
        system = _system(design, db_pages=2_000, bp_pages=64,
                         ssd_frames=1_000)
        manager, disk, wal = system.ssd_manager, system.disk, system.wal
        per_proc = max(1, n // 8)
        served = [0]

        def worker(index: int):
            rng = random.Random(index)
            for _ in range(per_proc):
                page = rng.randrange(250) * 8 + index
                version = yield from manager.try_read(page)
                if version is None:
                    versions = yield from disk.read(page, 1, sequential=False)
                    frame = Frame(page, versions[0])
                    manager.on_read_from_disk(frame)
                else:
                    frame = Frame(page, version)
                    served[0] += 1
                if rng.random() < 1 / 3:
                    manager.invalidate(page)
                    frame.version += 1
                    frame.dirty = True
                    frame.page_lsn = frame.rec_lsn = wal.append(
                        page, frame.version)
                    yield from wal.force(frame.page_lsn)
                    yield from manager.on_evict_dirty(frame)
                else:
                    yield from manager.on_evict_clean(frame)

        elapsed = _drive(system, *(worker(i) for i in range(8)))
        system.run(until=system.env.now + 1.0)  # let write-behind land
        manager.check_invariants()
        assert manager.stats.reads == served[0], (manager.stats.reads, served)
        if n > 1_000:
            assert served[0] > 0.2 * n, served[0]
            assert manager.stats.writes > 0.2 * n, manager.stats.writes
        return elapsed * 1e6 / (8 * per_proc)
    return row


# ----------------------------------------------------------------------
# ftl, workloads, telemetry
# ----------------------------------------------------------------------

def ftl_write_us(n: int) -> float:
    logical = 8_192
    ftl = FlashTranslationLayer(logical, FtlConfig())
    rng = random.Random(7)
    for lpn in range(logical):  # fill, then overwrite until GC is steady
        ftl.host_write(lpn)
    for _ in range(logical):
        ftl.host_write(rng.randrange(logical))
    before, gc_before = ftl.stats.host_writes, ftl.stats.gc_runs
    started = process_time()
    for _ in range(n):
        ftl.host_write(rng.randrange(logical))
    elapsed = process_time() - started
    assert ftl.stats.host_writes - before == n
    assert ftl.stats.gc_runs > gc_before, "GC never ran"
    ftl.check()
    return elapsed * 1e6 / n


def _arrivals_per_s(arrivals) -> Callable[[int], float]:
    def row(n: int) -> float:
        times = arrivals.times(random.Random(11))
        started = process_time()
        drawn = list(itertools.islice(times, n))
        elapsed = process_time() - started
        assert len(drawn) == n and drawn[-1] > drawn[0] > 0.0
        return n / elapsed
    return row


def trace_on_x(sim_s: int) -> float:
    """CPU of a short ``tpcc_lc`` with a tracing Telemetry over the same
    run without one."""
    def timed(telemetry) -> Tuple[float, int]:
        started = process_time()
        result = run_oltp_experiment("tpcc", 1000, "LC", duration=sim_s,
                                     nworkers=16, telemetry=telemetry)
        return process_time() - started, result.total_metric_txns

    telemetry = Telemetry()
    off, txns_off = timed(None)
    on, txns_on = timed(telemetry)
    assert txns_on == txns_off > 0, (txns_on, txns_off)
    assert len(telemetry.tracer.events) > txns_on, "tracer recorded nothing"
    return on / off


#: name -> (unit, row, full size, smoke size)
ROWS: Dict[str, Tuple[str, Callable[[int], float], int, int]] = {
    "iso.calib.loop_s": ("s", lambda n: calib_loop(), 0, 0),
    "iso.sim.heap_chain_ev_per_s":
        ("1/s", _kernel_rate(Environment, 1, 0.001), 400_000, 20_000),
    "iso.sim.heap_procs50_ev_per_s":
        ("1/s", _kernel_rate(Environment, 50, 0.001), 300_000, 20_000),
    "iso.sim.heap_20k_ev_per_s":
        ("1/s", _kernel_rate(Environment, 20_000, 1.0), 200_000, 40_000),
    "iso.sim.wheel_chain_ev_per_s":
        ("1/s", _kernel_rate(WheelEnvironment, 1, 0.001), 300_000, 20_000),
    "iso.sim.wheel_procs50_ev_per_s":
        ("1/s", _kernel_rate(WheelEnvironment, 50, 0.001), 300_000, 20_000),
    "iso.sim.wheel_20k_ev_per_s":
        ("1/s", _kernel_rate(WheelEnvironment, 20_000, 1.0), 200_000, 40_000),
    "iso.storage.ssd_submit_us": ("us", _submit_us(Ssd), 60_000, 3_200),
    "iso.storage.hdd_submit_us": ("us", _submit_us(HddArray), 60_000, 3_200),
    "iso.engine.pool_hit_us": ("us", pool_hit_us, 300_000, 10_000),
    "iso.engine.pool_miss_evict_us": ("us", pool_miss_evict_us, 20_000, 1_600),
    "iso.engine.btree_lookup_us": ("us", btree_lookup_us, 100_000, 5_000),
    "iso.engine.wal_commit_us": ("us", wal_commit_us, 64_000, 3_200),
    **{f"iso.core.{design}_evict_read_us":
       ("us", _evict_read_us(design), 12_000, 1_600)
       for design in ("CW", "DW", "LC", "TAC", "LS")},
    "iso.ftl.write_us": ("us", ftl_write_us, 200_000, 10_000),
    "iso.workloads.poisson_arrivals_per_s":
        ("1/s", _arrivals_per_s(PoissonArrivals(10_000.0)), 500_000, 20_000),
    "iso.workloads.bursty_arrivals_per_s":
        ("1/s", _arrivals_per_s(BurstyArrivals(10_000.0, burst=8.0)),
         500_000, 20_000),
    "iso.telemetry.trace_on_x": ("x", trace_on_x, 10, 1),
}


def iso_rows(smoke: bool = False) -> Dict[str, Dict[str, object]]:
    """Every row: median and MAD of ``REPEATS`` in-process repeats."""
    rows = {}
    for name, (unit, row, full, small) in ROWS.items():
        values = [row(small if smoke else full) for _ in range(REPEATS)]
        median = statistics.median(values)
        rows[name] = {
            "unit": unit, "median": median, "values": values,
            "mad": statistics.median(abs(v - median) for v in values)}
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes: checks the rows, not the host")
    args = parser.parse_args()
    for name, row in iso_rows(smoke=args.smoke).items():
        print(f"{name:<40} {row['median']:>14.6g} {row['unit']:<4}"
              f" (mad {row['mad']:.3g})")


if __name__ == "__main__":
    main()
