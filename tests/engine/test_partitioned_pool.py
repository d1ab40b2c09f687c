"""Partitioned buffer pool: equivalence, determinism, and the latch knob.

The partition refactor must be *invisible* when the latch is free: the
pinned digests below were computed on the pre-refactor single-heap pool,
so any drift in victim selection, stamp ordering, or I/O interleaving
fails these tests byte-for-byte.  ``run_meta`` events are excluded from
the digest because they embed the source hash, which changes with any
edit by design.

With a nonzero latch service time the partition count becomes a real
performance knob: fetches queue through their partition's latch in
virtual time, so per-tenant tail latency must fall monotonically as
``--partitions`` grows.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import BufferPool
from repro.engine.page import Frame
from repro.harness.experiments import RunSpec, run
from repro.telemetry import Telemetry
from tests.conftest import MiniSystem, meta_free_trace_md5


#: Meta-free trace digests of the pre-refactor (single-heap, unlatched)
#: buffer pool, profile=tiny scale=20 duration=4 nworkers=4 seed=20110612.
PINNED_TRACES = {
    ("tpcc", "LC", None): "6f916a0023a162055775779854cc0689",
    ("tpcc", "LC", 1.0): "b79c35551dfb4b0217ba02b67ebcd9e9",
    ("tpcc", "TAC", None): "7c1691bbb0694821ee4bf0c280950482",
    ("tpce", "DW", None): "d13c3276d3fe1e2de60cc960a168330f",
}


def _oltp_trace_md5(benchmark, design, checkpoint_interval=None, **kwargs):
    telemetry = Telemetry()
    run(RunSpec(kind="oltp", benchmark=benchmark, scale=20, design=design,
                duration=4.0, profile="tiny", nworkers=4,
                checkpoint_interval=checkpoint_interval, **kwargs),
        telemetry=telemetry)
    return meta_free_trace_md5(telemetry)


@pytest.mark.parametrize("bench,design,ckpt", sorted(
    PINNED_TRACES, key=str))
def test_single_partition_trace_matches_pre_refactor(bench, design, ckpt):
    """Acceptance: partitions=1 traces are md5-identical to the seed."""
    digest = _oltp_trace_md5(bench, design, checkpoint_interval=ckpt)
    assert digest == PINNED_TRACES[(bench, design, ckpt)]


def test_partition_count_does_not_change_unlatched_traces():
    """With a free latch the global stamp makes victim order a global
    min across partition heaps — so N is trace-invisible."""
    digests = {n: _oltp_trace_md5("tpcc", "LC", partitions=n)
               for n in (1, 4, 16)}
    assert digests[4] == digests[1]
    assert digests[16] == digests[1]
    assert digests[1] == PINNED_TRACES[("tpcc", "LC", None)]


def test_partitioned_run_is_deterministic_under_fixed_seed():
    first = _oltp_trace_md5("tpcc", "LC", partitions=8)
    second = _oltp_trace_md5("tpcc", "LC", partitions=8)
    assert first == second


def _reference_victims(pool, want):
    """Brute force: live, unpinned, unlatched frames by LRU-2 order."""
    ranked = sorted(pool.frames.values(),
                    key=lambda f: (f.prev_access, f.lru_stamp, f.page_id))
    return [f for f in ranked
            if f.pin_count == 0 and f.io_busy is None][:want]


@pytest.mark.parametrize("nparts", [1, 4, 16])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_victim_merge_matches_brute_force_sort(nparts, seed):
    """The k-way merge over partition heaps pops exactly the frames a
    full sort would, under random touches, pins, latched frames, garbage
    entries and re-installed pages — including the minima it defers."""
    rng = random.Random(seed)
    sys_ = MiniSystem(design="noSSD", db_pages=500)
    env = sys_.env
    # Roomy enough that the lazy writer never picks victims of its own.
    pool = BufferPool(env, 400, sys_.disk, sys_.wal, sys_.ssd_manager,
                      partitions=nparts)
    for _ in range(300):
        op = rng.random()
        resident = sorted(pool.frames)
        if op < 0.35 or not resident:
            pid = rng.randrange(120)
            if pid not in pool.frames:  # (re-)install: old entry is garbage
                pool.frames[pid] = frame = Frame(pid)
                pool._touch(frame)
        elif op < 0.60:
            pool._touch(pool.frames[rng.choice(resident)])
        elif op < 0.70:
            env.run(until=env.now + rng.choice([0.0, 0.001, 0.5]))
        elif op < 0.78:
            frame = pool.frames[rng.choice(resident)]
            frame.pin_count = 0 if frame.pin_count else 1
        elif op < 0.84:
            frame = pool.frames[rng.choice(resident)]
            frame.io_busy = None if frame.io_busy else env.event()
        elif op < 0.88:
            del pool.frames[rng.choice(resident)]  # dropped without a pop
        else:
            want = rng.randrange(1, 12)
            expected = _reference_victims(pool, want)
            victims = pool._pick_victims(want)
            assert ([f.page_id for f in victims]
                    == [f.page_id for f in expected])
            for frame in victims:  # evicted, as _evict would
                del pool.frames[frame.page_id]
    # Deferred minima were re-enheaped: once released they all come out.
    for frame in pool.frames.values():
        frame.pin_count, frame.io_busy = 0, None
    expected = _reference_victims(pool, len(pool.frames))
    assert pool._pick_victims(len(pool.frames) + 1) == expected


def test_latched_run_records_partition_latch_waits():
    result = run(RunSpec(kind="oltp", benchmark="tpcc", scale=20,
                         design="LC", duration=4.0, profile="tiny",
                         nworkers=4, partitions=4, latch_us=200.0))
    stats = result.system.bp.stats
    assert stats.partition_latch_waits > 0
    assert stats.partition_latch_wait_time > 0.0
    bp = result.system.bp
    assert bp.partitions == 4
    bp.check_invariants()


def test_latched_throughput_unchanged_by_free_latch():
    """latch_us=0 (the default) must leave results identical to a run
    that never heard of partitioning."""
    base = run(RunSpec(kind="oltp", benchmark="tpcc", scale=20, design="LC",
                       duration=4.0, profile="tiny", nworkers=4))
    sharded = run(RunSpec(kind="oltp", benchmark="tpcc", scale=20,
                          design="LC", duration=4.0, profile="tiny",
                          nworkers=4, partitions=16))
    assert sharded.total_metric_txns == base.total_metric_txns
    assert sharded.system.bp.stats.partition_latch_waits == 0


TWO_TENANTS_HOT = ("gold=poisson:rate=400:theta=0.6;"
                   "noisy=bursty:rate=300:burst=10:theta=0.99")


def test_traffic_per_tenant_p99_strictly_decreases_with_partitions():
    """Acceptance: two-tenant open-loop run, per-tenant p99 strictly
    decreasing across --partitions 1/4/16 when latch time is modeled."""
    p99 = {}
    for nparts in (1, 4, 16):
        result = run(RunSpec(
            kind="traffic", benchmark="tpcc", scale=20, design="LC",
            tenants=TWO_TENANTS_HOT, duration=8.0, profile="tiny",
            nworkers=8, queue_limit=200, partitions=nparts, latch_us=200.0))
        p99[nparts] = {name: stats.latencies.percentile(99)
                       for name, stats in result.tenants.items()}
    for tenant in ("gold", "noisy"):
        assert p99[4][tenant] < p99[1][tenant]
        assert p99[16][tenant] < p99[4][tenant]
