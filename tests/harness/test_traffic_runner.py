"""Open-loop traffic runs: tenants, shed accounting, kernel equivalence.

Also the regression tests for the three closed-loop driver bugs this PR
fixes (per-run txn-id reset, partial-final-bucket accounting, latched
``stop()``) — each reproduces the pre-fix failure mode.
"""

import hashlib
import json

import pytest

from repro.harness import (OpenLoopRunner, RunResult, WorkloadRunner,
                           run_oltp_experiment, run_traffic_experiment)
from repro.harness.experiments import (SCALE_PROFILES, make_system,
                                       make_workload)
from repro.runstore.store import RunStore
from repro.telemetry import Telemetry
from repro.workloads.traffic import parse_tenants

TINY = SCALE_PROFILES["tiny"]

TWO_TENANTS = ("gold=poisson:rate=40:theta=0.6;"
               "noisy=bursty:rate=30:burst=10:theta=0.99")


def _traffic(design="LC", kernel="heap", duration=8.0, queue_limit=200,
             nworkers=8, tenants=TWO_TENANTS, **kwargs):
    return run_traffic_experiment(
        "tpcc", 20, design, tenants, duration=duration, profile=TINY,
        nworkers=nworkers, queue_limit=queue_limit, bucket_seconds=2.0,
        kernel=kernel, **kwargs)


def test_open_loop_run_reports_per_tenant_stats():
    result = _traffic()
    assert set(result.tenants) == {"gold", "noisy"}
    gold = result.tenants["gold"]
    assert gold.offered > 0
    assert gold.completed + gold.shed <= gold.offered
    assert gold.latencies.count() == gold.completed
    assert gold.queue_waits.count() == gold.completed
    assert result.offered == sum(t.offered for t in result.tenants.values())
    assert result.total_metric_txns > 0
    assert result.logical_users == pytest.approx(70 * 100.0)
    # Sojourn >= queue wait for every tenant.
    assert gold.latencies.percentile(99) >= gold.queue_waits.percentile(99)


def test_open_loop_same_seed_is_deterministic():
    a = _traffic(seed=7)
    b = _traffic(seed=7)
    c = _traffic(seed=8)
    assert a.buckets == b.buckets
    assert {n: t.offered for n, t in a.tenants.items()} == \
           {n: t.offered for n, t in b.tenants.items()}
    assert (a.buckets, a.offered) != (c.buckets, c.offered)


def test_open_loop_wheel_kernel_matches_heap_exactly():
    heap = _traffic(kernel="heap")
    wheel = _traffic(kernel="wheel")
    assert wheel.buckets == heap.buckets
    assert wheel.txn_counts == heap.txn_counts
    for name in heap.tenants:
        assert wheel.tenants[name].completed == heap.tenants[name].completed
        assert wheel.tenants[name].latencies.percentile(99) == \
            heap.tenants[name].latencies.percentile(99)


def test_overload_sheds_instead_of_queueing_unboundedly():
    # 30k arrivals/s into 2 workers with a 10-deep queue: almost all of
    # the offered load must be shed, and the queue stays bounded.
    result = _traffic(tenants="all=poisson:rate=30000", duration=1.0,
                      nworkers=2, queue_limit=10)
    stats = result.tenants["all"]
    assert stats.offered > 20000
    assert stats.shed > 0.8 * stats.offered
    assert result.shed_fraction == pytest.approx(stats.shed / stats.offered)
    # Conservation: everything admitted either completed or is still in
    # the (bounded) queue / in service when the run ends.
    backlog = stats.admitted - stats.completed
    assert 0 <= backlog <= 10 + 2


def test_million_logical_users_bounded_run_records_per_tenant(tmp_path):
    """Acceptance: >=1M logical users, two designs, bounded workers,
    per-tenant p99 + shed/queue-wait recorded in the run store."""
    spec = ("web=poisson:users=800000:think=100:theta=0.6;"
            "batch=bursty:users=400000:think=200:burst=8:theta=0.95")
    with RunStore(tmp_path / "runs.db") as store:
        for design in ("DW", "LC"):
            result = _traffic(design=design, tenants=spec, duration=1.0,
                              nworkers=48, queue_limit=5000, store=store)
            assert result.logical_users == pytest.approx(1_200_000.0)
            # 12k arrivals/s offered through only 48 workers.
            assert result.offered > 5_000
            for stats in result.tenants.values():
                assert stats.latencies.percentile(99) >= 0.0
        rows = store.list_runs()
        assert len(rows) == 2
        metrics = store.metrics_for(rows[0]["id"])
        for name in ("tenant_web_p99", "tenant_web_queue_wait_p99",
                     "tenant_batch_p99", "shed", "queue_wait_p99",
                     "logical_users"):
            assert name in metrics
        assert metrics["logical_users"] == pytest.approx(1_200_000.0)


def test_partitions_knob_reaches_the_ssd_config():
    result = _traffic(duration=1.0, partitions=4)
    assert result.system.config.ssd.partitions == 4


def test_open_loop_runner_validation():
    workload = make_workload("tpcc", 20, TINY)
    system = make_system("tpcc", workload, "LC", TINY)
    tenants = parse_tenants("a=poisson:rate=1")
    with pytest.raises(ValueError):
        OpenLoopRunner(system, workload, tenants, nworkers=0)
    with pytest.raises(ValueError):
        OpenLoopRunner(system, workload, tenants, queue_limit=0)
    with pytest.raises(ValueError):
        OpenLoopRunner(system, workload, [])


# ----------------------------------------------------------------------
# Closed-loop driver regressions (the three satellite bugfixes)
# ----------------------------------------------------------------------

def _traced_oltp_md5(kernel="heap"):
    telemetry = Telemetry()
    run_oltp_experiment("tpcc", 20, "LC", duration=4.0, profile=TINY,
                        nworkers=4, kernel=kernel, telemetry=telemetry)
    payload = "\n".join(
        json.dumps(event.to_dict(), sort_keys=True)
        for event in telemetry.tracer.events)
    return hashlib.md5(payload.encode()).hexdigest()


def test_second_run_in_one_process_traces_byte_identical():
    """Txn ids are system-scoped: run N+1 must not see run N's counter."""
    first = _traced_oltp_md5()
    second = _traced_oltp_md5()
    assert first == second


def test_wheel_and_heap_kernels_trace_byte_identical():
    """Acceptance: same seed, byte-identical trace under both kernels."""
    assert _traced_oltp_md5("heap") == _traced_oltp_md5("wheel")


def test_partial_final_bucket_is_counted_and_width_normalized():
    result = RunResult(design="LC", metric_name="tpmC", duration=5.0,
                       bucket_seconds=2.0, metric_window=60.0,
                       buckets=[10, 10, 5])
    assert result.bucket_widths() == [2.0, 2.0, 1.0]
    series = result.throughput_series()
    # The tail bucket's 5 completions over its true 1 s width rate the
    # same as 10 over 2 s — not half of it.
    assert series[-1][1] == pytest.approx(series[0][1])
    assert result.steady_state_throughput(window_fraction=0.2) == \
        pytest.approx(5 / 1.0 * 60.0)


def test_runner_allocates_ceil_buckets_for_non_multiple_duration():
    workload = make_workload("tpcc", 20, TINY)
    system = make_system("tpcc", workload, "noSSD", TINY)
    runner = WorkloadRunner(system, workload, nworkers=4, bucket_seconds=2.0)
    result = runner.run(duration=5.0)
    assert len(result.buckets) == 3
    # The tail window [4, 5) kept its completions (pre-fix: dropped).
    assert result.buckets[-1] > 0


def test_stop_then_run_drives_a_fresh_run():
    workload = make_workload("tpcc", 20, TINY)
    system = make_system("tpcc", workload, "noSSD", TINY)
    runner = WorkloadRunner(system, workload, nworkers=4)
    first = runner.run(duration=4.0)
    assert first.total_metric_txns > 0
    runner.stop()
    system.run(until=system.env.now + 1.0)  # let the clients drain
    second = runner.run(duration=4.0, setup=False)
    # Pre-fix: _stopped stayed latched and the second run did ~nothing.
    assert second.total_metric_txns > 0


def test_open_loop_stop_ends_offers_and_lets_workers_finish():
    workload = make_workload("tpcc", 20, TINY)
    system = make_system("tpcc", workload, "LC", TINY)
    runner = OpenLoopRunner(system, workload, parse_tenants(TWO_TENANTS),
                            nworkers=8, queue_limit=200, bucket_seconds=2.0)
    env = system.env

    def stop_at(when):
        yield env.timeout(when)
        runner.stop()

    env.process(stop_at(3.0))
    first = runner.run(duration=8.0)
    # Arrivals stopped being offered: what two tenants at 70/s offer in
    # 3 s, not in 8; every admitted arrival was served or is still
    # queued behind workers that exited after their transaction.
    assert 0 < first.offered < 70 * 3.0 * 1.5
    completed = sum(t.completed for t in first.tenants.values())
    assert 0 < completed <= first.offered - first.shed
    assert first.buckets[0] > 0 and first.buckets[2:] == [0, 0]
    # Like the closed loop's: a stop does not leak into the next run.
    second = runner.run(duration=4.0, setup=False)
    assert second.offered > 0 and second.total_metric_txns > 0
