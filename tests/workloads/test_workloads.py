"""Tests for the three workload generators."""

import random
from collections import Counter

import pytest

from repro.harness.experiments import SCALE_PROFILES, make_system, make_workload
from repro.workloads.base import AppendRegion, Transaction, choose_mix
from repro.workloads.tpcc import MIX as TPCC_MIX, TpccWorkload
from repro.workloads.tpce import MIX as TPCE_MIX, TpceWorkload
from repro.workloads.tpch import QUERIES, TpchResult, TpchWorkload
from tests.conftest import drive, settle

PROFILE = SCALE_PROFILES["tiny"]


def build(benchmark, scale, design="noSSD"):
    workload = make_workload(benchmark, scale, PROFILE)
    system = make_system(benchmark, workload, design, PROFILE)
    workload.setup(system)
    return workload, system


def run_transactions(workload, system, n=60, seed=5):
    rng = random.Random(seed)
    names = []

    def loop():
        for _ in range(n):
            name, body = workload.transaction(rng, system)
            yield from body
            names.append(name)

    drive(system.env, loop())
    settle(system.env)
    return Counter(names)


class TestMixes:
    def test_tpcc_mix_sums_to_one(self):
        assert sum(w for _, w in TPCC_MIX) == pytest.approx(1.0)

    def test_tpce_mix_sums_to_one(self):
        assert sum(w for _, w in TPCE_MIX) == pytest.approx(1.0)

    def test_choose_mix_respects_weights(self):
        rng = random.Random(1)
        picks = Counter(choose_mix(rng, TPCC_MIX) for _ in range(5_000))
        assert picks["new_order"] / 5_000 == pytest.approx(0.45, abs=0.03)
        assert picks["payment"] / 5_000 == pytest.approx(0.43, abs=0.03)


class TestTpcc:
    def test_scaling_matches_paper_ratios(self):
        """1K/2K/4K warehouses = 100/200/400 GB: page counts must scale
        linearly with warehouses."""
        small = TpccWorkload(1_000, pages_per_warehouse=10)
        large = TpccWorkload(4_000, pages_per_warehouse=10)
        assert large.stock_pages == 4 * small.stock_pages
        assert large.customer_pages == 4 * small.customer_pages

    def test_all_transaction_types_run(self):
        workload, system = build("tpcc", 200)
        counts = run_transactions(workload, system, n=120)
        assert counts["new_order"] > 0
        assert counts["payment"] > 0

    def test_update_intensive(self):
        """§4.2: 'every two read accesses are accompanied by a write'."""
        workload, system = build("tpcc", 200)
        run_transactions(workload, system, n=150)
        stats = system.bp.stats
        reads = stats.hits + stats.misses
        writes = system.wal.tail_lsn + 1
        assert 0.15 < writes / reads < 0.6

    def test_oracle_records_committed_versions(self):
        oracle = {}
        workload = make_workload("tpcc", 200, PROFILE, oracle=oracle)
        system = make_system("tpcc", workload, "noSSD", PROFILE)
        workload.setup(system)
        run_transactions(workload, system, n=50)
        assert oracle
        for page_id, version in oracle.items():
            assert version >= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            TpccWorkload(0)


class TestTpce:
    def test_read_intensive(self):
        workload, system = build("tpce", 2)
        run_transactions(workload, system, n=200)
        stats = system.bp.stats
        reads = stats.hits + stats.misses
        writes = system.wal.tail_lsn + 1
        assert writes / reads < 0.15  # an order of magnitude fewer writes

    def test_trade_result_is_metric(self):
        assert TpceWorkload.metric_transaction == "trade_result"
        assert TpceWorkload.metric_window == 1.0  # per second

    def test_sizing_matches_paper(self):
        """10K customers = 115 GB in the paper."""
        workload = TpceWorkload(10, pages_per_customer_k=1_150)
        assert workload.db_pages() == pytest.approx(11_500, rel=0.02)


class TestTpch:
    def test_has_22_queries(self):
        assert len(QUERIES) == 22
        assert [q.number for q in QUERIES] == list(range(1, 23))

    def test_some_queries_are_lookup_heavy(self):
        """§4.4: some queries are dominated by LINEITEM index lookups."""
        assert sum(1 for q in QUERIES if q.li_lookup_fraction > 0) >= 6

    def test_lineitem_dominates_layout(self):
        workload = TpchWorkload(30, db_gb=45.0, pages_per_gb=5)
        workload_pages = workload.db_pages()
        lineitem = int(workload.total_pages * 0.62)
        assert lineitem / workload_pages > 0.5

    def test_power_test_times_every_query(self):
        workload, system = build("tpch", 30)
        result = TpchResult(sf=30)
        drive(system.env, workload.power_test(system, result))
        assert set(result.query_times) == set(range(1, 23))
        assert len(result.rf_times) == 2
        assert result.power > 0

    def test_throughput_test_runs_streams(self):
        workload, system = build("tpch", 30)
        result = TpchResult(sf=30)
        drive(system.env, workload.throughput_test(system, result))
        assert result.streams == 4
        assert result.throughput_elapsed > 0

    def test_stream_count_follows_paper(self):
        assert TpchWorkload(30).streams == 4
        assert TpchWorkload(100).streams == 5

    def test_qphh_is_geometric_mean_of_tests(self):
        result = TpchResult(sf=30)
        result.query_times = {q: 1.0 for q in range(1, 23)}
        result.rf_times = [1.0, 1.0]
        result.streams = 4
        result.throughput_elapsed = 4 * 22 * 1.0
        assert result.power == pytest.approx(3600 * 30)
        assert result.throughput == pytest.approx(3600 * 30)
        assert result.qphh == pytest.approx(3600 * 30)


class TestTransactionHelper:
    def test_commit_forces_log(self):
        workload, system = build("tpcc", 200)
        txn = Transaction(system)

        def proc():
            yield from txn.update(5)
            yield from txn.commit()

        drive(system.env, proc())
        assert system.wal.flushed_lsn >= txn.last_lsn

    def test_readonly_commit_is_free(self):
        workload, system = build("tpcc", 200)
        txn = Transaction(system)

        def proc():
            yield from txn.read(5)
            yield from txn.commit()

        drive(system.env, proc())
        assert system.wal.flushed_lsn == -1

    def test_append_region_advances_tail(self):
        region = AppendRegion(first_page=10, npages=5, rows_per_page=2)
        assert region.tail_page == 10
        region._rows = 2
        assert region.tail_page == 11
        region._rows = 10  # wraps
        assert region.tail_page == 10
