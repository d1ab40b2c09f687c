"""Focused tests for TPC-C generator internals."""

import random

import pytest

from repro.harness.experiments import SCALE_PROFILES, make_system, make_workload
from repro.workloads.tpcc import TpccWorkload
from tests.conftest import drive, settle

PROFILE = SCALE_PROFILES["tiny"]


def build(warehouses=200):
    workload = make_workload("tpcc", warehouses, PROFILE)
    system = make_system("tpcc", workload, "noSSD", PROFILE)
    workload.setup(system)
    return workload, system


class TestPagePickers:
    def test_keys_stay_in_table_ranges(self):
        workload, system = build()
        rng = random.Random(1)
        for _ in range(500):
            assert 0 <= workload._stock_key(rng) < workload.stock_pages
            assert 0 <= workload._customer_key(rng) < workload.customer_pages

    def test_district_pages_inside_table(self):
        workload, system = build()
        rng = random.Random(2)
        table = workload.district
        for _ in range(200):
            page = workload._district_page(rng)
            assert table.first_page <= page < table.end_page

    def test_recent_orders_cluster_at_tail(self):
        workload, system = build()
        rng = random.Random(3)
        keys = [workload._recent_order_key(rng) for _ in range(300)]
        top = workload.orders_pages - 1
        assert all(key <= top for key in keys)
        assert min(keys) > top - max(1, workload.orders_pages // 10)

    def test_stock_hot_set_is_skewed(self):
        workload, system = build()
        rng = random.Random(4)
        from collections import Counter
        counts = Counter(workload._stock_key(rng) for _ in range(10_000))
        hot = sum(count for _, count in counts.most_common(
            max(1, workload.stock_pages // 5)))
        assert hot / 10_000 > 0.5


class TestOrderGrowth:
    def test_order_inserts_bounded_by_free_pages(self):
        workload, system = build(warehouses=100)
        rng = random.Random(5)

        def lots_of_orders():
            for _ in range(200):
                yield from workload._new_order(rng, system)

        drive(system.env, lots_of_orders())
        settle(system.env)
        # Growth happened but never exhausted the allocator.
        assert system.db.free_pages >= 0
        assert workload._orders_next_key >= workload.orders_pages

    def test_new_order_is_update_heavy(self):
        workload, system = build()
        rng = random.Random(6)
        wal_before = system.wal.tail_lsn

        def one():
            yield from workload._new_order(rng, system)

        drive(system.env, one())
        writes = system.wal.tail_lsn - wal_before
        assert writes >= 6  # district + 5 stock + order


class TestScaling:
    def test_db_pages_accounts_every_table(self):
        workload = TpccWorkload(1_000, pages_per_warehouse=10)
        total = (workload.stock_pages + workload.customer_pages
                 + workload.orders_pages + workload.history_pages
                 + workload.district_pages + workload.item_pages)
        assert workload.db_pages() == total

    def test_paper_sizing_1k_warehouses_is_100gb(self):
        """1K warehouses = 100 GB = 10,000 pages at 100 pages/GB."""
        workload = TpccWorkload(1_000, pages_per_warehouse=10,
                                item_pages=100)
        assert workload.db_pages() == pytest.approx(10_000, rel=0.05)
