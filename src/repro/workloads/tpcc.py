"""A TPC-C-like OLTP workload.

Reproduces the properties the paper's TPC-C analysis rests on (§4.2):

* **update-intensive** — "every two read accesses are accompanied by a
  write access";
* **highly skewed** — "75% of the accesses are to about 20% of the pages"
  (Leutenegger & Dias), produced here by Zipf page selection;
* hot pages are **re-dirtied** — the reason the write-back LC design wins
  so decisively on this benchmark.

The five transaction types follow the TPC-C mix (New-Order 45%, Payment
43%, Order-Status 4%, Delivery 4%, Stock-Level 4%); per-transaction page
footprints are scaled down alongside the database so that simulated runs
stay laptop-sized while keeping the read/write ratio and skew.

The scaled database keeps the paper's sizing ratios: one warehouse is
``pages_per_warehouse`` pages, so the paper's 1K/2K/4K-warehouse
(100/200/400 GB) databases map to 10k/20k/40k pages at the default
100 pages-per-GB profile.
"""

from __future__ import annotations

import copy
import random
from typing import Dict, List, Optional

from repro.workloads.base import AppendRegion, Transaction, choose_mix
from repro.workloads.distributions import ZipfGenerator, scramble

#: TPC-C transaction mix.
MIX = [
    ("new_order", 0.45),
    ("payment", 0.43),
    ("order_status", 0.04),
    ("delivery", 0.04),
    ("stock_level", 0.04),
]


class TpccWorkload:
    """TPC-C-like transactions over a warehouse-scaled database."""

    metric_name = "tpmC"
    metric_transaction = "new_order"
    metric_window = 60.0  # transactions per *minute*

    def __init__(self, warehouses: int, pages_per_warehouse: int = 10,
                 item_pages: int = 100, skew_theta: float = 0.85,
                 oracle: Optional[Dict[int, int]] = None):
        if warehouses < 1:
            raise ValueError(f"warehouses must be >= 1, got {warehouses}")
        self.warehouses = warehouses
        self.item_pages = item_pages
        self.skew_theta = skew_theta
        #: Committed page versions, for crash-recovery verification.
        self.oracle = oracle
        #: Tenant name stamped on this view's transactions (None for the
        #: base single-tenant workload); see :meth:`tenant_view`.
        self.tenant: Optional[str] = None
        w = warehouses
        self.stock_pages = 4 * w * pages_per_warehouse // 10
        self.customer_pages = 3 * w * pages_per_warehouse // 10
        self.orders_pages = 2 * w * pages_per_warehouse // 10
        self.history_pages = max(1, w * pages_per_warehouse // 10)
        self.district_pages = max(1, w // 10)

    def db_pages(self) -> int:
        """Total pages the workload's tables need (pre-slack)."""
        return (self.stock_pages + self.customer_pages + self.orders_pages
                + self.history_pages + self.district_pages + self.item_pages)

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def setup(self, system) -> None:
        """Create tables/indexes in the system's catalog."""
        db = system.db
        self.item = db.create_table("item", self.item_pages)
        self.district = db.create_table("warehouse_district",
                                        self.district_pages)
        history_heap = db.create_table("history", self.history_pages)
        self.history = AppendRegion(history_heap.first_page,
                                    history_heap.npages)
        # Clustered B+-trees with page-granular keys: key k lives in the
        # k-th leaf, so leaf fetches are the data-page accesses.
        self.stock = db.create_index("stock", range(self.stock_pages))
        self.customer = db.create_index("customer", range(self.customer_pages))
        self.orders = db.create_index("orders", range(self.orders_pages))
        # One-element cell, not a plain int: tenant views are shallow
        # copies, and all of them must advance the *same* insert cursor.
        self._orders_next: List[int] = [self.orders_pages]
        self._stock_zipf = ZipfGenerator(self.stock_pages, self.skew_theta)
        self._customer_zipf = ZipfGenerator(self.customer_pages,
                                            self.skew_theta)

    def tenant_view(self, tenant: str,
                    theta: Optional[float] = None) -> "TpccWorkload":
        """A per-tenant view over this (already set-up) workload.

        The view shares every table, the history region, and the orders
        insert cursor with the base workload — tenants contend on the
        same database — but stamps ``tenant`` on its transactions and,
        when ``theta`` is given, draws its stock/customer accesses from
        its own Zipf skew (the per-tenant noisy-neighbor knob).
        """
        if not hasattr(self, "stock"):
            raise RuntimeError("tenant_view requires setup() first")
        view = copy.copy(self)
        view.tenant = tenant
        if theta is not None:
            view.skew_theta = theta
            view._stock_zipf = ZipfGenerator(self.stock_pages, theta)
            view._customer_zipf = ZipfGenerator(self.customer_pages, theta)
        return view

    @property
    def _orders_next_key(self) -> int:
        return self._orders_next[0]

    @_orders_next_key.setter
    def _orders_next_key(self, value: int) -> None:
        self._orders_next[0] = value

    # ------------------------------------------------------------------
    # Page pickers (Zipf rank -> scrambled page-granular key)
    # ------------------------------------------------------------------

    def _stock_key(self, rng: random.Random) -> int:
        return scramble(self._stock_zipf.sample(rng), self.stock_pages)

    def _customer_key(self, rng: random.Random) -> int:
        return scramble(self._customer_zipf.sample(rng), self.customer_pages)

    def _district_page(self, rng: random.Random) -> int:
        return self.district.first_page + rng.randrange(self.district_pages)

    def _item_page(self, rng: random.Random) -> int:
        return self.item.first_page + rng.randrange(self.item_pages)

    def _recent_order_key(self, rng: random.Random) -> int:
        recent = max(1, self.orders_pages // 20)
        top = min(self._orders_next_key, self.orders_pages) - 1
        return max(0, top - rng.randrange(recent))

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------

    def transaction(self, rng: random.Random, system):
        """Pick a transaction from the mix; returns ``(name, generator)``."""
        name = choose_mix(rng, MIX)
        return name, getattr(self, "_" + name)(rng, system)

    def _new_order(self, rng: random.Random, system):
        txn = Transaction(system, self.oracle, txn_type="new_order",
                          tenant=self.tenant)
        yield from txn.update(self._district_page(rng))  # next order id
        yield from txn.index_lookup(self.customer, self._customer_key(rng))
        for _ in range(5):  # order lines (scaled from TPC-C's ~10)
            yield from txn.read(self._item_page(rng))
            key = self._stock_key(rng)
            yield from txn.index_lookup(self.stock, key)
            yield from txn.index_update(self.stock, key)
        # Insert the order: dirty the rightmost leaf; roughly one in
        # rows-per-page inserts adds a new leaf page (a split: the
        # on-the-fly dirty page TAC cannot cache).
        grow = rng.random() < 0.05 and system.db.free_pages > 64
        if grow:
            yield from txn.index_insert(self.orders, self._orders_next_key)
            self._orders_next_key += 1
        else:
            yield from txn.index_update(self.orders, self._orders_next_key - 1)
        yield from txn.commit()

    def _payment(self, rng: random.Random, system):
        txn = Transaction(system, self.oracle, txn_type="payment",
                          tenant=self.tenant)
        yield from txn.update(self._district_page(rng))
        key = self._customer_key(rng)
        yield from txn.index_lookup(self.customer, key)
        yield from txn.index_update(self.customer, key)
        yield from self.history.append(txn)
        yield from txn.commit()

    def _order_status(self, rng: random.Random, system):
        txn = Transaction(system, self.oracle, txn_type="order_status",
                          tenant=self.tenant)
        yield from txn.index_lookup(self.customer, self._customer_key(rng))
        for _ in range(3):
            yield from txn.index_lookup(self.orders,
                                        self._recent_order_key(rng))
        yield from txn.commit()

    def _delivery(self, rng: random.Random, system):
        txn = Transaction(system, self.oracle, txn_type="delivery",
                          tenant=self.tenant)
        for _ in range(5):  # scaled from TPC-C's 10 districts
            yield from txn.index_update(self.orders,
                                        self._recent_order_key(rng))
            yield from txn.index_update(self.customer,
                                        self._customer_key(rng))
        yield from txn.commit()

    def _stock_level(self, rng: random.Random, system):
        txn = Transaction(system, self.oracle, txn_type="stock_level",
                          tenant=self.tenant)
        yield from txn.read(self._district_page(rng))
        for _ in range(10):
            yield from txn.index_lookup(self.stock, self._stock_key(rng))
        yield from txn.commit()
