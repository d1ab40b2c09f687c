"""A TPC-H-like decision-support workload.

Implements what the paper's §4.4 exercises:

* 22 query templates, each a mix of **sequential table scans** (driven
  through read-ahead, hence not SSD-cached) and **random index lookups
  into LINEITEM** ("some queries in the workload are dominated by index
  lookups in the LINEITEM table which are mostly random I/O accesses" —
  the reason the SSD helps at all on this benchmark);
* the **Power test** — RF1, the 22 queries serially, RF2 — and the
  **Throughput test** — several concurrent query streams plus a refresh
  stream (4 streams at 30 SF, 5 at 100 SF, as in the paper);
* the QppH / QthH / QphH metrics per the TPC-H composite formulas.

Scaled sizing matches the paper's databases: 30 SF ≈ 45 GB and
100 SF ≈ 160 GB, i.e. 4.5k and 16k pages at 100 pages per GB.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.workloads.base import Transaction
from repro.workloads.distributions import scramble


@dataclass(frozen=True)
class QueryProfile:
    """I/O profile of one query template.

    ``scans`` — (table name, fraction of that table scanned);
    ``li_lookup_fraction`` — random LINEITEM index lookups, as a fraction
    of LINEITEM's page count.
    """

    number: int
    scans: Tuple[Tuple[str, float], ...] = ()
    li_lookup_fraction: float = 0.0


#: The 22 query templates.  Fractions are plausible plan shapes (full
#: scans of the tables each query touches, partial scans where predicates
#: prune, index nested loops where SQL Server-style plans seek LINEITEM).
QUERIES: Tuple[QueryProfile, ...] = (
    QueryProfile(1, (("lineitem", 1.0),)),
    QueryProfile(2, (("part", 1.0), ("partsupp", 0.5)), 0.05),
    QueryProfile(3, (("customer", 1.0), ("orders", 1.0)), 0.10),
    QueryProfile(4, (("orders", 1.0),), 0.08),
    QueryProfile(5, (("customer", 1.0), ("orders", 0.5), ("lineitem", 0.3))),
    QueryProfile(6, (("lineitem", 1.0),)),
    QueryProfile(7, (("customer", 0.5), ("orders", 0.4), ("lineitem", 0.4))),
    QueryProfile(8, (("part", 1.0), ("orders", 0.6)), 0.06),
    QueryProfile(9, (("part", 1.0), ("partsupp", 1.0), ("lineitem", 0.5))),
    QueryProfile(10, (("customer", 1.0), ("orders", 0.4), ("lineitem", 0.25))),
    QueryProfile(11, (("partsupp", 1.0), ("supplier", 1.0))),
    QueryProfile(12, (("orders", 0.7), ("lineitem", 0.5))),
    QueryProfile(13, (("customer", 1.0), ("orders", 1.0))),
    QueryProfile(14, (("lineitem", 0.15), ("part", 0.6))),
    QueryProfile(15, (("lineitem", 0.25), ("supplier", 1.0))),
    QueryProfile(16, (("partsupp", 0.8), ("part", 0.7))),
    QueryProfile(17, (("part", 1.0), ("lineitem", 0.2)), 0.15),
    QueryProfile(18, (("orders", 1.0), ("lineitem", 0.8))),
    QueryProfile(19, (("part", 1.0), ("lineitem", 0.15)), 0.12),
    QueryProfile(20, (("part", 0.5), ("partsupp", 0.8)), 0.10),
    QueryProfile(21, (("supplier", 1.0), ("orders", 0.5), ("lineitem", 0.6)),
                 0.06),
    QueryProfile(22, (("customer", 0.8), ("orders", 0.3)), 0.04),
)

#: Table sizes as fractions of the database's pages.
TABLE_FRACTIONS = {
    "lineitem": 0.62,
    "orders": 0.16,
    "partsupp": 0.08,
    "part": 0.05,
    "customer": 0.04,
    "supplier": 0.01,
}


@dataclass
class TpchResult:
    """Outcome of a full TPC-H run (power + throughput tests)."""

    sf: int
    query_times: Dict[int, float] = field(default_factory=dict)
    rf_times: List[float] = field(default_factory=list)
    power_elapsed: float = 0.0
    throughput_elapsed: float = 0.0
    streams: int = 0

    metric_name = "QphH"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready plain data (query numbers become string keys)."""
        data = asdict(self)
        data["query_times"] = {str(number): elapsed for number, elapsed
                               in self.query_times.items()}
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TpchResult":
        """Inverse of :meth:`to_dict`."""
        return cls(**{**data, "query_times": {
            int(number): elapsed
            for number, elapsed in data["query_times"].items()}})

    def metrics(self) -> Dict[str, float]:
        """The scalar rows the run store records for this run."""
        return {"value": self.qphh, "power": self.power,
                "throughput": self.throughput}

    @property
    def power(self) -> float:
        """QppH@SF: 3600·SF over the geometric mean of the 24 timings."""
        timings = list(self.query_times.values()) + self.rf_times
        timings = [max(t, 1e-9) for t in timings]
        geomean = math.exp(sum(math.log(t) for t in timings) / len(timings))
        return 3600.0 * self.sf / geomean

    @property
    def throughput(self) -> float:
        """QthH@SF: (streams · 22 · 3600 / elapsed) · SF."""
        if self.throughput_elapsed <= 0:
            return 0.0
        return (self.streams * len(QUERIES) * 3600.0
                / self.throughput_elapsed) * self.sf

    @property
    def qphh(self) -> float:
        """The composite metric: sqrt(power · throughput)."""
        return math.sqrt(max(0.0, self.power) * max(0.0, self.throughput))


class TpchWorkload:
    """TPC-H-like power and throughput tests."""

    metric_name = "QphH"

    def __init__(self, sf: int, db_gb: Optional[float] = None,
                 pages_per_gb: int = 100,
                 oracle: Optional[Dict[int, int]] = None):
        if sf < 1:
            raise ValueError(f"sf must be >= 1, got {sf}")
        self.sf = sf
        # The paper's databases: 30 SF = 45 GB, 100 SF = 160 GB.
        self.db_gb = db_gb if db_gb is not None else 1.5 * sf
        self.total_pages = int(self.db_gb * pages_per_gb)
        self.oracle = oracle
        self.streams = 4 if sf <= 30 else 5

    def db_pages(self) -> int:
        """Total pages the workload's tables and index need."""
        index_pages = max(8, self.total_pages // 50)
        return sum(int(self.total_pages * frac)
                   for frac in TABLE_FRACTIONS.values()) + index_pages

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def setup(self, system) -> None:
        """Create tables and the LINEITEM index in the catalog."""
        db = system.db
        self.tables = {
            name: db.create_table(name, max(4, int(self.total_pages * frac)))
            for name, frac in TABLE_FRACTIONS.items()
        }
        lineitem = self.tables["lineitem"]
        # Non-clustered index over LINEITEM: page-granular keys packed
        # densely into index leaves (classic layout); a lookup walks the
        # index then fetches the (scrambled) data page randomly.
        self.li_index = db.create_index("lineitem_idx",
                                        range(lineitem.npages),
                                        leaf_capacity=63)
        self._li_pages = lineitem.npages

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------

    #: Concurrent outstanding index lookups within one query — SQL Server
    #: prefetches asynchronously for index nested-loop joins, so a single
    #: stream keeps several random I/Os in flight.
    lookup_parallelism = 8

    def run_query(self, system, profile: QueryProfile, rng: random.Random):
        """Process step: execute one query template."""
        txn = Transaction(system, self.oracle,
                          txn_type=f"q{profile.number}")
        for table_name, fraction in profile.scans:
            table = self.tables[table_name]
            npages = max(1, int(table.npages * fraction))
            yield from table.scan(system.bp, npages=npages, ctx=txn.ctx)
        nlookups = int(profile.li_lookup_fraction * self._li_pages)
        keys = [rng.randrange(self._li_pages) for _ in range(nlookups)]
        for start in range(0, nlookups, self.lookup_parallelism):
            yield system.env.gather(
                self._one_lookup(system, txn, key)
                for key in keys[start:start + self.lookup_parallelism])
        yield from txn.commit()

    def _one_lookup(self, system, txn: Transaction, key: int):
        """Process step: index seek plus the random data-page fetch."""
        yield from txn.index_lookup(self.li_index, key)
        lineitem = self.tables["lineitem"]
        page = lineitem.first_page + scramble(key, self._li_pages)
        yield from txn.read(page)

    def refresh(self, system, rng: random.Random):
        """Process step: one RF1+RF2 pair (inserts then deletes ≈ 0.1%
        of ORDERS and LINEITEM pages dirtied)."""
        txn = Transaction(system, self.oracle, txn_type="refresh")
        for table_name in ("orders", "lineitem"):
            table = self.tables[table_name]
            touched = max(1, table.npages // 1000)
            for _ in range(touched):
                page = table.first_page + rng.randrange(table.npages)
                yield from txn.update(page)
        yield from txn.commit()

    # ------------------------------------------------------------------
    # The two tests
    # ------------------------------------------------------------------

    def power_test(self, system, result: TpchResult, seed: int = 1):
        """Process step: RF1, the 22 queries serially, RF2."""
        rng = random.Random(seed)
        started = system.env.now
        rf_start = system.env.now
        yield from self.refresh(system, rng)
        result.rf_times.append(system.env.now - rf_start)
        for profile in QUERIES:
            q_start = system.env.now
            yield from self.run_query(system, profile, rng)
            result.query_times[profile.number] = system.env.now - q_start
        rf_start = system.env.now
        yield from self.refresh(system, rng)
        result.rf_times.append(system.env.now - rf_start)
        result.power_elapsed = system.env.now - started

    def throughput_test(self, system, result: TpchResult, seed: int = 2):
        """Process step: ``self.streams`` concurrent query streams plus a
        refresh stream; elapsed wall (virtual) time drives QthH."""
        env = system.env
        started = env.now
        result.streams = self.streams

        def stream(stream_no: int):
            rng = random.Random(seed * 1000 + stream_no)
            order = list(QUERIES)
            rng.shuffle(order)
            for profile in order:
                yield from self.run_query(system, profile, rng)

        def refresher():
            rng = random.Random(seed * 7777)
            for _ in range(self.streams):
                yield from self.refresh(system, rng)

        yield env.gather(
            [stream(i) for i in range(self.streams)] + [refresher()])
        result.throughput_elapsed = env.now - started

    def full_run(self, system):
        """Process step: power test then throughput test, as the spec
        (and the paper) order them.  Returns a :class:`TpchResult`."""
        result = TpchResult(sf=self.sf)
        yield from self.power_test(system, result)
        yield from self.throughput_test(system, result)
        return result
