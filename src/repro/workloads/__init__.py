"""Benchmark workload generators (TPC-C-, TPC-E-, and TPC-H-like).

These are not the official TPC kits (the same disclaimer the paper itself
carries).  Each generator reproduces the *access-pattern* properties the
paper's evaluation depends on:

* **TPC-C** (:mod:`~repro.workloads.tpcc`): update-intensive OLTP — about
  one write per two reads — with Zipf skew concentrating ~75% of
  accesses on ~20% of the pages; the metric is tpmC (New-Order
  transactions per minute).
* **TPC-E** (:mod:`~repro.workloads.tpce`): read-intensive OLTP (~10:1
  read:write) over customers/trades; the metric is tpsE (Trade-Result
  transactions per second).
* **TPC-H** (:mod:`~repro.workloads.tpch`): scan-dominated decision
  support — 22 query templates mixing sequential table scans with random
  LINEITEM index lookups, run as a Power test (queries serially) and a
  Throughput test (concurrent streams with refresh functions); the metric
  is QphH.
"""

from repro.workloads.distributions import ZipfGenerator
from repro.workloads.tpcc import TpccWorkload
from repro.workloads.tpce import TpceWorkload
from repro.workloads.tpch import TpchWorkload
from repro.workloads.traffic import (BurstyArrivals, DiurnalArrivals,
                                     PoissonArrivals, TenantSpec,
                                     parse_arrivals, parse_tenants)

__all__ = [
    "BurstyArrivals",
    "DiurnalArrivals",
    "PoissonArrivals",
    "TenantSpec",
    "TpccWorkload",
    "TpceWorkload",
    "TpchWorkload",
    "ZipfGenerator",
    "parse_arrivals",
    "parse_tenants",
]
