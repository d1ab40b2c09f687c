"""repro — reproduction of "Turbocharging DBMS Buffer Pool Using SSDs"
(Do, DeWitt, Zhang, Naughton, Patel, Halverson; SIGMOD 2011).

Subpackages:

* :mod:`repro.sim` — deterministic discrete-event simulation kernel.
* :mod:`repro.storage` — HDD-array and SSD device models calibrated to
  the paper's Table 1.
* :mod:`repro.engine` — the mini-DBMS storage module the designs plug
  into (buffer pool, WAL, checkpoints, recovery, heap files, B+-trees).
* :mod:`repro.core` — the paper's contribution: the SSD manager and the
  design table (CW / DW / LC, the TAC baseline, noSSD, LS, and the
  related-work ROT / EXCL).
* :mod:`repro.workloads` — TPC-C-, TPC-E- and TPC-H-like generators and
  open-loop multi-tenant traffic.
* :mod:`repro.faults` — seeded fault injection over the devices.
* :mod:`repro.telemetry` — metrics registry and event tracer.
* :mod:`repro.harness` — system assembly, workload runner, and the
  per-table/figure experiment registry.
* :mod:`repro.runstore` — the run database and its dashboard.

The most convenient entry points::

    from repro.harness.system import System, SystemConfig
    from repro.harness.experiments import RunSpec, run
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
