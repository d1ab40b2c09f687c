"""Pins: the settings each built system actually runs with.

A run's knobs reach the devices, the pool, the checkpointer and the SSD
manager through several constructors.  These pins record what comes out
the other end — the environment class, whether an FTL is modelled, the
pool's capacity, partition count, latch seconds and ``expand_reads``,
the disk's pages, the checkpointer's class and interval, and the
manager's class and Table 2 parameters — for the ``RunSpec``s of the
``perf/`` cells (and their noSSD twin), two specs that set every system
knob, a warm-restart system and the test suite's ``MiniSystem``.  A
change to how a knob is mapped onto a system must leave every row here.
"""

from __future__ import annotations

import pytest

from repro.harness.experiments import (SCALE_PROFILES, RunSpec, make_system,
                                       make_workload, run)
from repro.harness.system import System
from repro.sim import Environment
from tests.conftest import MiniSystem

#: The Table 2 parameters a design reads (N is read by the pool, whose
#: partition count is pinned instead).
SSD_FIELDS = ("ssd_frames", "fill_threshold", "throttle_limit",
              "group_clean_pages", "dirty_threshold", "clean_slack",
              "extent_pages", "cleaner_concurrency", "warm_restart",
              "ls_batch_pages", "ls_segment_pages")

#: ``perf/cells.py``'s open-loop tenants.
CELL_TENANTS = (
    "web=poisson:users=800000:think=200:theta=0.6;"
    "batch=bursty:users=400000:think=400:burst=8:cycle=0.05:theta=0.95")


def effective(system) -> dict:
    """The settings ``system`` runs with, as plain values."""
    bp, manager = system.bp, system.ssd_manager
    return {
        "env": type(system.env).__name__,
        "ftl": system.ssd_device.ftl is not None,
        "pool": (bp.capacity, bp.partitions, bp._latch_s, bp.expand_reads),
        "disk_pages": system.disk.npages,
        "checkpointer": (type(system.checkpointer).__name__,
                         system.checkpointer.interval),
        "manager": type(manager).__name__,
        "ssd": tuple(getattr(manager.config, name) for name in SSD_FIELDS),
    }


class _Built(Exception):
    """Stops a run the moment its system exists."""


def built_by_run(spec: RunSpec, monkeypatch) -> System:
    """The system :func:`run` builds for ``spec`` (nothing is driven)."""
    original = System.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        raise _Built(self)

    monkeypatch.setattr(System, "__init__", init)
    with pytest.raises(_Built) as info:
        run(spec)
    return info.value.args[0]


#: The Table 2 row every pinned system shares bar S, λ and warm restart.
def _ssd(frames, lam, warm=False):
    return (frames, 0.95, 100, 32, lam, 0.0001, 32, 8, warm, 16, 64)


SPECS = {
    "tpcc_lc": (
        RunSpec(kind="oltp", benchmark="tpcc", scale=1000, design="LC"),
        {"env": "Environment", "ftl": False,
         "pool": (2000, 16, 0.0, False), "disk_pages": 10710,
         "checkpointer": ("Checkpointer", None),
         "manager": "LazyCleaningManager",
         "ssd": _ssd(14000, 0.5)}),
    "tpcc_lc-noSSD": (
        RunSpec(kind="oltp", benchmark="tpcc", scale=1000, design="noSSD"),
        {"env": "Environment", "ftl": False,
         "pool": (2000, 16, 0.0, False), "disk_pages": 10710,
         "checkpointer": ("Checkpointer", None),
         "manager": "NoSsdManager",
         "ssd": _ssd(0, 0.5)}),
    "tpch_dw": (
        RunSpec(kind="tpch", benchmark="tpch", scale=100, design="DW",
                checkpoint_interval=4.0),
        {"env": "Environment", "ftl": False,
         "pool": (2000, 16, 0.0, False), "disk_pages": 16464,
         "checkpointer": ("Checkpointer", 4.0),
         "manager": "DualWriteManager",
         "ssd": _ssd(14000, 0.01)}),
    "tpcc_ls_ftl": (
        RunSpec(kind="oltp", benchmark="tpcc", scale=1200, design="LS",
                profile="small", ftl=True),
        {"env": "Environment", "ftl": True,
         "pool": (400, 16, 0.0, False), "disk_pages": 2796,
         "checkpointer": ("Checkpointer", None),
         "manager": "LogStructuredManager",
         "ssd": _ssd(2800, 0.5)}),
    "traffic_open": (
        RunSpec(kind="traffic", benchmark="tpcc", scale=100, design="LC",
                profile="tiny", latch_us=20.0, tenants=CELL_TENANTS),
        {"env": "Environment", "ftl": False,
         "pool": (100, 16, 1.9999999999999998e-05, False), "disk_pages": 371,
         "checkpointer": ("Checkpointer", None),
         "manager": "LazyCleaningManager",
         "ssd": _ssd(700, 0.5)}),
    "ls-ftl-every-knob": (
        RunSpec(kind="oltp", benchmark="tpce", scale=2, design="LS",
                profile="tiny", dirty_threshold=0.3, checkpoint_interval=2.0,
                expand_reads=True, ftl=True, partitions=4, latch_us=5.0),
        {"env": "Environment", "ftl": True,
         "pool": (100, 4, 4.9999999999999996e-06, True), "disk_pages": 369,
         "checkpointer": ("Checkpointer", 2.0),
         "manager": "LogStructuredManager",
         "ssd": _ssd(700, 0.3)}),
    "traffic-latched-two-tenants": (
        RunSpec(kind="traffic", benchmark="tpcc", scale=20, design="DW",
                profile="tiny", partitions=4, latch_us=50.0,
                tenants="a=poisson:rate=50;b=bursty:rate=20:burst=4"),
        {"env": "Environment", "ftl": False,
         "pool": (100, 4, 4.9999999999999996e-05, False), "disk_pages": 283,
         "checkpointer": ("Checkpointer", None),
         "manager": "DualWriteManager",
         "ssd": _ssd(700, 0.5)}),
}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_run_builds_the_pinned_system(name, monkeypatch):
    spec, expected = SPECS[name]
    assert effective(built_by_run(spec, monkeypatch)) == expected


def test_the_open_loop_cell_builds_the_wheel():
    """``perf/cells.py`` builds ``traffic_open`` with ``make_system`` and
    ``kernel="wheel"``: the only way a system gets the timer wheel."""
    profile = SCALE_PROFILES["tiny"]
    workload = make_workload("tpcc", 100, profile)
    system = make_system("tpcc", workload, "LC", profile, latch_us=20.0,
                         kernel="wheel")
    assert effective(system) == dict(SPECS["traffic_open"][1],
                                     env="WheelEnvironment")


@pytest.mark.parametrize("kind", ["oltp", "traffic", "tpch"])
def test_every_run_kind_builds_the_heap_kernel(kind, monkeypatch):
    spec = {"oltp": SPECS["tpcc_lc"][0], "traffic": SPECS["traffic_open"][0],
            "tpch": SPECS["tpch_dw"][0]}[kind]
    assert spec.kind == kind
    assert type(built_by_run(spec, monkeypatch).env) is Environment


def test_warm_restart_system():
    profile = SCALE_PROFILES["tiny"]
    workload = make_workload("tpcc", 20, profile)
    system = make_system("tpcc", workload, "DW", profile, warm_restart=True)
    assert effective(system) == {
        "env": "Environment", "ftl": False,
        "pool": (100, 16, 0.0, False), "disk_pages": 283,
        "checkpointer": ("Checkpointer", None),
        "manager": "DualWriteManager", "ssd": _ssd(700, 0.5, warm=True)}


def test_mini_system():
    system = MiniSystem(design="LC", bp_partitions=4, latch_seconds=20e-6,
                        dirty_threshold=0.2)
    assert effective(system) == {
        "env": "Environment", "ftl": False,
        "pool": (100, 4, 2e-05, False), "disk_pages": 2000,
        "checkpointer": ("Checkpointer", None),
        "manager": "LazyCleaningManager", "ssd": _ssd(500, 0.2)}
