"""Iometer-style device measurement, regenerating the paper's Table 1.

The paper measured maximum sustainable IOPS for 8 KB I/Os with Iometer
(one outstanding I/O per disk).  :func:`measure_iops` does the equivalent
against our device models: one closed-loop worker per channel, each
issuing back-to-back 1-page I/Os of a single :class:`IoKind` for a fixed
virtual duration, reporting completed I/Os per second.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict

from repro.sim import Environment
from repro.storage.device import DeviceBase
from repro.storage.hdd import HddArray
from repro.storage.request import IoKind, IORequest
from repro.storage.ssd import Ssd

#: Pages the measured addresses wrap within.
SPAN_PAGES = 1 << 20


def _worker(env: Environment, device: DeviceBase, kind: IoKind, addresses,
            counter: Dict[str, int]):
    while True:
        request = IORequest(kind, next(addresses))
        yield device.submit(request)
        counter["completed"] += 1


def _address_stream(device: DeviceBase, kind: IoKind, worker: int,
                    nworkers: int):
    """Page addresses matching the access pattern being measured.

    Random I/Os stride so consecutive ops land on different stripe units;
    sequential I/Os give each worker its own contiguous region (as Iometer
    does with one outstanding I/O per disk), phase-shifted by one stripe so
    concurrent workers start on different drives of an array.
    """
    stripe = getattr(device, "stripe_pages", 1)
    ndisks = getattr(device, "ndisks", None)
    if kind.random:
        # Large co-prime stride scatters accesses across all disks.
        stride = stripe * 7 + 1
        return ((worker + i * nworkers) * stride % SPAN_PAGES
                for i in itertools.count())
    if ndisks is None:
        region = SPAN_PAGES // max(nworkers, 1)
        base = worker * region
        return (base + (i % region) for i in itertools.count())
    # Striped array: the paper measured one sequential stream per drive
    # ("#outstanding I/Os = 1 for each disk"), so worker i walks exactly
    # the addresses that land on drive (i % ndisks).
    drive = worker % ndisks

    def per_drive():
        for i in itertools.count():
            block, offset = divmod(i, stripe)
            yield (block * stripe * ndisks + drive * stripe + offset) % SPAN_PAGES

    return per_drive()


def measure_iops(make_device, kind: IoKind, duration: float = 20.0) -> float:
    """Measure sustained IOPS of one I/O class on a fresh device.

    ``make_device`` is a callable ``Environment -> DeviceBase`` so each
    measurement starts from an idle device and a clean virtual clock.
    """
    if not 0 < duration < math.inf:
        raise ValueError(f"duration must be finite and > 0, got {duration}")
    env = Environment()
    device = make_device(env)
    # One outstanding I/O per drive (or channel), as the paper measured.
    nworkers = getattr(device, "ndisks", None) or device.channels.capacity
    counter = {"completed": 0}
    env.spawn_all(
        _worker(env, device, kind,
                _address_stream(device, kind, worker, nworkers),
                counter)
        for worker in range(nworkers))
    env.run(until=duration)
    return counter["completed"] / duration


@dataclass
class Table1:
    """The eight cells of the paper's Table 1."""

    hdd_random_read: float
    hdd_sequential_read: float
    hdd_random_write: float
    hdd_sequential_write: float
    ssd_random_read: float
    ssd_sequential_read: float
    ssd_random_write: float
    ssd_sequential_write: float

    #: Values reported by the paper, for side-by-side comparison.
    PAPER = {
        "hdd_random_read": 1_015,
        "hdd_sequential_read": 26_370,
        "hdd_random_write": 895,
        "hdd_sequential_write": 9_463,
        "ssd_random_read": 12_182,
        "ssd_sequential_read": 15_980,
        "ssd_random_write": 12_374,
        "ssd_sequential_write": 14_965,
    }

    def rows(self):
        """Yield ``(cell_name, measured, paper)`` triples."""
        for name, paper_value in self.PAPER.items():
            yield name, getattr(self, name), paper_value


def run_table1(duration: float = 20.0) -> Table1:
    """Regenerate Table 1 by measuring both devices in all four classes."""
    cells = {}
    for prefix, factory in (("hdd", HddArray), ("ssd", Ssd)):
        for kind in IoKind:
            name = f"{prefix}_{'random' if kind.random else 'sequential'}_{kind.direction}"
            cells[name] = measure_iops(lambda env: factory(env), kind, duration)
    return Table1(**cells)
