#!/usr/bin/env python
"""Quickstart: build a DBMS with an SSD-extended buffer pool and watch
the SSD absorb the working set.

This walks the public API end to end:

1. assemble a ``System`` (simulated disks + SSD + engine + a design),
2. run a skewed read/write page workload against the buffer pool,
3. read the counters the paper's evaluation is built from.

Run:  python examples/quickstart.py
"""

import random

from repro.core import SsdDesignConfig
from repro.harness.system import System, SystemConfig


def main():
    # A small instance of the paper's setup: buffer pool : SSD : database
    # = 20 : 140 : 400 (the paper's GB ratios, here in pages).
    config = SystemConfig(
        design="LC",                       # try: noSSD, CW, DW, LC, TAC
        db_pages=4_000,
        bp_pages=200,
        ssd=SsdDesignConfig(ssd_frames=1_400, dirty_threshold=0.5),
    )
    system = System(config)
    env, bp = system.env, system.bp

    rng = random.Random(42)

    def client(accesses):
        """A closed-loop client: skewed reads, 1 write per 3 accesses."""
        for _ in range(accesses):
            # 80% of accesses to the first 20% of pages.
            if rng.random() < 0.8:
                page = rng.randrange(config.db_pages // 5)
            else:
                page = rng.randrange(config.db_pages)
            frame = yield from bp.fetch(page)
            if rng.random() < 0.33:
                bp.mark_dirty(frame)
            bp.unpin(frame)

    clients = [env.process(client(2_000)) for _ in range(8)]
    env.run(env.all_of(clients))
    env.run(until=env.now + 5)  # let background cleaning settle

    stats, manager = bp.stats, system.ssd_manager
    print(f"design            : {system.design}")
    print(f"virtual time      : {env.now:8.1f} s")
    print(f"page accesses     : {stats.hits + stats.misses:8,}")
    print(f"buffer hit rate   : {stats.hit_rate:8.1%}")
    print(f"SSD hit rate      : {stats.ssd_hit_rate:8.1%}  "
          f"(pages read from the SSD per miss)")
    print(f"SSD frames used   : {manager.used_frames:8,} / "
          f"{config.ssd.ssd_frames:,}")
    print(f"SSD dirty frames  : {manager.dirty_frames:8,}  "
          f"(LC write-back backlog)")
    print(f"disk reads/writes : {system.data_device.stats.pages_read:8,} /"
          f" {system.data_device.stats.pages_written:,} pages")
    print(f"SSD  reads/writes : {system.ssd_device.stats.pages_read:8,} /"
          f" {system.ssd_device.stats.pages_written:,} pages")

    # The Figure 3 invariants hold at any quiescent point.
    manager.check_invariants()
    print("page-copy invariants (paper Figure 3): OK")


if __name__ == "__main__":
    main()
