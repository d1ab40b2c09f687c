#!/usr/bin/env python
"""The paper's future-work extension: reuse SSD contents across restarts.

§4.3.1 shows ramp-up times of many hours because the SSD must refill at
the disks' slow random-read rate after every restart, and §6 proposes
persisting the SSD mapping so a restart starts warm.  This example runs
the same crash/restart sequence in both modes and compares the SSD state
and early post-restart throughput.

Run:  python examples/warm_restart.py
"""

from repro.engine.recovery import simulate_crash_and_recover
from repro.harness.experiments import SCALE_PROFILES, make_system, make_workload
from repro.harness.runner import WorkloadRunner


def run_one(warm: bool):
    profile = SCALE_PROFILES["small"]
    workload = make_workload("tpce", 4, profile)
    system = make_system("tpce", workload, "DW", profile, warm_restart=warm)
    runner = WorkloadRunner(system, workload, nworkers=16)

    # Phase 1: warm the SSD.
    runner.run(15.0)
    before = system.ssd_manager.used_frames

    # Power cut under load (the clients die with everything else), then
    # restart recovery.
    crash = system.env.process(
        simulate_crash_and_recover(system.env, system))
    system.env.run(crash)
    after = system.ssd_manager.used_frames

    # Phase 2: measure throughput right after the restart.
    runner2 = WorkloadRunner(system, workload, nworkers=16, seed=777)
    result = runner2.run(8.0, setup=False)
    early = result.throughput_series()
    early_rate = sum(rate for _, rate in early[:3]) / 3
    return before, after, early_rate


def main():
    print(f"{'mode':8s} {'SSD before':>12s} {'SSD after':>12s} "
          f"{'early tpsE':>12s}")
    rates = {}
    for warm in (False, True):
        before, after, early = run_one(warm)
        rates[warm] = early
        mode = "warm" if warm else "cold"
        print(f"{mode:8s} {before:12,} {after:12,} {early:12,.1f}")
    gain = rates[True] / max(rates[False], 1e-9)
    print(f"\nwarm restart starts {gain:.1f}x faster — the ramp-up the "
          f"paper measured in hours is gone")


if __name__ == "__main__":
    main()
