#!/usr/bin/env python
"""Tune the lazy-cleaning threshold λ and watch the write-back dynamics.

Reproduces the paper's Figure 7 experiment at example scale: with a
higher λ the SSD is allowed to hold more dirty pages, the cleaner issues
fewer disk I/Os, and throughput rises.  Also prints the dirty-fraction
trajectory so the λ-crossing (the Figure 6 throughput drop) is visible.

Run:  python examples/lazy_cleaning_tuning.py
"""

from repro.harness.experiments import SCALE_PROFILES, run_oltp_experiment
from repro.harness.report import format_series, format_table


def main():
    profile = SCALE_PROFILES["small"]
    duration = 24.0
    results = {}
    for lam in (0.10, 0.50, 0.90):
        results[lam] = run_oltp_experiment(
            "tpcc", 800, "LC", duration=duration, profile=profile,
            nworkers=16, dirty_threshold=lam)
        print(f"ran lambda={lam:.0%}")

    rows = []
    for lam, result in results.items():
        rows.append([
            f"{lam:.0%}",
            f"{result.steady_state_throughput():,.0f}",
            f"{result.ssd_dirty_frames:,}",
            f"{result.ssd_stats.cleaner_pages:,}",
            f"{result.ssd_stats.cleaner_ios:,}",
        ])
    print()
    print(format_table(
        "LC λ sweep on TPC-C (paper Figure 7: higher λ wins)",
        ["lambda", "steady tpmC", "dirty SSD pages",
         "cleaner pages", "cleaner I/Os"],
        rows))

    # Dirty-fraction trajectory for the middle setting: shows the ramp
    # until λ is crossed and the cleaner pins it there.
    result = results[0.50]
    trajectory = [
        (sample.time - result.start_time, 100 * sample.ssd_dirty_fraction)
        for sample in result.sampler.samples
    ]
    print()
    print(format_series("SSD dirty fraction over time (λ=50%)",
                        trajectory, "t(s)", "dirty %"))


if __name__ == "__main__":
    main()
