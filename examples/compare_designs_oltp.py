#!/usr/bin/env python
"""Compare all five configurations on an update-intensive OLTP workload.

Reproduces the core of the paper's Figure 5 story at example scale: on a
TPC-C-like workload the write-back LC design wins by a wide margin, the
write-through designs (DW, TAC) give a modest gain, CW trails them, and
everything beats the plain-disk configuration.

Run:  python examples/compare_designs_oltp.py  [--benchmark tpce]
"""

import argparse

from repro.harness.experiments import RunSpec, run, speedup_over_nossd
from repro.harness.report import format_table

DESIGNS = ("noSSD", "CW", "DW", "LC", "TAC")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--benchmark", choices=("tpcc", "tpce"),
                        default="tpcc")
    parser.add_argument("--scale", type=int, default=None,
                        help="warehouses (tpcc) or customers/1000 (tpce)")
    parser.add_argument("--duration", type=float, default=20.0,
                        help="virtual seconds per run")
    args = parser.parse_args()
    scale = args.scale or (400 if args.benchmark == "tpcc" else 8)

    results = {}
    for design in DESIGNS:
        result = run(RunSpec(
            kind="oltp", benchmark=args.benchmark, scale=scale,
            design=design, duration=args.duration, profile="small",
            nworkers=16,
            checkpoint_interval=(args.duration / 3
                                 if args.benchmark == "tpce" else None)))
        results[design] = result
        print(f"ran {design:6s} -> {result.metric_name} "
              f"{result.steady_state_throughput():,.1f}")

    throughputs = {d: r.steady_state_throughput() for d, r in results.items()}
    speedups = speedup_over_nossd(throughputs)
    rows = []
    for design in DESIGNS:
        result = results[design]
        rows.append([
            design,
            f"{throughputs[design]:,.1f}",
            f"{speedups[design]:.2f}x",
            f"{result.bp_stats.ssd_hit_rate:.1%}",
            f"{result.ssd_used_frames:,}",
            f"{result.ssd_invalid_frames:,}",
        ])
    print()
    print(format_table(
        f"{args.benchmark.upper()} — design comparison "
        f"(steady state over the last 20% of the run)",
        ["design", results["noSSD"].metric_name, "speedup",
         "SSD hit rate", "SSD frames", "invalid (waste)"],
        rows))


if __name__ == "__main__":
    main()
