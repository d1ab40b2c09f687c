#!/usr/bin/env python
"""Run the TPC-H-like power and throughput tests on two configurations.

Shows the decision-support side of the paper (§4.4): the SSD helps even
a scan-dominated workload because some queries are dominated by random
LINEITEM index lookups — and it helps the multi-stream throughput test
more than the serial power test, because concurrent streams turn the
disks' sequential access pattern into a random one.

Run:  python examples/tpch_power_run.py
"""

from repro.harness.experiments import RunSpec, run
from repro.harness.report import format_table


def main():
    results = {
        design: run(RunSpec(kind="tpch", benchmark="tpch", scale=30,
                            design=design, profile="small"))
        for design in ("noSSD", "DW")
    }

    rows = [
        [design, f"{r.power:,.0f}", f"{r.throughput:,.0f}",
         f"{r.qphh:,.0f}", f"{r.power_elapsed:.2f}s",
         f"{r.throughput_elapsed:.2f}s"]
        for design, r in results.items()
    ]
    print(format_table(
        "TPC-H @30 SF — power vs throughput test",
        ["design", "QppH", "QthH", "QphH", "power elapsed",
         "throughput elapsed"],
        rows))

    base, ssd = results["noSSD"], results["DW"]
    print(f"\npower-test speedup      : {ssd.power / base.power:.2f}x")
    print(f"throughput-test speedup : "
          f"{ssd.throughput / base.throughput:.2f}x  <- bigger, as in the paper")

    # Per-query times: the lookup-heavy queries gain the most.
    gains = sorted(
        ((base.query_times[q] / ssd.query_times[q], q)
         for q in base.query_times), reverse=True)
    top = ", ".join(f"Q{q} ({gain:.1f}x)" for gain, q in gains[:5])
    print(f"biggest per-query gains : {top}")


if __name__ == "__main__":
    main()
