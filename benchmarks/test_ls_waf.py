"""LS-vs-LC write amplification on the FTL device model (DESIGN.md §10).

The log-structured design exists to stop paying the flash translation
layer's relocation tax: LC's steady-state random overwrites shred the
FTL's erase blocks (measured WAF ~2 on write-heavy TPC-C), while LS
writes sequentially, supersedes in place, and TRIMs whole segments so
the FTL's garbage collector almost never relocates a live page
(WAF ~1.07).  This bench pins the comparison at the operating point
documented in EXPERIMENTS.md ("Measuring write amplification"): TPC-C,
1,200 warehouses, small profile, 16 workers, FTL-backed SSD.

Expected shape: LS beats LC on WAF by a wide margin *without* giving up
throughput — the group-commit batches are striped across the device's
channels, so sequentiality costs no parallelism.
"""

from benchmarks.common import FAST, oltp_run, once

DURATION = 12.0 if FAST else 30.0


def ftl_run(design: str):
    return oltp_run("tpcc", 1_200, design, profile="small",
                    duration=DURATION, nworkers=16, ftl=True)


def test_ls_write_amplification_vs_lc(benchmark):
    def run():
        return {design: ftl_run(design) for design in ("LC", "LS")}

    results = once(benchmark, run)
    waf = {d: r.waf for d, r in results.items()}
    tput = {d: r.steady_state_throughput() for d, r in results.items()}
    nand = {d: r.ftl_stats.nand_writes
            for d, r in results.items()}
    print()
    print("Flash write amplification — TPC-C 1.2K warehouses (--ftl)")
    print(f"{'design':>6}  {'waf':>6}  {'nand_writes':>11}  {'tput/s':>8}")
    for design in ("LC", "LS"):
        print(f"{design:>6}  {waf[design]:6.3f}  {nand[design]:11d}"
              f"  {tput[design]:8.1f}")

    # The headline claim: the log layout roughly halves NAND wear per
    # host write...
    assert waf["LS"] < 1.5, waf
    assert waf["LS"] < 0.75 * waf["LC"], waf
    # ...at equal or better transaction throughput (striped log appends
    # keep the channels busy; a short FAST run gets a small grace).
    floor = 0.95 if FAST else 1.0
    assert tput["LS"] >= floor * tput["LC"], tput
