"""The repo benchmark: four cells, each run in fresh processes, then traced.

    python perf/run.py                       # every cell, both passes, iso rows
    python perf/run.py --out A.json          # ... and a report compare.py reads
    python perf/run.py --workload tpcc_lc --seed 7 --seconds 20 --trace 0

With one ``--workload`` and one ``--trace`` the last line of standard
output is the JSON object ``BENCHMARK.json``'s contract asks for.
``--trace 0`` measures the end-to-end metrics (median of ``--repeats``
untraced children); ``--trace 1`` runs one untraced and one
``cProfile``-traced child and derives the per-layer metrics from the
pair.  See ``perf/README.md`` for every metric and how they interact.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional

from cells import CELLS, DEFAULT_SEED, FULL_SECONDS
from layermap import LAYERS, PERF, ROOT, SRC

if not (SRC / "repro").is_dir():
    sys.exit(f"perf/run.py: {SRC}/repro not found — nothing to benchmark")

from layers import iso_rows  # noqa: E402  (needs src/repro)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]

#: Extra set-up-only children per untraced pass: set-up is ~0.1 s, so
#: its median is taken over more starts than the run phase can afford.
SETUP_EXTRA = 4
#: A child is disturbed when its wall clock ran this far ahead of its CPU
#: clock, or its calibration slices' quartiles lie this far apart (the
#: host changed speed under it, so one slowdown does not describe it).
MAX_WALL_OVER_CPU = 1.05
MAX_CALIB_SPREAD = 0.10
#: Paper Fig. 5(a): LC over noSSD at 1K warehouses (EXPERIMENTS.md).
PAPER_LC_SPEEDUP = 9.1
#: count that turns a layer's share of the run into a cost per unit of work
UNIT_COSTS = {
    "sim.host_us_per_event": ("sim", ["sim.events"]),
    "engine.pool.host_us_per_fetch": ("engine.pool", ["engine.pool.fetches"]),
    "engine.wal.host_us_per_record": ("engine.wal", ["engine.wal.records"]),
    "core.host_us_per_ssd_op": ("core", ["core.reads", "core.writes"]),
    "storage.host_us_per_io": ("storage", ["storage.hdd.ios",
                                           "storage.ssd.ios",
                                           "storage.log.ios"]),
    "ftl.host_us_per_write": ("ftl", ["ftl.host_writes"]),
    "workloads.host_us_per_txn": ("workloads", ["workloads.txns"]),
}


def child(workload: str, seed: int, scale: float, smoke: bool,
          *flags: str) -> Dict[str, Any]:
    """Run ``perf/cells.py`` once in a fresh interpreter; its JSON record."""
    command = [sys.executable, str(PERF / "cells.py"), "--workload", workload,
               "--seed", str(seed), "--scale", repr(scale), *flags]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=900, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def clean_children(want: int, *args: Any) -> List[Dict[str, Any]]:
    """Fresh children until ``want`` of them ran undisturbed, at most
    ``want + 1`` in all (a noisy hour must not double the run time);
    each is marked ``disturbed`` or not."""
    runs: List[Dict[str, Any]] = []
    while (len(runs) <= want
           and sum(not r["disturbed"] for r in runs) < want):
        record = child(*args)
        record["disturbed"] = (
            record["wall_over_cpu"] > MAX_WALL_OVER_CPU
            or record["host"]["spread"] > MAX_CALIB_SPREAD)
        runs.append(record)
    return runs


def end_to_end(workload: str, seed: int, scale: float, repeats: int,
               smoke: bool) -> Dict[str, Any]:
    """The untraced pass: ``repeats`` fresh children, medians of the host
    numbers, the simulated numbers once (they must not differ)."""
    runs = clean_children(repeats, workload, seed, scale, smoke)
    setups = [r["setup_s"] for r in runs] + [
        child(workload, seed, scale, smoke, "--setup-only")["setup_s"]
        for _ in range(SETUP_EXTRA)]
    # Disturbed runs are reported, not averaged in; if every run was
    # disturbed, the steadiest ``repeats`` of them stand in.
    clean = [r for r in runs if not r["disturbed"]] or sorted(
        runs, key=lambda r: r["host"]["spread"])[:repeats]
    values = {
        "setup_s": setups,
        "host_us_per_op": [r["run_cpu_s"] * 1e6 / r["ops"] for r in clean],
        "peak_rss_mb": [r["peak_rss_mb"] for r in clean],
    }
    values.update({name: [r["sim"][name] for r in runs]
                   for name in runs[0]["sim"]})
    problems = [p for r in runs for p in r["problems"]]
    if len({r["sim_digest"] for r in runs}) > 1:
        problems.append("sim_digest differs between repeats of one seed")
    first = runs[0]
    return {
        "metrics": {name: statistics.median(v) for name, v in values.items()},
        "values": values, "sim_digest": first["sim_digest"],
        "counts": first["counts"], "attempted": first["attempted"],
        "failed": first["failed"], "problems": problems,
        "disturbed": sum(r["disturbed"] for r in runs),
    }


def per_layer(workload: str, seed: int, scale: float,
              smoke: bool) -> Dict[str, Any]:
    """The traced pass: an untraced child for counts and CPU, a traced one
    for where the time went; tracing must not move the simulation."""
    plain = min(clean_children(1, workload, seed, scale, smoke),
                key=lambda r: r["disturbed"])
    traced = child(workload, seed, scale, smoke, "--traced")
    problems = plain["problems"] + traced["problems"]
    if plain["sim_digest"] != traced["sim_digest"]:
        problems.append("sim_digest differs between traced and untraced run")
    own = traced["layer_own_s"]
    total = sum(own.values())
    counts = plain["counts"]
    metrics: Dict[str, float] = {
        f"{layer}.self_share": own[layer] / total for layer in LAYERS}
    metrics["harness.trace_overhead_x"] = (traced["run_cpu_s"]
                                           / plain["run_cpu_s"])
    for name, (layer, of) in UNIT_COSTS.items():
        work = sum(counts[c] for c in of)
        metrics[name] = (own[layer] / total * plain["run_cpu_s"] * 1e6 / work
                         if work else 0.0)
    metrics["harness.cpu_s"] = plain["run_raw_s"]
    metrics["harness.wall_s"] = plain["run_wall_s"]
    metrics["harness.host_slowdown_x"] = plain["host"]["slowdown"]
    metrics["iso.calib.loop_s"] = plain["host"]["slice_s"]
    # -1: the paper has no figure for this cell.
    metrics["harness.paper_rel_err"] = -1.0
    if workload == "tpcc_lc":
        twin = child(workload, seed, scale, smoke, "--design", "noSSD")
        speedup = plain["sim"]["sim_tput"] / twin["sim"]["sim_tput"]
        metrics["harness.paper_rel_err"] = abs(speedup / PAPER_LC_SPEEDUP - 1)
    metrics.update(counts)
    return {
        "metrics": metrics, "sim_digest": plain["sim_digest"],
        "attempted": plain["attempted"], "failed": plain["failed"],
        "problems": problems, "disturbed": int(plain["disturbed"]),
    }


def show(title: str, block: Dict[str, Any], names: List[str]) -> None:
    """Print every metric by name with its unit."""
    print(f"== {title}  sim_digest={block['sim_digest'][:16]}  "
          f"attempted={block['attempted']} failed={block['failed']} "
          f"disturbed={block['disturbed']}")
    for name in names:
        print(f"  {name:<44} {block['metrics'][name]:>16.6g} {UNITS[name]}")
    for problem in block["problems"]:
        print(f"  INCORRECT: {problem}")


def contract_line(block: Dict[str, Any], names: List[str]) -> str:
    """The driver's last line; every operation fails if the outputs are wrong."""
    correct = not block["problems"]
    return json.dumps({
        "correct": correct, "attempted": block["attempted"],
        "failed": block["failed"] if correct else block["attempted"],
        "metrics": {name: {"value": block["metrics"][name],
                           "unit": UNITS[name]} for name in names},
    })


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=sorted(CELLS),
                        help="one cell (default: all four)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help=f"sets the size of every cell: simulated durations"
                             f" are multiplied by seconds/{FULL_SECONDS:g}")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end pass, 1: per-layer pass "
                             "(default: both)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="fresh children per end-to-end pass")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny cells, 2 simulated seconds (self-check)")
    parser.add_argument("--out", help="write the full report as JSON")
    args = parser.parse_args(argv)

    scale = args.seconds / FULL_SECONDS
    workloads = [args.workload] if args.workload else list(CELLS)
    report: Dict[str, Any] = {
        "schema": "repro-perf/1", "seed": args.seed, "seconds": args.seconds,
        "repeats": args.repeats, "smoke": args.smoke, "workloads": {}}
    last: Optional[str] = None
    for workload in workloads:
        entry = report["workloads"][workload] = {}
        if args.trace in (None, 0):
            entry["end_to_end"] = block = end_to_end(
                workload, args.seed, scale, args.repeats, args.smoke)
            show(f"{workload} end to end", block, END_TO_END)
            last = contract_line(block, END_TO_END)
        if args.trace in (None, 1):
            entry["per_layer"] = block = per_layer(
                workload, args.seed, scale, args.smoke)
            show(f"{workload} per layer", block, PER_LAYER)
            last = contract_line(block, PER_LAYER)
    if args.workload is None and args.trace is None:
        report["iso"] = iso_rows(smoke=args.smoke)
        print("== each layer alone (median of 5, MAD)")
        for name, row in report["iso"].items():
            print(f"  {name:<44} {row['median']:>16.6g} {row['unit']}"
                  f"  (mad {row['mad']:.3g})")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
    if args.workload and args.trace is not None:
        print(last)
    incorrect = [w for w, entry in report["workloads"].items()
                 for block in entry.values() if block["problems"]]
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
