"""Compare two reports written by ``perf/run.py --out``.

    python perf/compare.py A.json B.json

A is the parent, B the change.  For every workload and end-to-end metric
it prints both medians and quartiles and one verdict, using the bounds
in ``BENCHMARK.json``:

* ``within-bound`` - B's median is no worse than A's by more than the bound;
* ``worse``        - it is;
* ``better``       - B's median beats A's by more than A's own quartile
  spread, or every run of B beats every run of A;
* ``unresolved``   - a side's quartile spread is wider than the bound, and
  the runs of the two sides overlap, so the bound cannot be checked.

Simulated results must not move at all between two builds of one model:
``sim_digest`` and every count are compared exactly.  Exit status is 1
on any ``worse`` or any exact-match failure, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List, Tuple

from layermap import ROOT


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a: List[float], b: List[float], better: str,
            bound: float) -> str:
    """Where B stands against A for one metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0  # positive change = worse
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    scale = abs(a_med) or 1.0
    change = sign * (b_med - a_med) / scale
    disjoint_better = (max(b) < min(a) if better == "lower"
                       else min(b) > max(a))
    disjoint_worse = (min(b) > max(a) if better == "lower"
                      else max(b) < min(a))
    noisy = max(a_q3 - a_q1, b_q3 - b_q1) / scale > bound
    if noisy and not disjoint_better and not (disjoint_worse
                                              and change > bound):
        return "unresolved"
    if change > bound:
        return "worse"
    if disjoint_better or (change < 0
                           and abs(b_med - a_med) > a_q3 - a_q1):
        return "better"
    return "within-bound"


def compare(a: Dict, b: Dict, spec: Dict) -> int:
    """Print the comparison; returns the number of failures."""
    failures = 0
    for workload, ours in a["workloads"].items():
        theirs = b["workloads"].get(workload, {})
        for part in ("end_to_end", "per_layer"):
            if part not in ours or part not in theirs:
                print(f"{workload:<13} {part}: not in both reports, skipped")
                continue
            if ours[part]["sim_digest"] != theirs[part]["sim_digest"]:
                print(f"{workload:<13} {part} sim_digest MISMATCH "
                      f"{ours[part]['sim_digest'][:16]} != "
                      f"{theirs[part]['sim_digest'][:16]}")
                failures += 1
        if "end_to_end" not in ours or "end_to_end" not in theirs:
            continue
        left, right = ours["end_to_end"], theirs["end_to_end"]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            av, bv = left["values"][name], right["values"][name]
            result = verdict(av, bv, metric["better"], metric["bound"])
            failures += result == "worse"
            a_q1, a_med, a_q3 = quartiles(av)
            b_q1, b_med, b_q3 = quartiles(bv)
            print(f"{workload:<13} {name:<15} "
                  f"A {a_med:>11.5g} [{a_q1:.5g}, {a_q3:.5g}]  "
                  f"B {b_med:>11.5g} [{b_q1:.5g}, {b_q3:.5g}]  "
                  f"bound {metric['bound']:.2f}  {result}")
        for name in sorted(set(left["counts"]) | set(right["counts"])):
            if left["counts"].get(name) != right["counts"].get(name):
                print(f"{workload:<13} count {name}: "
                      f"{left['counts'].get(name)} != "
                      f"{right['counts'].get(name)}")
                failures += 1
    return failures


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as handle:
        a = json.load(handle)
    with open(argv[1]) as handle:
        b = json.load(handle)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key in ("seed", "seconds", "smoke"):
        if a[key] != b[key]:
            print(f"reports differ in {key}: {a[key]} vs {b[key]} — "
                  f"simulated results are not comparable", file=sys.stderr)
            return 2
    failures = compare(a, b, spec)
    print(f"{failures} failure(s)" if failures else "no regression")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
