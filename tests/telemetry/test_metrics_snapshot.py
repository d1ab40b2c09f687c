"""Every ``--metrics`` row of ten telemetry-on runs, pinned.

``snapshot(system, latencies)`` is what ``--metrics`` prints and nothing
else asserted on it: CI printed the table and moved on.  The nine runs below
reach every instrument in ``src/repro`` — all eight designs' counters,
the FTL gauges, fault and retry counters through an SSD death, frame-
and partition-latch waits, checkpoints, both runners' latency
histograms — and ``metrics_snapshot.txt`` holds each run's rows as
``name{labels} value`` lines, captured at commit 2a98990 (589 rows;
the 76 ``ssd_mgr_heap_*`` rows came with the heaps' vitals, PR 20).
A tenth run, TAC behind a throttled 150-frame SSD, was added at commit
001cc3f: TAC's guard counts a throttle decline in an order the trace
does not show and ``ssd_mgr_declined_throttle_total`` does.

``bp_dirty_frames`` was re-pinned in four runs (throttled-TAC 0 → 18,
tpce-DW-latched-faults 52 → 53, tpce-LS-ftl-ssd-dies 25 → 26, tpce-TAC
41 → 45) when a frame evicted under its checkpoint write stopped leaving
the pool's dirty count twice; no other row moved.

``bp_prefetched_unused_total`` was added to every run (0 in nine of
them, 1,627 of tpch-DW's 3,333 read-ahead pages); no other row moved.

tpce-EXCL, tpce-ROT and tpce-LS-ftl-ssd-dies were re-pinned whole when
§3.3.5 group cleaning became the round of every checkpoint and λ
cleaner: their checkpoints write consecutive dirty SSD pages with one
disk write (``io_requests_total{device="hdd-array",kind=
"sequential_write"}`` 0 → 29, 19 and 4), their dirty heaps are popped
instead of left to fill with cleaned records, and tpce-EXCL finishes a
third checkpoint.

``disk_stale_landings_total`` and ``disk_same_version_writes_total``
were added to every run (stale 0 in all ten, same-version 0 to 42), and
the dirty heap's vitals moved in tpcc-LC, tpce-EXCL, tpce-LC-ssd-dies
and tpce-ROT when a clean batch came to own its pages until they land:
an access to an in-flight page no longer files it there again
(tpcc-LC's ``ssd_mgr_heap_entries{heap="dirty"}`` 66 → 12).  No other
row moved.

tpce-TAC and throttled-TAC were re-pinned whole when TAC's admission
check stopped re-stamping the coldest record it peeks at: other
records are replaced (tpce-TAC's ``ssd_mgr_evictions_total`` 450 ->
428).  No other run moved.

tpce-LS-ftl-ssd-dies was re-pinned whole when an LS admission batch
came to close at its flush's first step, in the instant it opened,
instead of on the lazy writer's hint or a 2 ms timer
(``ls_batches_total`` 342 -> 339, ``ls_batch_pages_total`` 1,123 ->
1,160).  It gains two rows: a fetch waits on a frame under eviction
(``bp_latch_waits_total{reason="eviction"}`` 3) and a write is in
flight when the SSD dies (``faults_injected_total{kind=
"dead_inflight"}`` 1).  No other run moved.

Rows are compared as a *set* per run: the order of a family's children
is not pinned.  A histogram is pinned by ``count / p50 / p95 / p99``,
not by its mean — ``sum()`` is compensated from Python 3.12 on, so the
last digit of a mean depends on the interpreter.

Regenerate (after a deliberate change) with
``PYTHONPATH=src:. python tests/telemetry/test_metrics_snapshot.py``.
"""

from pathlib import Path

import pytest

from repro.harness.experiments import RunSpec, run
from repro.harness.metrics import snapshot
from repro.telemetry import Telemetry
from tests.harness.test_golden_traces import _throttled

PINNED = Path(__file__).with_name("metrics_snapshot.txt")

TPCE = dict(kind="oltp", benchmark="tpce", scale=20, profile="tiny",
            duration=4.0, nworkers=4, checkpoint_interval=1.0)
SSD_DIES = "transient:p=0.005,ssd_die@t=2.5"
TENANTS = ("gold=poisson:rate=400:theta=0.6;"
           "noisy=bursty:rate=300:burst=10:theta=0.99")

#: name -> (spec, or a runner taking the telemetry; fault plan; rows
#: expected — the quick cross-check)
RUNS = {
    "tpcc-LC": (RunSpec(kind="oltp", benchmark="tpcc", scale=100,
                        design="LC", profile="tiny", duration=5.0,
                        nworkers=4, dirty_threshold=0.01), None, 75),
    "tpce-LC-ssd-dies": (RunSpec(design="LC", **TPCE), SSD_DIES, 81),
    "tpce-LS-ftl-ssd-dies": (RunSpec(design="LS", ftl=True, **TPCE),
                             SSD_DIES, 87),
    "tpce-TAC": (RunSpec(design="TAC", **TPCE), None, 80),
    "tpce-ROT": (RunSpec(design="ROT", **TPCE), None, 73),
    "tpce-EXCL": (RunSpec(design="EXCL", **TPCE), None, 73),
    "tpce-DW-latched-faults": (
        RunSpec(design="DW", partitions=4, latch_us=20.0, **TPCE),
        "transient:p=0.01", 80),
    "open-loop-latched": (
        RunSpec(kind="traffic", benchmark="tpcc", scale=20, design="LC",
                profile="tiny", duration=4.0, nworkers=8, queue_limit=200,
                partitions=4, latch_us=20.0, tenants=TENANTS), None, 78),
    "tpch-DW": (RunSpec(kind="tpch", benchmark="tpch", scale=30,
                        design="DW", profile="tiny"), None, 67),
    "throttled-TAC": (_throttled("TAC"), None, 74),
}


def snapshot_lines(name):
    """One ``name{label="v",...} value`` line per snapshot row."""
    spec, faults, _ = RUNS[name]
    telemetry = Telemetry()
    if callable(spec):
        rows = snapshot(spec(telemetry))
    else:
        result = run(spec, telemetry=telemetry, faults=faults)
        rows = snapshot(result.system, getattr(result, "latencies", None))
    lines = []
    for row in rows:
        labels = ",".join(f'{key}="{value}"'
                          for key, value in sorted(row["labels"].items()))
        value = row["value"]
        text = (" ".join(f"{key}={value[key]!r}"
                         for key in ("count", "p50", "p95", "p99"))
                if row["kind"] == "histogram" else repr(value))
        lines.append(f"{row['name']}{{{labels}}} {text}")
    return lines


def pinned_lines():
    """run name -> the lines of its ``[name]`` section."""
    sections = {}
    for line in PINNED.read_text().splitlines():
        if line.startswith("["):
            current = sections[line.strip("[]")] = []
        elif line:
            current.append(line)
    return sections


@pytest.mark.parametrize("name", sorted(RUNS))
def test_metrics_rows_are_what_they_were(name):
    lines = snapshot_lines(name)
    assert len(lines) == RUNS[name][2]
    assert len(set(lines)) == len(lines), "a row appears twice"
    assert set(lines) == set(pinned_lines()[name])


def test_the_pin_covers_every_registered_name():
    """The ten runs together reach all 54 metric names."""
    names = {line.split("{")[0]
             for lines in pinned_lines().values() for line in lines}
    assert len(names) == 54
    assert sum(len(lines) for lines in pinned_lines().values()) == 768


if __name__ == "__main__":
    PINNED.write_text("".join(
        f"[{name}]\n" + "\n".join(sorted(snapshot_lines(name))) + "\n\n"
        for name in RUNS))
