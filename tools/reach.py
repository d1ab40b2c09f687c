"""The reachability ledger: every function of ``src/repro`` no product path enters.

    python tools/reach.py

The product paths run in this one process, under ``sys.setprofile`` and
``threading.setprofile``, installed again before each of them:

* ``perf/cells.py``'s four cells at ``--smoke``, ``tpcc_lc`` once more
  as ``noSSD``, and ``perf/layers.py``'s iso rows at ``--smoke``;
* every ``repro`` command line CI runs (``CI_LINES``), then a few it
  does not (``MORE_LINES``);
* a 1 s open-loop spec through ``run_sweep``, computed and then served
  from a run store of its own;
* the dashboard's four routes, served by ``make_server(port=0)`` on a
  thread;
* ``examples/*.py``, each run as ``__main__``.

They run in a temporary directory that also holds the run store and
the trace files.  ``benchmarks/`` is too slow to run.

Every ``def`` under ``src/repro`` (nested ones included) that none of
the inputs entered is printed, grouped by module, with its line count
and one of three verdicts from ``LEDGER``:

* *justified* — the reason names the product caller the inputs do not
  run: a ``benchmarks/`` file, the sweep's spawn-pool child, a fault,
  stall or recovery path, a base-class stub, a ``__repr__``;
* *scheduled* — only tests enter it; the reason names the floor tests
  its removal would cost;
* *unlisted* — not in ``LEDGER``.

The exit status is 1 on an unlisted entry or a stale row — a ``LEDGER``
name the inputs entered, or one that no longer exists — and 0
otherwise.  ``LEDGER`` is the only list of entries.
"""

from __future__ import annotations

import ast
import contextlib
import http.client
import io
import os
import runpy
import shlex
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Set, TextIO, Tuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"

#: ``"module:qualname"`` → (defining file, first line as the code object
#: counts it — decorators included —, lines).
Defs = Dict[str, Tuple[str, int, int]]
#: (file, first line) of every code object a hook saw start.
Entered = Set[Tuple[str, int]]
Input = Tuple[str, Callable[[], object]]

J, S = VERDICTS = ("justified", "scheduled")

_REPR = "a __repr__"
_STUB = "a base-class stub each subclass overrides"
_RECORD = ("the run record a sweep's spawn-pool child ships back "
           "(harness/sweep.py _worker) and a benchmarks/common.py run "
           "records")
_TAC_FULL = ("TAC with a full SSD: repro oltp --designs TAC --scale 1000 "
             "--profile tiny --duration 20; "
             "benchmarks/test_cw_gap_tac_waste.py")
_FIG8 = "benchmarks/test_fig8_io_traffic.py (traffic recorders)"
_WHEEL = ("goes with sim/wheel.py, which only perf/cells.py:67 "
          "(traffic_open) runs (ROADMAP item 2): ")
_READ_AHEAD_REST = (
    "fault path: a read-ahead's SSD read that fails, or a planned SSD page "
    "gone by its read (run(RunSpec(kind='tpch', ...), faults=...); the "
    "tpch-DW-faults and tpch-DW-death golden traces)")

#: ``"module:qualname"`` → (verdict, reason).  A scheduled reason names
#: the tests that enter the def; the next removals start here.
LEDGER: Dict[str, Tuple[str, str]] = {
    # core
    "repro.core.ls:LogStructuredManager._clear_ssd_state": (
        J, "fault path: an LS SSD that dies (repro oltp --designs LS "
           "--faults ssd_die@t=3)"),
    "repro.core.ls:LogStructuredManager._roll_back": (
        J, "fault path: an LS batch whose SSD write fails (repro oltp "
           "--designs LS --faults ssd_die@t=3)"),
    "repro.core.ssd_buffer_table:SsdBufferTable.free_count": (J, _TAC_FULL),
    "repro.core.ssd_buffer_table:SsdRecord.__repr__": (J, _REPR),
    "repro.core.ssd_manager:SsdManagerBase._give_up": (
        J, "stall path: a drain's empty rounds (the run below)"),
    "repro.core.ssd_manager:SsdManagerBase._note_drain_stall": (
        J, "stall path: a group-cleaning round whose batches all came "
           "back empty, the dirty pages in flight in others or re-filed "
           "by failed ones (repro oltp --designs LC --dirty-threshold "
           "0.01 --checkpoint-interval 2)"),
    "repro.core.ssd_manager:SsdManagerBase.on_evict_dirty": (J, _STUB),
    "repro.core.ssd_manager:SsdStats.__repr__": (J, _REPR),
    "repro.core.ssd_manager:TrimPlan.__repr__": (J, _REPR),
    "repro.core.tac:TemperatureAwareManager._drop_record": (
        J, "recovery path: a warm restart drops TAC's invalid frames; a "
           "page re-admitted over its invalidated copy"),
    "repro.core.tac:TemperatureAwareManager._evict_for_space": (
        J, _TAC_FULL),
    # engine
    "repro.engine.buffer_pool:BufferPool._warmed": (
        J, "expand_reads=True: benchmarks/test_fig8_io_traffic.py"),
    "repro.engine.buffer_pool:BufferPool._read_ahead_detached": (
        J, "fault path: a read-ahead that finds an SSD detach in progress "
           "(an LC SSD that dies holding pages newer than disk; "
           "tests/engine/test_readahead_pins.py)"),
    "repro.engine.buffer_pool:BufferPool._read_ahead_rest": (
        J, _READ_AHEAD_REST),
    "repro.engine.page:Frame.__repr__": (J, _REPR),
    "repro.engine.readahead:ReadAheadAccuracy.__init__": (
        J, "benchmarks/test_ablations.py"),
    "repro.engine.readahead:ReadAheadAccuracy.accuracy": (
        J, "benchmarks/test_ablations.py"),
    "repro.engine.readahead:ReadAheadAccuracy.score": (
        J, "benchmarks/test_ablations.py (HeapFile.scan's accuracy=)"),
    "repro.engine.readahead:WindowClassifier.__init__": (
        J, "benchmarks/test_ablations.py"),
    "repro.engine.readahead:WindowClassifier.accuracy": (
        J, "benchmarks/test_ablations.py"),
    "repro.engine.readahead:WindowClassifier.classify": (
        J, "benchmarks/test_ablations.py"),
    # harness
    "repro.harness.metrics:Sampler.dirty_cross_time": (
        J, "benchmarks/test_fig6_timeseries.py"),
    "repro.harness.metrics:Sampler.fill_time": (
        J, "benchmarks/test_fig6_timeseries.py"),
    "repro.harness.report:format_speedups": (
        J, "benchmarks/test_fig5_tpcc.py, test_fig5_tpce.py, "
           "test_extended_designs.py"),
    "repro.harness.sweep:_worker": (J, "the sweep's spawn-pool child"),
    # runstore
    "repro.runstore.cli:_port": (
        J, "repro serve --port (blocks; the inputs serve through "
           "make_server)"),
    "repro.runstore.cli:cmd_serve": (
        J, "repro serve (blocks; the inputs serve through make_server)"),
    "repro.runstore.store:RegressionFinding.group_label": (
        J, "repro runs regress when it finds a regression"),
    "repro.runstore.store:RunStore.chaos_for": (
        J, "repro runs show of a chaos run"),
    # sim
    "repro.sim.events:Event.__repr__": (J, _REPR),
    "repro.sim.process:DetachedProcess._fail_or_crash": (
        J, "error path: a spawned process that raises crashes the run"),
    "repro.sim.process:GatherMember.fork": (J, _READ_AHEAD_REST),
    "repro.sim.process:_refused": (
        J, "error path: a process that yields neither an event nor a "
           "delay >= 0"),
    "repro.sim.wheel:TimerWheel.__bool__": (
        S, _WHEEL + "a crash's wipe() on the wheel; traffic_open never "
           "crashes (tests/sim/test_wheel.py, test_environment.py::TestWipe)"),
    "repro.sim.wheel:TimerWheel._refill_from_far": (
        S, _WHEEL + "a wheel timer past the 16.4 s mid horizon, which "
           "traffic_open's 40 s at --scale 1 sets none of "
           "(tests/sim/test_wheel.py)"),
    "repro.sim.wheel:TimerWheel.clear": (
        S, _WHEEL + "a crash's wipe() on the wheel; traffic_open never "
           "crashes (tests/sim/test_wheel.py, test_environment.py::TestWipe)"),
    # storage
    "repro.storage.device:Device._release": (
        J, "error path: a service computation that raises (a completing "
           "I/O passes its channel on inline)"),
    "repro.storage.device:DeviceBase._enter": (J, _STUB),
    "repro.storage.device:DeviceBase.attach_traffic_recorder": (J, _FIG8),
    "repro.storage.device:DeviceBase.pending": (J, _STUB),
    "repro.storage.device:DeviceBase.service_time": (J, _STUB),
    "repro.storage.device:TrafficRecorder.__init__": (J, _FIG8),
    "repro.storage.device:TrafficRecorder.record": (J, _FIG8),
    "repro.storage.device:TrafficRecorder.series": (J, _FIG8),
    "repro.storage.ftl.model:FlashTranslationLayer.erase_counts": (
        S, "ROADMAP item 8's greedy differential compares per-block erase "
           "counts: tests/storage/test_ftl.py::TestGcInvariants::"
           "test_wear_stays_level, TestDeterminism"),
    "repro.storage.ftl.model:FlashTranslationLayer.free_block_count": (
        J, "the ftl_free_blocks gauge: repro oltp --ftl --metrics"),
    "repro.storage.request:IORequest.__repr__": (J, _REPR),
    # telemetry
    "repro.telemetry.context:TraceContext.__repr__": (J, _REPR),
    # workloads
    "repro.workloads.tpch:TpchResult.from_dict": (
        J, "repro sweep --benchmark tpch, reused; benchmarks/common.py"),
    "repro.workloads.tpch:TpchResult.to_dict": (J, _RECORD),
    "repro.workloads.traffic:BurstyArrivals.__repr__": (J, _REPR),
    "repro.workloads.traffic:DiurnalArrivals.__repr__": (J, _REPR),
    "repro.workloads.traffic:PoissonArrivals.__repr__": (J, _REPR),
}


# ----------------------------------------------------------------------
# What exists, what ran
# ----------------------------------------------------------------------

def defs(package: Path) -> Defs:
    """Every ``def`` under ``package``, keyed ``"module:qualname"``.

    A second def of one qualname (a property's setter) is keyed with a
    ``#2`` suffix, so neither hides the other.
    """
    found: Defs = {}
    for path in sorted(package.rglob("*.py")):
        parts = path.relative_to(package.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        _walk(ast.parse(path.read_text(), str(path)), f"{module}:",
              str(path.resolve()), found)
    return found


def _walk(node: ast.AST, prefix: str, path: str, found: Defs) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([child.lineno]
                        + [d.lineno for d in child.decorator_list])
            key, n = prefix + child.name, 1
            while key in found:
                n += 1
                key = f"{prefix}{child.name}#{n}"
            found[key] = (path,first, child.end_lineno - first + 1)
            _walk(child, prefix + child.name + ".", path, found)
        elif isinstance(child, ast.ClassDef):
            _walk(child, prefix + child.name + ".", path, found)
        else:
            _walk(child, prefix, path, found)


def trace(inputs: Iterable[Input]) -> Entered:
    """Run each input under the hook; where every code object it
    started was defined.  An input that raises stops the ledger."""
    seen: Entered = set()
    add = seen.add

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            add((code.co_filename, code.co_firstlineno))

    previous = sys.getprofile()
    for label, run in inputs:
        started = time.perf_counter()
        # Anything the inputs run may clear the hook (a profiler does),
        # and it would go on silently unreported: install it each time.
        sys.setprofile(hook)
        threading.setprofile(hook)
        try:
            run()
        finally:
            sys.setprofile(previous)
            threading.setprofile(None)
        print(f"  {time.perf_counter() - started:6.1f}s  {label}",
              file=sys.stderr)
    real = {name: os.path.realpath(name) for name, _ in seen}
    return {(real[name], line) for name, line in seen}


def ledger(found: Defs, entered: Entered,
           table: Dict[str, Tuple[str, str]]
           ) -> Tuple[Dict[str, str], Dict[str, str]]:
    """``(verdicts, stale)``: each never-entered def's verdict
    (``justified``/``scheduled`` from ``table``, else ``unlisted``), and
    each table row that names no never-entered def or gives no proper
    reason, with why."""
    verdicts = {key: table[key][0] if key in table else "unlisted"
                for key, (path, first, _) in found.items()
                if (path, first) not in entered}
    stale = {key: "entered by the inputs" if key in found else "no such def"
             for key in table if key not in verdicts}
    for key, (verdict, reason) in table.items():
        if verdict not in VERDICTS or not reason.strip():
            stale[key] = f"verdict {verdict!r} without a reason"
        elif verdict == S and "tests/" not in reason:
            stale[key] = "scheduled without the tests/ its removal costs"
    return verdicts, stale


def check(package: Path, inputs: Iterable[Input],
          table: Dict[str, Tuple[str, str]], out: TextIO) -> int:
    """Trace ``inputs``, print the ledger of ``package`` to ``out``;
    the exit status (1 on an unlisted entry or a stale row)."""
    entered = trace(inputs)
    found = defs(package)
    verdicts, stale = ledger(found, entered, table)
    by_module: Dict[str, List[str]] = {}
    for key in sorted(verdicts):
        by_module.setdefault(key.partition(":")[0], []).append(key)
    for module, keys in by_module.items():
        lines = sum(found[key][2] for key in keys)
        print(f"{module} ({len(keys)} defs, {lines} lines)", file=out)
        for key in keys:
            reason = table.get(key, ("", "-"))[1]
            print(f"  {found[key][2]:4d}  {key.partition(':')[2]:<40} "
                  f"{verdicts[key]:<9}  {reason}", file=out)
    for key, why in sorted(stale.items()):
        print(f"stale row {key}: {why}", file=out)
    counts = {v: sum(1 for x in verdicts.values() if x == v)
              for v in VERDICTS + ("unlisted",)}
    print(f"{len(found)} defs, {len(found) - len(verdicts)} entered; "
          f"never entered: {len(verdicts)} "
          f"({', '.join(f'{n} {v}' for v, n in counts.items())}); "
          f"{len(stale)} stale rows", file=out)
    return 1 if counts["unlisted"] or stale else 0


# ----------------------------------------------------------------------
# The product paths
# ----------------------------------------------------------------------

CI_TENANTS = ("web=poisson:users=800000:think=100:theta=0.6;"
              "batch=bursty:users=400000:think=200:burst=8:theta=0.95")
CI_SWEEP = ("sweep --benchmark tpcc --scales 20,40 --designs noSSD,LC "
            "--profile tiny --duration 6 --workers 2 --workers-per-run 8")

#: ``.github/workflows/ci.yml``'s ``repro`` lines, job by job.
CI_LINES = (
    # tests: the trace smoke run, traced and not
    "oltp --profile small --designs LC --duration 10 --trace trace.json "
    "--metrics",
    "oltp --profile small --designs LC --duration 10 --metrics",
    # analyze-smoke
    "oltp --benchmark tpcc --scale 100 --profile tiny --duration 8 "
    "--workers 8 --designs CW,LC --dirty-threshold 0.01 --trace run.jsonl",
    "analyze run-CW.jsonl run-LC.jsonl --txn-type new_order "
    "--html report.html",
    # chaos-smoke
    "chaos --points 2 --designs CW,DW,LC,TAC,LS,ROT,EXCL "
    "--policies sharp,fuzzy --duration 5",
    "oltp --scale 100 --profile tiny --duration 6 --designs DW,LC "
    "--faults ssd_die@t=3,transient:p=0.0005 --trace faultdemo.jsonl",
    "oltp --scale 100 --profile tiny --duration 6 --designs LC --no-db "
    "--metrics --faults transient:p=0.02:device=disk,"
    "transient:p=0.02:device=log",
    "oltp --scale 100 --profile tiny --duration 6 --designs LC,LS,ROT "
    "--no-db --metrics --faults transient:p=0.02:device=ssd",
    "analyze faultdemo-DW.jsonl faultdemo-LC.jsonl --html faults.html",
    # ls-smoke
    "oltp --benchmark tpcc --scale 300 --profile tiny --duration 8 "
    "--workers 8 --designs LC,LS --ftl --trace ls-smoke.jsonl",
    "analyze ls-smoke-LC.jsonl ls-smoke-LS.jsonl",
    # perf-smoke: the second sweep is served from the run store
    CI_SWEEP + " --output sweep.json",
    CI_SWEEP,
    # traffic-smoke
    "traffic --benchmark tpcc --scale 100 --profile tiny --duration 4 "
    "--designs DW,LC --workers 32 --queue-limit 5000 "
    f"--tenants '{CI_TENANTS}' --trace traffic.jsonl",
    "runs list",
    "analyze traffic-DW.jsonl traffic-LC.jsonl",
    # runstore-smoke
    "sweep --benchmark tpcc --scales 20 --designs noSSD,LC --profile tiny "
    "--duration 6 --workers 2 --workers-per-run 8",
    "runs list",
    "runs compare --designs noSSD,LC",
    "runs show 1",
    "runs regress",
)

#: Command lines CI does not run.
MORE_LINES = (
    "designs",
    "iometer --duration 1",
    "tpch --profile tiny --designs noSSD,LC",
    "analyze trace.json",  # the trace smoke's Chrome JSON
    "traffic --scale 100 --profile tiny --duration 3 --designs LC "
    "--tenants 'day=diurnal:rate=300:period=2:peak=4:theta=0.8;"
    "night=poisson:rate=100'",
    # Every kind of the fault grammar; gc_stall needs the FTL.
    "oltp --scale 100 --profile tiny --duration 6 --designs LC --ftl "
    "--faults transient:p=0.01,latency:p=0.01:x=5,log_stall@t=1:dur=0.2,"
    "disk_stall@t=1.5:dur=0.2,ssd_stall@t=2:dur=0.2,gc_stall@t=2.5:dur=0.2,"
    "ssd_chan_die@t=3:n=2,ssd_die@t=4",
)


@contextlib.contextmanager
def _quiet():
    """Swallow an input's output; show it if the input fails."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            yield
    except BaseException:
        sys.stderr.write(out.getvalue())
        raise


def _repro(line: str) -> Input:
    def run() -> None:
        from repro.cli import main

        with _quiet():
            status = main(shlex.split(line))
            if status:
                raise RuntimeError(f"exit status {status}")
    return f"repro {line}", run


def _cells() -> None:
    import cells

    runs = [(name, None) for name in cells.CELLS] + [("tpcc_lc", "noSSD")]
    for name, design in runs:
        record = cells.run_cell(name, cells.DEFAULT_SEED, 1.0, smoke=True,
                                design=design)
        if record["problems"]:
            raise RuntimeError(f"{name}: {record['problems']}")


def _iso_rows() -> None:
    import layers

    layers.iso_rows(smoke=True)


def _traffic_sweep() -> None:
    """An open-loop run's record, stored and then restored: no CI line
    records one in this process (its sweeps compute in the pool)."""
    from repro.harness.experiments import RunSpec
    from repro.harness.sweep import run_sweep
    from repro.runstore.store import Recorder, RunStore

    spec = RunSpec(kind="traffic", benchmark="tpcc", scale=20, design="LC",
                   profile="tiny", duration=1.0, nworkers=8,
                   tenants="web=poisson:rate=200")
    with tempfile.TemporaryDirectory(prefix="store-") as directory, \
            Recorder(RunStore(Path(directory) / "runs.db")) as recorder:
        for cached in (0, 1):
            report = run_sweep([spec], recorder=recorder)
            if report.cached != cached:
                raise RuntimeError(f"{report.cached} cached, not {cached}")


def _dashboard() -> None:
    from repro.runstore.dashboard import make_server

    server = make_server(os.environ["REPRO_RUNSTORE"], port=0, verbose=False)
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    try:
        host, port = server.server_address[:2]
        for route in ("/", "/healthz", "/api/runs",
                      "/api/trajectory?metric=value"):
            connection = http.client.HTTPConnection(host, port, timeout=60)
            connection.request("GET", route)
            reply = connection.getresponse()
            reply.read()
            connection.close()
            if reply.status != 200:
                raise RuntimeError(f"GET {route}: {reply.status}")
    finally:
        server.shutdown()
        server.server_close()
        thread.join()


def _example(path: Path) -> Input:
    def run() -> None:
        argv, sys.argv = sys.argv, [str(path)]
        try:
            with _quiet():
                runpy.run_path(str(path), run_name="__main__")
        finally:
            sys.argv = argv
    return f"examples/{path.name}", run


def product_inputs() -> List[Input]:
    """Every product path, in the order the later ones need."""
    return ([("perf/cells.py --smoke (4 cells + noSSD twin)", _cells),
             ("perf/layers.py --smoke", _iso_rows)]
            + [_repro(line) for line in CI_LINES + MORE_LINES]
            + [("run_sweep: a 1 s traffic spec, live then cached",
                _traffic_sweep)]
            + [("repro serve: /, /healthz, /api/runs, /api/trajectory",
                _dashboard)]
            + [_example(path)
               for path in sorted((ROOT / "examples").glob("*.py"))])


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perf")]
    import repro

    if Path(repro.__file__).resolve().parent != PACKAGE:
        print(f"reach: imported {repro.__file__}, not {PACKAGE}",
              file=sys.stderr)
        return 2
    started = time.perf_counter()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        os.environ["REPRO_RUNSTORE"] = os.path.join(scratch, "runs.db")
        os.chdir(scratch)
        try:
            status = check(PACKAGE, product_inputs(), LEDGER, sys.stdout)
        finally:
            os.chdir(cwd)
    print(f"ledger took {time.perf_counter() - started:.0f}s wall",
          file=sys.stderr)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
