"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``iometer`` — regenerate the paper's Table 1 device measurements.
* ``oltp``    — run a TPC-C/E-like experiment for one or more designs
  and print throughputs, speedups, and SSD statistics.
* ``tpch``    — run the TPC-H power + throughput tests.
* ``designs`` — list the available SSD designs with one-line summaries.
* ``sweep``   — fan a grid of runs (designs x scales) across worker
  processes through the on-disk run cache.
* ``analyze`` — reconstruct per-transaction latency attribution from
  ``--trace`` output and emit terminal and HTML reports.
* ``runs``    — query the run database every experiment records into
  (list/show/compare/regress; see ``repro.runstore``).
* ``serve``   — HTML dashboard + JSON API over the run database.

``oltp``/``traffic``/``tpch``/``sweep``/``chaos`` record into the run
store by default (``--db`` to point elsewhere, ``--no-db`` to skip);
recording is best-effort and never fails the run.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import fields
from typing import Any, Dict, List, Optional, get_args, get_type_hints

from repro.core import DESIGNS
from repro.harness.experiments import RunSpec, run, speedup_over_nossd
from repro.harness.report import format_metrics, format_table
from repro.telemetry import Telemetry


def _add_spec_flags(parser: argparse.ArgumentParser,
                    options: Optional[Dict[str, str]] = None,
                    **defaults: Any) -> None:
    """Add the :class:`RunSpec` knobs named in ``defaults`` as flags.

    Option string, type, choices and help come from the field's
    declaration; a subcommand chooses only which knobs it exposes and
    their defaults (``options`` renames one: sweep's ``--workers`` is
    its process pool, so the knob becomes ``--workers-per-run``).  Every
    flag parses into ``dest=<field name>``, which is what lets
    :func:`_spec` build the spec without a per-command key list.
    """
    hints = get_type_hints(RunSpec)
    for spec_field in fields(RunSpec):
        name = spec_field.name
        if name not in defaults:
            continue
        meta = dict(spec_field.metadata)
        option = (options or {}).get(
            name, meta.pop("flag", "--" + name.replace("_", "-")))
        if hints[name] is bool:
            meta["action"] = "store_true"
        else:
            # Optional[X] parses as X; its None default means "unset".
            meta["type"] = (get_args(hints[name]) or (hints[name],))[0]
            if "choices" not in meta:
                meta["metavar"] = option[2:].replace("-", "_").upper()
            if defaults[name] is not None:
                meta["help"] += " (default: %(default)s)"
        parser.add_argument(option, dest=name, default=defaults[name],
                            **meta)


def _spec(args: argparse.Namespace, kind: str, design: str,
          **fixed: Any) -> RunSpec:
    """The run a subcommand's parsed flags describe (``ValueError`` when
    they describe none: bad tenants, a benchmark the kind cannot drive)."""
    values = {f.name: getattr(args, f.name) for f in fields(RunSpec)
              if hasattr(args, f.name)}
    return RunSpec(**{**values, "kind": kind, "design": design, **fixed})


def _count(text: str) -> int:
    """An argparse ``type``: an int >= 1 (argparse names the flag)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _seconds(text: str) -> float:
    """An argparse ``type``: a float that is finite and > 0."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"must be finite and > 0, got {value}")
    return value


def _add_designs(parser: argparse.ArgumentParser,
                 default: str = "noSSD,DW,LC,TAC") -> None:
    parser.add_argument("--designs", default=default,
                        help="comma-separated designs (see `designs`)")


def _designs(args: argparse.Namespace) -> Optional[List[str]]:
    """The ``--designs`` list, or None (reason on stderr) when it names
    a design the registry does not have."""
    designs = [d.strip() for d in args.designs.split(",") if d.strip()]
    unknown = [d for d in designs if d not in DESIGNS]
    if unknown:
        print(f"unknown designs: {unknown}; try `python -m repro designs`",
              file=sys.stderr)
        return None
    return designs


def _add_common(parser: argparse.ArgumentParser) -> None:
    _add_spec_flags(parser, profile="small")
    _add_designs(parser)
    parser.add_argument("--trace", metavar="FILE", default=None,
                        help="write a trace file (Chrome trace_event JSON, "
                             "or JSONL when FILE ends in .jsonl); with "
                             "several designs, one file per design; feed "
                             "the files to `repro analyze`")
    parser.add_argument("--metrics", action="store_true",
                        help="print the full metrics registry after each run")


def _add_db_flags(parser: argparse.ArgumentParser) -> None:
    """Recording flags shared by every experiment-running command."""
    from repro.runstore.cli import add_db_argument
    add_db_argument(parser)
    parser.add_argument("--no-db", action="store_true",
                        help="do not record runs into the run database")


def _open_recording_store(args):
    """The run store for a recording command, or None (``--no-db``, or
    the database is unusable — recording is best-effort)."""
    if getattr(args, "no_db", False):
        return None
    from repro.runstore.store import open_store
    return open_store(getattr(args, "db", None))


def _emit_telemetry(args, design: str, telemetry: Optional[Telemetry],
                    multiple: bool) -> None:
    """Write the trace file and/or print the metrics table for one run."""
    if telemetry is None:
        return
    if args.trace:
        path = args.trace
        if multiple:  # one file per design: suffix its name
            stem, ext = os.path.splitext(path)
            path = f"{stem}-{design}{ext or '.json'}"
        if path.endswith(".jsonl"):
            telemetry.tracer.write_jsonl(path)
        else:
            telemetry.tracer.write_chrome(path)
        dropped = telemetry.tracer.dropped
        note = f" ({dropped} events dropped past cap)" if dropped else ""
        print(f"wrote {len(telemetry.tracer.events)} trace events "
              f"to {path}{note}", file=sys.stderr)
    if args.metrics:
        print(format_metrics(telemetry.registry, title=f"Metrics — {design}"))


def cmd_iometer(args) -> int:
    """Regenerate the paper's Table 1 with the device models."""
    from repro.storage.iometer import run_table1
    table = run_table1(duration=args.duration)
    rows = [[name, f"{measured:,.0f}", f"{paper:,}",
             f"{measured / paper:.3f}"]
            for name, measured, paper in table.rows()]
    print(format_table("Table 1 — sustained IOPS (8 KB I/Os)",
                       ["device/pattern", "measured", "paper", "ratio"],
                       rows))
    return 0


def cmd_designs(args) -> int:
    """List the available SSD designs."""
    rows = [[name, design.summary] for name, design in DESIGNS.items()]
    print(format_table("SSD buffer-pool extension designs",
                       ["name", "summary"], rows))
    return 0


def _runs(args, kind: str, **fixed: Any):
    """The runs a subcommand's flags describe, one per ``--designs``
    entry, as an iterator of ``(spec, result)`` — or None (reason on
    stderr) when a flag is bad, checked before the first run so a typo
    fails in milliseconds, not after a whole simulation.  The iterator
    owns the run store, and emits each run's telemetry when the caller
    comes back for the next one."""
    designs = _designs(args)
    if designs is None:
        return None
    directory = os.path.dirname(args.trace or "") or "."
    if not os.path.isdir(directory):
        print(f"--trace: directory does not exist: {directory}",
              file=sys.stderr)
        return None
    plan = getattr(args, "faults", None)
    if plan:
        from repro.faults.plan import FaultPlan
        try:
            FaultPlan.parse(plan)
        except ValueError as exc:
            print(f"--faults: {exc}", file=sys.stderr)
            return None
    try:
        specs = [_spec(args, kind, design, **fixed) for design in designs]
    except ValueError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return None

    def runs():
        store = _open_recording_store(args)
        try:
            for spec in specs:
                telemetry = (Telemetry() if args.trace or args.metrics
                             else None)
                # The grammar string, not a plan: each system parses its
                # own, since injectors bind to one system's devices.
                result = run(spec, telemetry=telemetry, store=store,
                             faults=plan or None)
                print(f"ran {spec.design}", file=sys.stderr)
                yield spec, result
                _emit_telemetry(args, spec.design, telemetry,
                                len(designs) > 1)
        finally:
            if store is not None:
                store.close()
    return runs()


def cmd_oltp(args) -> int:
    """Run an OLTP experiment across designs and print the table."""
    runs = _runs(args, "oltp")
    if runs is None:
        return 2
    results = {}
    for spec, result in runs:
        design = spec.design
        results[design] = result
        stats = result.ftl_stats
        if stats is not None:
            print(f"ftl[{design}]: host_writes={stats.host_writes} "
                  f"nand_writes={stats.nand_writes} erases={stats.erases} "
                  f"waf={result.waf:.3f} wear_spread={result.wear_spread}",
                  file=sys.stderr)
        faults = result.system.faults
        if faults:
            injected = {
                role: dict(inj.stats)
                for role, inj in sorted(faults.injectors.items()) if inj.stats}
            print(f"faults[{design}]: injected={injected} "
                  f"ssd_detached={result.ssd_detached} "
                  f"retries={result.ssd_stats.io_retries} "
                  f"degrade_redo={result.ssd_stats.detach_redo_pages}",
                  file=sys.stderr)
    throughputs = {d: r.steady_state_throughput()
                   for d, r in results.items()}
    speedups = speedup_over_nossd(throughputs)
    metric = next(iter(results.values())).metric_name
    rows = []
    for design in _designs(args):
        result = results[design]
        rows.append([
            design,
            f"{throughputs[design]:,.1f}",
            (f"{speedups[design]:.2f}x" if "noSSD" in throughputs else "-"),
            f"{result.bp_stats.ssd_hit_rate:.1%}",
            f"{result.ssd_used_frames:,}",
            f"{result.ssd_dirty_frames:,}",
        ])
    print(format_table(
        f"{args.benchmark.upper()} scale={args.scale} "
        f"({args.duration:.0f} virtual s, profile={args.profile})",
        ["design", metric, "speedup", "SSD hit", "SSD used", "SSD dirty"],
        rows))
    return 0


def cmd_traffic(args) -> int:
    """Run an open-loop multi-tenant experiment across designs."""
    runs = _runs(args, "traffic")
    if runs is None:
        return 2
    results = {spec.design: result for spec, result in runs}
    designs = _designs(args)
    first = next(iter(results.values()))
    users = first.logical_users
    rows = []
    for design in designs:
        result = results[design]
        rows.append([
            design,
            f"{result.steady_state_throughput():,.1f}",
            f"{result.offered:,}",
            f"{result.shed_fraction:.1%}",
            f"{result.queue_wait_percentile(99) * 1e3:,.2f}",
            f"{result.latencies.percentile(99) * 1e3:,.2f}",
        ])
    print(format_table(
        f"open-loop {args.benchmark.upper()} scale={args.scale} "
        f"({users:,.0f} logical users, {args.duration:.0f} virtual s, "
        f"workers={args.nworkers}, kernel={args.kernel})",
        ["design", first.metric_name, "offered", "shed",
         "qwait p99 (ms)", "p99 (ms)"], rows))
    tenant_rows = []
    for design in designs:
        result = results[design]
        for name, stats in result.tenants.items():
            tenant_rows.append([
                design, name,
                f"{stats.offered:,}",
                f"{stats.shed_fraction:.1%}",
                f"{stats.throughput(result.duration):,.1f}",
                f"{stats.queue_waits.percentile(99) * 1e3:,.2f}",
                f"{stats.latencies.percentile(99) * 1e3:,.2f}",
            ])
    print()
    print(format_table(
        "per-tenant isolation",
        ["design", "tenant", "offered", "shed", "txn/s",
         "qwait p99 (ms)", "p99 (ms)"], tenant_rows))
    return 0


def cmd_chaos(args) -> int:
    """Run the crash-point sweep and report per-design/policy outcomes."""
    from repro.harness.crashpoints import (
        CrashSweepConfig,
        crash_point_sweep,
        format_sweep_table,
    )

    designs = _designs(args)
    if designs is None:
        return 2
    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    bad = [p for p in policies if p not in ("sharp", "fuzzy")]
    if bad:
        print(f"unknown checkpoint policies: {bad} (sharp|fuzzy)",
              file=sys.stderr)
        return 2
    cfg = CrashSweepConfig(
        designs=designs, policies=policies, points=args.points,
        seed=args.seed, duration=args.duration,
        checkpoint_interval=args.checkpoint_interval)
    result = crash_point_sweep(cfg)
    print(format_sweep_table(result))
    total = len(result.outcomes)
    failed = len(result.failures)
    print(f"{total} crash points, {failed} failed", file=sys.stderr)
    store = _open_recording_store(args)
    if store is not None:
        from repro.runstore.store import StoreError
        try:
            run_ids = store.record_chaos(result.outcomes, seed=args.seed)
            print(f"recorded {len(run_ids)} chaos run(s) into {store.path}",
                  file=sys.stderr)
        except StoreError as exc:
            print(f"runstore: {exc}; chaos sweep not recorded",
                  file=sys.stderr)
        finally:
            store.close()
    return 1 if failed else 0


def cmd_sweep(args) -> int:
    """Run a design x scale grid in parallel through the run cache."""
    import json
    from pathlib import Path

    from repro.harness.sweep import progress_printer, run_sweep, summarize

    designs = _designs(args)
    if designs is None:
        return 2
    try:
        scales = [int(s) for s in args.scales.split(",") if s.strip()]
    except ValueError:
        print(f"--scales must be comma-separated integers, "
              f"got {args.scales!r}", file=sys.stderr)
        return 2
    if not scales or not designs:
        print("sweep: need at least one scale and one design",
              file=sys.stderr)
        return 2

    kind = "tpch" if args.benchmark == "tpch" else "oltp"
    try:
        specs = [_spec(args, kind, design, scale=scale)
                 for scale in scales for design in designs]
    except ValueError as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return 2
    directory = Path(args.cache_dir) if args.cache_dir else None
    store = _open_recording_store(args)
    report = run_sweep(specs, workers=args.workers, directory=directory,
                       use_cache=not args.no_cache,
                       progress=progress_printer(), store=store)
    if store is not None:
        print(f"recorded {report.recorded}/{len(specs)} runs "
              f"into {store.path}", file=sys.stderr)
        store.close()
    rows = summarize(report)
    has_waf = any("waf" in row for row in rows)
    table = [[row["spec"]["benchmark"], str(row["spec"]["scale"]),
              row["spec"]["design"], row["metric"], f"{row['value']:,.1f}"]
             + ([f"{row['waf']:.3f}" if "waf" in row else "-"]
                if has_waf else [])
             for row in rows]
    print(format_table(
        f"sweep — {len(rows)} runs, {report.cached} cached, "
        f"{report.computed} computed in {report.elapsed:.1f}s "
        f"(workers={args.workers})",
        ["benchmark", "scale", "design", "metric", "value"]
        + (["waf"] if has_waf else []), table))
    if args.output:
        with open(args.output, "w") as fh:
            json.dump({"runs": rows}, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote sweep summary to {args.output}", file=sys.stderr)
    return 0


def cmd_tpch(args) -> int:
    """Run the TPC-H power + throughput tests across designs."""
    runs = _runs(args, "tpch", benchmark="tpch", scale=args.sf)
    if runs is None:
        return 2
    rows = [[spec.design, f"{result.power:,.0f}",
             f"{result.throughput:,.0f}", f"{result.qphh:,.0f}"]
            for spec, result in runs]
    print(format_table(f"TPC-H @{args.sf} SF (profile={args.profile})",
                       ["design", "QppH", "QthH", "QphH"], rows))
    return 0


def cmd_analyze(args) -> int:
    """Attribute tail latency from one or more trace files."""
    from repro.telemetry.analysis import (
        analyze_traces,
        format_attribution_table,
        format_faults_table,
        format_ftl_table,
        format_interference_table,
        format_tenant_table,
    )

    missing = [path for path in args.traces if not os.path.exists(path)]
    if missing:
        print(f"analyze: no such trace file: {', '.join(missing)}",
              file=sys.stderr)
        return 2
    try:
        quantiles = [float(q) for q in args.tail.split(",") if q.strip()]
    except ValueError:
        quantiles = []
    # Checked before any trace is read: nan fails both comparisons.
    if not quantiles or not all(0 <= q <= 100 for q in quantiles):
        print(f"analyze: --tail must be comma-separated percentiles in "
              f"[0, 100], got {args.tail!r}", file=sys.stderr)
        return 2
    try:
        analyses = analyze_traces(args.traces)
    except ValueError as exc:
        print(f"analyze: {exc}", file=sys.stderr)
        return 2
    for analysis in analyses:
        if not analysis.txns:
            print(f"analyze: {analysis.path}: no transaction spans — was "
                  f"the run traced with this version?", file=sys.stderr)
            return 2
    if args.txn_type is not None:
        types = list(dict.fromkeys(name for analysis in analyses
                                   for name in analysis.txn_types()))
        if args.txn_type not in types:
            print(f"analyze: --txn-type {args.txn_type!r} is in none of the "
                  f"traces; they hold {', '.join(types)}", file=sys.stderr)
            return 2
    for analysis in analyses:
        if analysis.truncated:
            print(f"warning: {analysis.path}: trace truncated, "
                  f"{analysis.dropped} events dropped past the cap — "
                  f"attribution undercounts late waits", file=sys.stderr)
        if analysis.orphan_events:
            print(f"note: {analysis.path}: {analysis.orphan_events} waits "
                  f"belong to transactions cut off before commit",
                  file=sys.stderr)

    print(format_attribution_table(analyses, quantiles=quantiles,
                                   txn_type=args.txn_type))
    if any(a.tenants() for a in analyses):
        print()
        print(format_tenant_table(analyses))
    if any(a.background_io for a in analyses):
        print()
        print(format_interference_table(analyses))
    if any(a.faults for a in analyses):
        print()
        print(format_faults_table(analyses))
    if any(a.ftl for a in analyses):
        print()
        print(format_ftl_table(analyses))

    if args.html:
        from repro.telemetry.htmlreport import write_report
        write_report(args.html, analyses, args.workload,
                     quantiles=quantiles)
        print(f"wrote HTML report to {args.html}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the ``repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SSD buffer-pool extension reproduction (SIGMOD 2011)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_iometer = sub.add_parser("iometer", help="regenerate Table 1")
    p_iometer.add_argument("--duration", type=_seconds, default=5.0)
    p_iometer.set_defaults(func=cmd_iometer)

    p_designs = sub.add_parser("designs", help="list available designs")
    p_designs.set_defaults(func=cmd_designs)

    p_oltp = sub.add_parser("oltp", help="run a TPC-C/E-like experiment")
    _add_spec_flags(p_oltp, benchmark="tpcc", scale=1_000, duration=30.0,
                    nworkers=16, dirty_threshold=None,
                    checkpoint_interval=None, ftl=False, kernel="heap",
                    partitions=None, latch_us=0.0)
    p_oltp.add_argument("--faults", default=None, metavar="PLAN",
                        help="fault plan, e.g. "
                             "'ssd_die@t=30,transient:p=0.001' "
                             "(see repro.faults.plan for the grammar)")
    _add_common(p_oltp)
    _add_db_flags(p_oltp)
    p_oltp.set_defaults(func=cmd_oltp)

    p_traffic = sub.add_parser(
        "traffic", help="open-loop multi-tenant run (arrival-rate driven)")
    # latch_us=20 keeps contention visible, so --partitions moves
    # per-tenant p99; one tenant of 1M logical users by default.
    _add_spec_flags(p_traffic, benchmark="tpcc", scale=1_000, duration=30.0,
                    tenants="all=poisson:users=1000000:think=100",
                    nworkers=64, queue_limit=10_000, partitions=None,
                    latch_us=20.0, dirty_threshold=None,
                    checkpoint_interval=None, ftl=False, kernel="wheel",
                    seed=20110612)
    _add_common(p_traffic)
    _add_db_flags(p_traffic)
    p_traffic.set_defaults(func=cmd_traffic)

    p_chaos = sub.add_parser(
        "chaos", help="crash-point sweep: crash, recover, verify")
    p_chaos.add_argument("--points", type=_count, default=5,
                         help="crash points per design x policy (default 5)")
    _add_designs(p_chaos, default="CW,DW,LC,TAC,LS,ROT,EXCL")
    p_chaos.add_argument("--policies", default="sharp,fuzzy",
                         help="comma-separated checkpoint policies")
    p_chaos.add_argument("--seed", type=int, default=20110612)
    p_chaos.add_argument("--duration", type=_seconds, default=8.0,
                         help="crash-window length in virtual seconds")
    p_chaos.add_argument("--checkpoint-interval", type=_seconds,
                         default=1.0)
    _add_db_flags(p_chaos)
    p_chaos.set_defaults(func=cmd_chaos)

    p_sweep = sub.add_parser(
        "sweep", help="run a design x scale grid in parallel, cached")
    _add_spec_flags(p_sweep, {"nworkers": "--workers-per-run"},
                    benchmark="tpcc", profile="small", duration=30.0,
                    nworkers=16, dirty_threshold=None,
                    checkpoint_interval=None, ftl=False, seed=20110612)
    p_sweep.add_argument("--scales", default="1000",
                         help="comma-separated scales (warehouses, "
                              "customers/1000, or SF)")
    _add_designs(p_sweep)
    p_sweep.add_argument("--workers", type=_count, default=1,
                         help="worker processes (runs in-process when 1)")
    p_sweep.add_argument("--cache-dir", default=None,
                         help="run-cache directory (default .repro-cache, "
                              "or $REPRO_CACHE_DIR)")
    p_sweep.add_argument("--no-cache", action="store_true",
                         help="always recompute; do not read or write the "
                              "cache")
    p_sweep.add_argument("--output", metavar="FILE", default=None,
                         help="write the merged metric table as JSON")
    _add_db_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_tpch = sub.add_parser("tpch", help="run TPC-H power+throughput tests")
    p_tpch.add_argument("--sf", type=int, choices=(30, 100), default=30)
    _add_common(p_tpch)
    _add_db_flags(p_tpch)
    p_tpch.set_defaults(func=cmd_tpch)

    p_analyze = sub.add_parser(
        "analyze", help="attribute tail latency from --trace output")
    p_analyze.add_argument("traces", nargs="+", metavar="TRACE",
                           help="trace files from --trace (JSONL or Chrome "
                                "JSON; one per design)")
    p_analyze.add_argument("--tail", default="50,95,99",
                           help="comma-separated percentiles to decompose "
                                "(default: 50,95,99)")
    p_analyze.add_argument("--txn-type", default=None,
                           help="restrict attribution to one transaction "
                                "type (e.g. new_order)")
    p_analyze.add_argument("--html", metavar="FILE", default=None,
                           help="write a self-contained HTML report")
    p_analyze.add_argument("--workload", default="oltp",
                           help="workload label for the reports "
                                "(default: oltp)")
    p_analyze.set_defaults(func=cmd_analyze)

    from repro.runstore.cli import (add_runs_arguments, add_serve_arguments,
                                    cmd_runs, cmd_serve)
    p_runs = sub.add_parser(
        "runs", help="query the run database (list/show/compare/regress)")
    add_runs_arguments(p_runs)
    p_runs.set_defaults(func=cmd_runs)

    p_serve = sub.add_parser(
        "serve", help="HTML dashboard + JSON API over the run database")
    add_serve_arguments(p_serve)
    p_serve.set_defaults(func=cmd_serve)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
