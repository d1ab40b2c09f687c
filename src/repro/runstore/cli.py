"""CLI for the run store: ``repro runs ...`` and ``repro serve``.

``repro runs`` queries the database every harness command records into:

* ``list``    — recent runs (design/benchmark/scale/commit filters);
* ``show``    — one run: spec, provenance, every metric;
* ``compare`` — newest run per design side by side (tpmC, tail
  latency, SSD hit rate, WAF, wear);
* ``regress`` — p99 + WAF + throughput regression check of each
  recorded spec against its own last-N baseline (CI's gate; exit 1 on
  findings).

``repro serve`` starts the HTML dashboard + JSON API
(:mod:`repro.runstore.dashboard`).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, Optional

from repro.harness.report import format_table
from repro.runstore.store import (DEFAULT_DB, RunStore, StoreError,
                                  db_path)


def add_db_argument(parser: argparse.ArgumentParser) -> None:
    """The shared ``--db`` flag (recording and querying commands)."""
    parser.add_argument("--db", metavar="FILE", default=None,
                        help=f"run database (default: $REPRO_RUNSTORE "
                             f"or {DEFAULT_DB})")


def open_for_query(args: argparse.Namespace) -> RunStore:
    """Open the store for a query command; raises SystemExit(2) with a
    readable message when the database is missing or unusable."""
    path = db_path(args.db)
    if not path.exists():
        print(f"runs: no run database at {path} — record some runs "
              f"first (repro sweep / oltp / chaos)", file=sys.stderr)
        raise SystemExit(2)
    try:
        return RunStore(path)
    except StoreError as exc:
        print(f"runs: {exc}", file=sys.stderr)
        raise SystemExit(2) from exc


def _common_filters(args: argparse.Namespace) -> Dict[str, Any]:
    filters: Dict[str, Any] = {}
    if getattr(args, "benchmark", None):
        filters["benchmark"] = args.benchmark
    if getattr(args, "design", None):
        filters["design"] = args.design
    if getattr(args, "scale", None) is not None:
        filters["scale"] = args.scale
    if getattr(args, "commit", None):
        filters["commit"] = args.commit
    if getattr(args, "profile", None):
        filters["profile"] = args.profile
    return filters


def _fmt(value: Optional[float], fmt: str = "{:,.2f}") -> str:
    return fmt.format(value) if value is not None else "-"


def _short(commit: Optional[str], dirty: Optional[int] = 0) -> str:
    if not commit:
        return "-"
    return commit[:10] + ("*" if dirty else "")


def cmd_runs_list(args: argparse.Namespace) -> int:
    with open_for_query(args) as store:
        runs = store.list_runs(limit=args.limit, **_common_filters(args))
        rows = []
        for run in runs:
            metrics = store.metrics_for(run["id"])
            rows.append([
                f"#{run['id']}", run["kind"],
                f"{run['benchmark']}/{run['scale']}/{run['design']}",
                run["profile"],
                _short(run["git_commit"], run["git_dirty"]),
                run["status"],
                _fmt(metrics.get("value"), "{:,.1f}"),
                _fmt(metrics.get("latency_p99"), "{:.3f}"),
                _fmt(metrics.get("waf"), "{:.3f}"),
            ])
    print(format_table(
        f"runs — {len(rows)} shown (newest first)",
        ["run", "kind", "grid cell", "profile", "commit", "status",
         "value", "p99 (s)", "waf"], rows))
    return 0


def cmd_runs_show(args: argparse.Namespace) -> int:
    with open_for_query(args) as store:
        found = store.get_run(args.run_id)
        if found is None:
            print(f"runs: no run #{args.run_id}", file=sys.stderr)
            return 2
        run, metrics = found
        chaos = (store.chaos_for(args.run_id)
                 if run["kind"] == "chaos" else [])
    spec = json.loads(run["spec_json"])
    print(f"run #{run['id']} — {run['kind']} "
          f"{run['benchmark']}/{run['scale']}/{run['design']} "
          f"(profile {run['profile']}, status {run['status']})")
    print(f"  commit {_short(run['git_commit'], run['git_dirty'])} "
          f"branch {run['git_branch'] or '-'} "
          f"source {run['source_hash'] or '-'}")
    print(f"  host {run['host'] or '-'} python {run['python'] or '-'} "
          f"seed {run['seed']}")
    print(f"  spec {json.dumps(spec, sort_keys=True)}")
    rows = [[name, f"{value:,.6g}"] for name, value in sorted(metrics.items())]
    print(format_table("metrics", ["name", "value"], rows))
    if chaos:
        crash_rows = [[f"{o['crash_at']:.3f}", o["policy"],
                       "ok" if o["ok"] else "FAIL",
                       str(o["pages_redone"]), o["error"] or "-"]
                      for o in chaos]
        print(format_table("crash points",
                           ["t", "policy", "verdict", "redone", "error"],
                           crash_rows))
    return 0


#: The compare table's metric columns (name, header, format).
COMPARE_METRICS = (
    ("value", "value", "{:,.1f}"),
    ("latency_p50", "p50 (s)", "{:.3f}"),
    ("latency_p99", "p99 (s)", "{:.3f}"),
    ("ssd_hit_rate", "SSD hit", "{:.1%}"),
    ("waf", "waf", "{:.3f}"),
    ("wear_spread", "wear", "{:,.0f}"),
)


def cmd_runs_compare(args: argparse.Namespace) -> int:
    filters = _common_filters(args)
    with open_for_query(args) as store:
        latest = store.latest_per_design(**filters)
        if args.designs:
            wanted = [d.strip() for d in args.designs.split(",")
                      if d.strip()]
            by_design = {run["design"]: (run, metrics)
                         for run, metrics in latest}
            missing = [d for d in wanted if d not in by_design]
            if missing:
                print(f"runs compare: no recorded runs for designs: "
                      f"{', '.join(missing)}", file=sys.stderr)
                return 2
            latest = [by_design[d] for d in wanted]
    if not latest:
        print("runs compare: no runs match the filters", file=sys.stderr)
        return 2
    rows = []
    for run, metrics in latest:
        rows.append(
            [run["design"], f"#{run['id']}",
             _short(run["git_commit"], run["git_dirty"])]
            + [_fmt(metrics.get(name), fmt)
               for name, _, fmt in COMPARE_METRICS])
    label = " ".join(f"{key}={value}" for key, value in filters.items())
    print(format_table(
        f"compare — newest run per design ({label or 'all runs'})",
        ["design", "run", "commit"]
        + [header for _, header, _ in COMPARE_METRICS], rows))
    return 0


def cmd_runs_regress(args: argparse.Namespace) -> int:
    with open_for_query(args) as store:
        findings, groups = store.regress(
            baseline_n=args.baseline, tolerance=args.tolerance,
            **_common_filters(args))
    if not groups:
        print("runs regress: no recorded runs match the filters",
              file=sys.stderr)
        return 2
    if not findings:
        print(f"regress OK: {groups} grid cells within "
              f"{args.tolerance:.0%} of their last-{args.baseline} "
              f"baseline")
        return 0
    rows = [[f.group_label, f.profile, f.metric,
             f"{f.latest:,.4g}", f"{f.baseline:,.4g}", f"{f.ratio:.2f}x"]
            for f in findings]
    print(format_table(
        f"REGRESSIONS — {len(findings)} finding(s) across {groups} cells",
        ["grid cell", "profile", "metric", "latest", "baseline", "ratio"],
        rows))
    return 1


def cmd_runs(args: argparse.Namespace) -> int:
    try:
        return int(args.runs_func(args))
    except SystemExit as exc:
        # open_for_query already printed the reason; surface its exit
        # code instead of unwinding through main().
        return int(exc.code or 0)


def add_runs_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the ``repro runs`` subcommand tree."""
    add_db_argument(parser)
    sub = parser.add_subparsers(dest="runs_command", required=True)

    def _filters(p: argparse.ArgumentParser) -> None:
        p.add_argument("--benchmark", default=None)
        p.add_argument("--design", default=None)
        p.add_argument("--scale", type=int, default=None)
        p.add_argument("--profile", default=None)
        p.add_argument("--commit", default=None,
                       help="git commit (abbreviations accepted)")

    p_list = sub.add_parser("list", help="recent runs, newest first")
    _filters(p_list)
    p_list.add_argument("--limit", type=int, default=30)
    p_list.set_defaults(runs_func=cmd_runs_list)

    p_show = sub.add_parser("show", help="one run in full")
    p_show.add_argument("run_id", type=int)
    p_show.set_defaults(runs_func=cmd_runs_show)

    p_compare = sub.add_parser(
        "compare", help="newest run per design, side by side")
    _filters(p_compare)
    p_compare.add_argument("--designs", default=None,
                           help="comma-separated designs, in order "
                                "(default: all recorded)")
    p_compare.set_defaults(runs_func=cmd_runs_compare)

    p_regress = sub.add_parser(
        "regress", help="check p99/WAF/throughput against the last-N "
                        "baseline (exit 1 on regressions)")
    _filters(p_regress)
    p_regress.add_argument("--baseline", type=int, default=5,
                           help="baseline window per grid cell "
                                "(default 5)")
    p_regress.add_argument("--tolerance", type=float, default=0.25,
                           help="fractional tolerance before a change "
                                "is a regression (default 0.25)")
    p_regress.set_defaults(runs_func=cmd_runs_regress)


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.runstore.dashboard import make_server

    path = db_path(args.db)
    if not path.exists():
        print(f"serve: no run database at {path} — record some runs "
              f"first (repro sweep / oltp / chaos)", file=sys.stderr)
        return 2
    try:
        server = make_server(str(path), host=args.host, port=args.port,
                             verbose=not args.quiet)
    except StoreError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    host, port = server.server_address[:2]
    print(f"serving {path} on http://{host}:{port}/ (Ctrl-C to stop)",
          file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("stopped", file=sys.stderr)
    finally:
        server.server_close()
    return 0


def add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the ``repro serve`` flags."""
    add_db_argument(parser)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8642)
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-request log lines")
