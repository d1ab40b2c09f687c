"""Tests for the command-line interface."""

import argparse
import dataclasses
import json

import pytest

from repro.cli import DESIGN_SUMMARIES, build_parser, main
from repro.core import DESIGNS
from repro.harness.experiments import RunSpec

#: Every subcommand's option strings and defaults, captured at the
#: parent of the RunSpec-derived flags (minus the deleted ``runs
#: record-bench``): generating the flags from the dataclass must add,
#: drop and re-default nothing.
OPTIONS = {'': {},
 'analyze': {'--html': None,
             '--tail': '50,95,99',
             '--txn-type': None,
             '--workload': 'oltp'},
 'chaos': {'--checkpoint-interval': 1.0,
           '--db': None,
           '--designs': 'CW,DW,LC,TAC,LS,ROT,EXCL',
           '--duration': 8.0,
           '--no-db': False,
           '--points': 5,
           '--policies': 'sharp,fuzzy',
           '--seed': 20110612},
 'designs': {},
 'iometer': {'--duration': 5.0},
 'lint': {'--format': 'text',
          '--ignore': None,
          '--list-rules': False,
          '--select': None},
 'oltp': {'--benchmark': 'tpcc',
          '--checkpoint-interval': None,
          '--db': None,
          '--designs': 'noSSD,DW,LC,TAC',
          '--dirty-threshold': None,
          '--duration': 30.0,
          '--faults': None,
          '--ftl': False,
          '--kernel': 'heap',
          '--latch-us': 0.0,
          '--metrics': False,
          '--no-db': False,
          '--partitions': None,
          '--profile': 'small',
          '--scale': 1000,
          '--trace': None,
          '--workers': 16},
 'runs': {'--db': None},
 'runs compare': {'--benchmark': None,
                  '--commit': None,
                  '--design': None,
                  '--designs': None,
                  '--profile': None,
                  '--scale': None},
 'runs list': {'--benchmark': None,
               '--commit': None,
               '--design': None,
               '--limit': 30,
               '--profile': None,
               '--scale': None},
 'runs regress': {'--baseline': 5,
                  '--benchmark': None,
                  '--commit': None,
                  '--design': None,
                  '--profile': None,
                  '--scale': None,
                  '--tolerance': 0.25},
 'runs show': {},
 'serve': {'--db': None,
           '--host': '127.0.0.1',
           '--port': 8642,
           '--quiet': False},
 'sweep': {'--benchmark': 'tpcc',
           '--cache-dir': None,
           '--checkpoint-interval': None,
           '--db': None,
           '--designs': 'noSSD,DW,LC,TAC',
           '--dirty-threshold': None,
           '--duration': 30.0,
           '--ftl': False,
           '--no-cache': False,
           '--no-db': False,
           '--output': None,
           '--profile': 'small',
           '--scales': '1000',
           '--seed': 20110612,
           '--workers': 1,
           '--workers-per-run': 16},
 'tpch': {'--db': None,
          '--designs': 'noSSD,DW,LC,TAC',
          '--metrics': False,
          '--no-db': False,
          '--profile': 'small',
          '--sf': 30,
          '--trace': None},
 'traffic': {'--benchmark': 'tpcc',
             '--checkpoint-interval': None,
             '--db': None,
             '--designs': 'noSSD,DW,LC,TAC',
             '--dirty-threshold': None,
             '--duration': 30.0,
             '--ftl': False,
             '--kernel': 'wheel',
             '--latch-us': 20.0,
             '--metrics': False,
             '--no-db': False,
             '--partitions': None,
             '--profile': 'small',
             '--queue-limit': 10000,
             '--scale': 1000,
             '--seed': 20110612,
             '--tenants': 'all=poisson:users=1000000:think=100',
             '--trace': None,
             '--workers': 64}}


def subcommand_actions(parser=None, prefix=()):
    """{"sub command": [argparse actions]} over the whole parser tree."""
    parser = parser or build_parser()
    found = {" ".join(prefix): [
        a for a in parser._actions
        if a.option_strings and not isinstance(a, argparse._HelpAction)]}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                found.update(subcommand_actions(sub, prefix + (name,)))
    return found


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_oltp_defaults(self):
        args = build_parser().parse_args(["oltp"])
        assert args.benchmark == "tpcc"
        assert args.scale == 1_000

    def test_tpch_sf_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tpch", "--sf", "300"])

    def test_option_strings_and_defaults_are_unchanged(self):
        assert {
            command: {" ".join(a.option_strings): a.default for a in actions}
            for command, actions in subcommand_actions().items()
        } == OPTIONS

    def test_every_spec_field_is_a_flag_somewhere(self):
        """A RunSpec knob nobody can set from the CLI is either a grid
        axis (``--designs``/``--scales`` fan one spec per value), chosen
        by the subcommand itself (``kind``), or deliberately API-only."""
        dests = {a.dest for actions in subcommand_actions().values()
                 for a in actions}
        unflagged = {f.name for f in dataclasses.fields(RunSpec)
                     if f.name not in dests and f.name + "s" not in dests}
        assert unflagged == {"kind", "bucket_seconds", "expand_reads"}


class TestCommands:
    def test_designs_lists_all(self, capsys):
        assert main(["designs"]) == 0
        out = capsys.readouterr().out
        for name in DESIGNS:
            assert name in out

    def test_summaries_cover_registry(self):
        assert set(DESIGN_SUMMARIES) == set(DESIGNS)

    def test_iometer_prints_table(self, capsys):
        assert main(["iometer", "--duration", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "hdd_random_read" in out

    def test_oltp_runs_and_reports(self, capsys):
        code = main(["oltp", "--benchmark", "tpcc", "--scale", "100",
                     "--profile", "tiny", "--duration", "4",
                     "--designs", "noSSD,DW"])
        assert code == 0
        out = capsys.readouterr().out
        assert "tpmC" in out
        assert "DW" in out

    @pytest.mark.parametrize("command", [
        "oltp", "traffic", "tpch", "chaos", "sweep"])
    def test_unknown_design_exits_2(self, command, capsys):
        assert main([command, "--designs", "LC,WARP", "--no-db"]) == 2
        assert "unknown designs: ['WARP']" in capsys.readouterr().err

    def test_oltp_rejects_unknown_design(self, capsys):
        assert main(["oltp", "--designs", "WARP"]) == 2

    def test_spec_errors_exit_2_before_running(self, capsys):
        assert main(["oltp", "--benchmark", "tpch", "--no-db"]) == 2
        assert "cannot drive" in capsys.readouterr().err
        assert main(["traffic", "--tenants", "x=teleport:rate=1",
                     "--no-db"]) == 2
        assert "tenants" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, knob", [
        (["oltp", "--scale", "20", "--latch-us", "nan"], "latch_us"),
        (["sweep", "--scales", "20", "--workers-per-run", "0",
          "--no-cache"], "nworkers"),
    ])
    def test_bad_knob_exits_2_before_the_first_run(self, argv, knob,
                                                   capsys):
        assert main([*argv, "--profile", "tiny", "--duration", "1",
                     "--designs", "LC", "--no-db"]) == 2
        err = capsys.readouterr().err
        assert knob in err and "ran LC" not in err

    def test_tpch_runs(self, capsys):
        code = main(["tpch", "--sf", "30", "--profile", "tiny",
                     "--designs", "noSSD"])
        assert code == 0
        assert "QphH" in capsys.readouterr().out


class TestTelemetryFlags:
    def test_trace_writes_chrome_file(self, capsys, tmp_path):
        trace = tmp_path / "out.json"
        code = main(["oltp", "--benchmark", "tpcc", "--scale", "100",
                     "--profile", "tiny", "--duration", "4",
                     "--designs", "LC", "--trace", str(trace)])
        assert code == 0
        doc = json.loads(trace.read_text())
        assert doc["traceEvents"]
        cats = {event.get("cat") for event in doc["traceEvents"]}
        assert "io" in cats
        assert "wrote" in capsys.readouterr().err

    def test_trace_multiple_designs_one_file_each(self, capsys, tmp_path):
        trace = tmp_path / "out.json"
        code = main(["oltp", "--benchmark", "tpcc", "--scale", "100",
                     "--profile", "tiny", "--duration", "3",
                     "--designs", "noSSD,LC", "--trace", str(trace)])
        assert code == 0
        for design in ("noSSD", "LC"):
            per_design = tmp_path / f"out-{design}.json"
            assert json.loads(per_design.read_text())["traceEvents"]

    def test_metrics_prints_registry(self, capsys):
        code = main(["oltp", "--benchmark", "tpcc", "--scale", "100",
                     "--profile", "tiny", "--duration", "3",
                     "--designs", "LC", "--metrics"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Metrics — LC" in out
        assert "bp_requests_total" in out
        assert "txn_latency_seconds" in out

    def test_trace_bad_directory_fails_fast(self, capsys):
        code = main(["oltp", "--designs", "LC",
                     "--trace", "/no/such/dir/out.json"])
        assert code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_no_flags_no_telemetry_output(self, capsys):
        code = main(["oltp", "--benchmark", "tpcc", "--scale", "100",
                     "--profile", "tiny", "--duration", "3",
                     "--designs", "LC"])
        assert code == 0
        captured = capsys.readouterr()
        assert "Metrics" not in captured.out
        assert "trace events" not in captured.err

    def test_trace_jsonl_extension_selects_jsonl(self, capsys, tmp_path):
        trace = tmp_path / "out.jsonl"
        code = main(["oltp", "--benchmark", "tpcc", "--scale", "100",
                     "--profile", "tiny", "--duration", "3",
                     "--designs", "LC", "--trace", str(trace)])
        assert code == 0
        first = trace.read_text().splitlines()[0]
        event = json.loads(first)
        assert "track" in event  # JSONL line shape, not Chrome JSON


@pytest.fixture(scope="module")
def traced_pair(tmp_path_factory):
    """Two per-design JSONL traces from one short CW-vs-LC run."""
    trace = tmp_path_factory.mktemp("traces") / "run.jsonl"
    code = main(["oltp", "--benchmark", "tpcc", "--scale", "100",
                 "--profile", "tiny", "--duration", "4", "--workers", "4",
                 "--designs", "CW,LC", "--trace", str(trace)])
    assert code == 0
    return [str(trace.parent / f"run-{d}.jsonl") for d in ("CW", "LC")]


class TestAnalyzeCommand:
    def test_prints_attribution_table(self, traced_pair, capsys):
        assert main(["analyze"] + traced_pair) == 0
        out = capsys.readouterr().out
        assert "Tail-latency attribution" in out
        for token in ("CW", "LC", "p50", "p95", "p99", "coverage"):
            assert token in out

    def test_writes_html_report(self, traced_pair, capsys, tmp_path):
        report = tmp_path / "report.html"
        assert main(["analyze", *traced_pair, "--html", str(report)]) == 0
        text = report.read_text()
        assert text.startswith("<!doctype html>")
        assert text.count("<svg") >= 3

    def test_txn_type_filter(self, traced_pair, capsys):
        assert main(["analyze", traced_pair[0],
                     "--txn-type", "new_order"]) == 0
        assert "new_order" in capsys.readouterr().out

    def test_missing_trace_fails_fast(self, capsys):
        assert main(["analyze", "/no/such/trace.jsonl"]) == 2
        assert "no such trace" in capsys.readouterr().err

    def test_bad_tail_rejected(self, traced_pair, capsys):
        assert main(["analyze", traced_pair[0], "--tail", "p99"]) == 2
        assert "--tail" in capsys.readouterr().err

    def test_garbage_trace_rejected(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not a trace\n")
        assert main(["analyze", str(bad)]) == 2
        assert "analyze:" in capsys.readouterr().err


class TestSweepCommand:
    def test_sweep_runs_grid_and_writes_output(self, capsys, tmp_path):
        out = tmp_path / "sweep.json"
        code = main(["sweep", "--benchmark", "tpcc", "--scales", "10,20",
                     "--designs", "noSSD,LC", "--profile", "tiny",
                     "--duration", "2", "--workers-per-run", "2",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--output", str(out)])
        assert code == 0
        captured = capsys.readouterr()
        assert "4 runs" in captured.out
        assert "0 cached, 4 computed" in captured.out
        import json as _json
        doc = _json.loads(out.read_text())
        assert len(doc["runs"]) == 4
        assert all(row["value"] > 0 for row in doc["runs"])
        # Second invocation: all four cells come from the cache.
        code = main(["sweep", "--benchmark", "tpcc", "--scales", "10,20",
                     "--designs", "noSSD,LC", "--profile", "tiny",
                     "--duration", "2", "--workers-per-run", "2",
                     "--cache-dir", str(tmp_path / "cache")])
        assert code == 0
        assert "4 cached, 0 computed" in capsys.readouterr().out

    def test_sweep_rejects_unknown_design(self, capsys):
        assert main(["sweep", "--designs", "WARP"]) == 2

    def test_sweep_rejects_bad_scales(self, capsys):
        assert main(["sweep", "--scales", "ten"]) == 2

    def test_sweep_no_cache_always_computes(self, capsys, tmp_path):
        args = ["sweep", "--benchmark", "tpcc", "--scales", "10",
                "--designs", "noSSD", "--profile", "tiny",
                "--duration", "2", "--workers-per-run", "2", "--no-cache",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(args) == 0
        assert main(args) == 0
        assert "0 cached, 1 computed" in capsys.readouterr().out
        assert not (tmp_path / "cache").exists()
