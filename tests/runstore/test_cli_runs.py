"""The ``repro runs`` / ``repro serve`` CLI surface, end to end."""

import json

import pytest

from repro.cli import build_parser, main
from repro.runstore.provenance import Provenance
from repro.runstore.store import RunStore, db_path


def populate(n_per_design=1, designs=("noSSD", "LC"), p99=0.01):
    """Record straight into the test's isolated default database (the
    autouse conftest fixture points REPRO_RUNSTORE at tmp_path)."""
    with RunStore(db_path()) as store:
        for design in designs:
            for i in range(n_per_design):
                store.record_run(
                    {"kind": "oltp", "benchmark": "tpcc", "scale": 100,
                     "design": design, "profile": "small", "seed": 7},
                    {"value": 100.0 + i, "latency_p99": p99, "waf": 1.3},
                    provenance=Provenance(git_commit="deadbeef00",
                                          git_branch="main",
                                          git_dirty=False),
                    metric_name="tpmC")


class TestParser:
    def test_runs_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["runs"])

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 8642
        assert args.host == "127.0.0.1"

    @pytest.mark.parametrize("argv, flag", [
        (["runs", "list", "--limit", "-1"], "--limit"),
        (["runs", "list", "--limit", "0"], "--limit"),
        (["serve", "--port", "70000"], "--port"),
        (["serve", "--port", "-1"], "--port"),
    ])
    def test_out_of_range_values_exit_2_naming_the_flag(self, capsys, argv,
                                                        flag):
        """``--limit -1`` listed every row; ``--port 70000`` ended in an
        ``OverflowError`` traceback."""
        populate()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {flag}: must be" in capsys.readouterr().err

    def test_recording_flags_everywhere(self):
        for command in ("oltp", "tpch", "sweep", "chaos"):
            args = build_parser().parse_args(
                [command, "--no-db", "--db", "x.db"])
            assert args.no_db is True
            assert args.db == "x.db"


class TestQueries:
    def test_missing_db_exits_2(self, capsys):
        assert main(["runs", "list"]) == 2
        assert "no run database" in capsys.readouterr().err

    def test_list(self, capsys):
        populate()
        assert main(["runs", "list"]) == 0
        out = capsys.readouterr().out
        assert "tpcc/100/LC" in out
        assert "deadbeef00"[:10] in out

    def test_list_design_filter(self, capsys):
        populate()
        assert main(["runs", "list", "--design", "LC"]) == 0
        out = capsys.readouterr().out
        assert "tpcc/100/LC" in out
        assert "tpcc/100/noSSD" not in out

    def test_show(self, capsys):
        populate()
        assert main(["runs", "show", "1"]) == 0
        out = capsys.readouterr().out
        assert "run #1" in out
        assert "latency_p99" in out
        assert "branch main" in out

    def test_show_unknown_run(self, capsys):
        populate()
        assert main(["runs", "show", "999"]) == 2

    def test_compare(self, capsys):
        populate(n_per_design=2)
        assert main(["runs", "compare"]) == 0
        out = capsys.readouterr().out
        assert "newest run per design" in out
        assert "LC" in out and "noSSD" in out
        assert "101.0" in out  # the newest run's value, not the oldest

    def test_compare_design_order(self, capsys):
        populate()
        assert main(["runs", "compare", "--designs", "LC,noSSD"]) == 0
        out = capsys.readouterr().out
        assert out.index(" LC ") < out.index("noSSD")

    def test_compare_missing_design(self, capsys):
        populate()
        assert main(["runs", "compare", "--designs", "LS"]) == 2
        assert "no recorded runs" in capsys.readouterr().err

    def test_regress_ok_on_fresh_history(self, capsys):
        populate()
        assert main(["runs", "regress"]) == 0
        assert "regress OK" in capsys.readouterr().out

    def test_regress_detects_and_exits_1(self, capsys):
        populate(n_per_design=4)
        with RunStore(db_path()) as store:
            store.record_run(
                {"kind": "oltp", "benchmark": "tpcc", "scale": 100,
                 "design": "LC", "profile": "small", "seed": 7},
                {"value": 100.0, "latency_p99": 0.5},
                provenance=Provenance(git_commit="deadbeef00"))
        assert main(["runs", "regress"]) == 1
        out = capsys.readouterr().out
        assert "REGRESSIONS" in out
        assert "latency_p99" in out

    @pytest.mark.parametrize("flag, value", [
        ("--baseline", "-1"), ("--baseline", "0"),
        ("--tolerance", "nan"), ("--tolerance", "-0.5")])
    def test_regress_refuses_a_gate_that_cannot_fail(self, capsys, flag,
                                                      value):
        populate()
        assert main(["runs", "regress", flag, value]) == 2
        captured = capsys.readouterr()
        assert f"runs regress: {flag} must be" in captured.err
        assert "regress OK" not in captured.out

    def test_regress_no_matches_exits_2(self, capsys):
        populate()
        assert main(["runs", "regress", "--design", "LS"]) == 2


class TestRecordingCommands:
    def test_oltp_records_by_default(self, capsys):
        code = main(["oltp", "--scale", "50", "--profile", "tiny",
                     "--duration", "2", "--workers", "4",
                     "--designs", "noSSD"])
        assert code == 0
        with RunStore(db_path()) as store:
            runs = store.list_runs()
            assert len(runs) == 1
            assert runs[0]["design"] == "noSSD"
            assert runs[0]["kind"] == "oltp"
            metrics = store.metrics_for(runs[0]["id"])
            assert metrics["value"] > 0

    def test_chaos_records_outcomes(self, capsys):
        code = main(["chaos", "--points", "1", "--designs", "DW",
                     "--policies", "sharp", "--duration", "3"])
        assert code == 0
        with RunStore(db_path()) as store:
            runs = store.list_runs(kind="chaos")
            assert len(runs) == 1
            assert store.chaos_for(runs[0]["id"])

    def test_fault_plans_form_their_own_regress_groups(self, capsys):
        """One spec under two fault plans is two groups: a transient-error
        run is never compared with an SSD-death baseline (the recorded
        spec said only ``"faulted": true``, so they were one group)."""
        plans = ("transient:p=0.01:device=disk", "ssd_die@t=1")
        for plan in plans:
            assert main(["oltp", "--scale", "50", "--profile", "tiny",
                         "--duration", "2", "--workers", "4",
                         "--designs", "LC", "--faults", plan]) == 0
        with RunStore(db_path()) as store:
            assert store.regress()[1] == 2
            recorded = [json.loads(run["spec_json"])["faults"]
                        for run in store.list_runs()]
        assert recorded == list(reversed(plans))

    def test_serve_missing_db_exits_2(self, capsys):
        assert main(["serve"]) == 2
        assert "no run database" in capsys.readouterr().err
