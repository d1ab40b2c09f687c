"""Self-check of the benchmark itself, at ``--smoke`` sizes.

    python -m pytest perf/tests -q

Not part of the tier-1 suite (``testpaths`` is ``tests``): these tests
guard the ruler, not the product.
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(PERF))

import cells  # noqa: E402
import compare  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from layermap import LAYERS, ROOT, SRC, repro_layer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert [w["name"] for w in SPEC["workloads"]] == list(cells.CELLS)
    names = [entry["name"] for part in ("workloads", "end_to_end", "per_layer")
             for entry in SPEC[part]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert SPEC["paths"] == ["perf"]


def test_every_source_file_has_a_layer():
    files = sorted(path.relative_to(SRC / "repro").as_posix()
                   for path in (SRC / "repro").rglob("*.py"))
    assert len(files) > 50
    unmapped = [f for f in files if repro_layer(f) is None]
    assert not unmapped, f"add a rule in perf/layermap.py for {unmapped}"
    assert {repro_layer(f) for f in files} == set(LAYERS)
    assert repro_layer("storage/ftl/model.py") == "ftl"
    assert repro_layer("storage/ssd.py") == "storage"
    assert repro_layer("engine/brand_new.py") is None


@pytest.mark.parametrize("workload", list(cells.CELLS))
def test_same_seed_same_digest_other_seed_other_digest(workload):
    first = run.child(workload, 1, 1.0, True)
    again = run.child(workload, 1, 1.0, True)
    other = run.child(workload, 2, 1.0, True)
    assert first["problems"] == again["problems"] == other["problems"] == []
    assert first["sim_digest"] == again["sim_digest"]
    assert first["sim"] == again["sim"] and first["counts"] == again["counts"]
    assert first["sim_digest"] != other["sim_digest"]
    assert first["ops"] > 0 and first["failed"] == 0


@pytest.mark.parametrize("workload", list(cells.CELLS))
def test_traced_pass_shares_and_names(workload):
    block = run.per_layer(workload, 1, 1.0, True)
    assert block["problems"] == []
    metrics = block["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    shares = [metrics[f"{layer}.self_share"] for layer in LAYERS]
    assert abs(sum(shares) - 1.0) < 0.01 and min(shares) >= 0.0
    assert (metrics["ftl.self_share"] > 0) == (workload == "tpcc_ls_ftl")
    assert metrics["harness.trace_overhead_x"] > 1.0
    assert (metrics["harness.paper_rel_err"] >= 0) == (workload == "tpcc_lc")


def test_contract_line_and_report(tmp_path):
    report = tmp_path / "report.json"
    done = subprocess.run(
        [sys.executable, str(PERF / "run.py"), "--workload", "traffic_open",
         "--seed", "5", "--seconds", "20", "--trace", "0", "--smoke",
         "--out", str(report)],
        stdout=subprocess.PIPE, text=True, check=True)
    line = json.loads(done.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert list(line["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for metric in SPEC["end_to_end"]:
        got = line["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"] and got["value"] > 0
    for name in line["metrics"]:
        assert re.search(rf"^  {re.escape(name)} ", done.stdout, re.M)
    block = json.loads(report.read_text())["workloads"]["traffic_open"]
    values = block["end_to_end"]["values"]
    assert 3 <= len(values["sim_tput"]) <= 4  # one more if any was disturbed
    assert 1 <= len(values["host_us_per_op"]) <= 3  # disturbed ones left out


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(PERF, tmp_path / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "tpcc_lc", "--seed",
         "1", "--seconds", "20", "--trace", "0"], cwd=tmp_path,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert done.returncode != 0 and done.stdout == ""


def _report(workload="tpcc_lc"):
    block = run.end_to_end(workload, 1, 1.0, 3, True)
    assert block["problems"] == []
    return {"seed": 1, "seconds": 100.0, "smoke": True,
            "workloads": {workload: {"end_to_end": block}}}


def test_compare_flags_a_slowdown_and_passes_a_twin(capsys):
    parent = _report()
    assert compare.compare(parent, copy.deepcopy(parent), SPEC) == 0
    assert "within-bound" in capsys.readouterr().out

    # A slowdown a fifth past the bound (the bound itself is noise-derived).
    bound = next(m["bound"] for m in SPEC["end_to_end"]
                 if m["name"] == "host_us_per_op")
    slower = copy.deepcopy(parent)
    values = slower["workloads"]["tpcc_lc"]["end_to_end"]["values"]
    values["host_us_per_op"] = [v * (1 + 1.2 * bound)
                                for v in values["host_us_per_op"]]
    assert compare.compare(parent, slower, SPEC) == 1
    out = capsys.readouterr().out
    assert re.search(r"host_us_per_op .* worse", out)
    assert compare.compare(slower, parent, SPEC) == 0
    assert re.search(r"host_us_per_op .* better", capsys.readouterr().out)

    moved = copy.deepcopy(parent)
    moved["workloads"]["tpcc_lc"]["end_to_end"]["sim_digest"] = "0" * 64
    moved["workloads"]["tpcc_lc"]["end_to_end"]["counts"]["sim.events"] += 1
    assert compare.compare(parent, moved, SPEC) == 2
    assert "MISMATCH" in capsys.readouterr().out


def test_compare_verdicts():
    verdict = compare.verdict
    assert verdict([100, 101, 102], [105, 106, 107], "lower", 0.10) == "within-bound"
    assert verdict([100, 101, 102], [120, 121, 122], "lower", 0.10) == "worse"
    assert verdict([100, 101, 102], [80, 81, 82], "lower", 0.10) == "better"
    assert verdict([100, 101, 102], [80, 81, 82], "higher", 0.10) == "worse"
    # Spread wider than the bound and the sides overlap: cannot tell.
    assert verdict([80, 100, 120], [90, 105, 125], "lower", 0.10) == "unresolved"
    # ... unless every run of B beats every run of A.
    assert verdict([80, 100, 120], [50, 60, 70], "lower", 0.10) == "better"
    assert verdict([7.0], [7.0], "lower", 0.01) == "within-bound"


def test_all_tpch_rounds_are_the_full_throughput_test():
    """``cells._tpch_run`` at full size is ``TpchWorkload.full_run``."""
    sys.path.insert(0, str(SRC))
    from repro.harness.experiments import (SCALE_PROFILES, make_system,
                                           make_workload)

    def build():
        profile = SCALE_PROFILES["tiny"]
        workload = make_workload("tpch", 30, profile)
        system = make_system("tpch", workload, "DW", profile)
        workload.setup(system)
        return system, workload

    system, workload = build()
    reference = system.env.run(system.env.process(workload.full_run(system)))
    ours_system, ours_workload = build()
    ours = ours_system.env.run(ours_system.env.process(cells._tpch_run(
        ours_system, ours_workload, 1, ours_workload.streams)))
    assert ours_system.env.now == system.env.now
    assert ours.qphh == reference.qphh
    assert ours.throughput_elapsed == reference.throughput_elapsed
    assert ours.query_times == reference.query_times
    assert [cells.tpch_rounds(s, 5) for s in (0.05, 0.2, 0.5, 1.0, 2.0)] == [
        1, 1, 2, 5, 5]


def test_every_isolated_row_does_its_work():
    rows = layers.iso_rows(smoke=True)
    assert set(rows) == set(layers.ROWS)
    for name, row in rows.items():
        assert row["median"] > 0 and len(row["values"]) == layers.REPEATS, name
