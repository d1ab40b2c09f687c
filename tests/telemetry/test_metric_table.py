"""The ``--metrics`` table (``repro.harness.metrics``) is declared once,
in source, and all of it is visible there: every row has a literal
snake_case name, and each name one kind and one label tuple.

A snapshot only sees the rows its run reaches, so these checks read the
table itself: as source (a name must be a literal) and as the imported
tuples (one row per name).  Each check is also run on a seeded bad
table, so it is known to fail.
"""

import ast
import inspect
import re
import textwrap

import pytest

import repro.harness.metrics as metrics
from repro.core import DESIGNS
from repro.harness.experiments import RunSpec, run
from repro.harness.metrics import (DESIGN_METRICS, FTL_METRICS,
                                   LATENCY_METRICS, METRICS, snapshot)
from repro.harness.report import format_metrics
from repro.telemetry import Telemetry
from tests.telemetry.test_metrics_snapshot import pinned_lines

SNAKE = re.compile(r"[a-z][a-z0-9]*(_[a-z0-9]+)*")
KINDS = ("counter", "gauge", "histogram")
#: The module-level names a table is bound to.
TABLES = ("METRICS", "FTL_METRICS", "DESIGN_METRICS", "LATENCY_METRICS")


def every_row():
    """Every row of every table."""
    rows = list(METRICS + FTL_METRICS + LATENCY_METRICS)
    for design_rows in DESIGN_METRICS.values():
        rows.extend(design_rows)
    return rows


def row_problems(rows):
    """What is wrong with ``rows`` taken as one table."""
    seen = {}
    for name, kind, labelnames, _ in rows:
        if not (isinstance(name, str) and SNAKE.fullmatch(name)):
            yield f"{name!r} is not a snake_case name"
        if kind not in KINDS:
            yield f"{name}: unknown kind {kind!r}"
        if not all(SNAKE.fullmatch(label) for label in labelnames):
            yield f"{name}: label names {labelnames!r}"
        if name in seen:
            again = ("" if seen[name] == (kind, labelnames)
                     else f" as {kind} {labelnames}, was {seen[name]}")
            yield f"{name} is declared twice{again}"
        seen[name] = (kind, labelnames)


def source_problems(source):
    """Rows of the tables in ``source`` whose name, kind or label names
    are not literals."""
    for node in ast.parse(source).body:
        if not (isinstance(node, (ast.Assign, ast.AnnAssign))
                and getattr(node.targets[0] if isinstance(node, ast.Assign)
                            else node.target, "id", None) in TABLES):
            continue
        tables = (node.value.values if isinstance(node.value, ast.Dict)
                  else [node.value])
        for table in tables:
            for row in table.elts:
                # name, kind and the label names, when they are literals
                fields = row.elts[:3] if isinstance(row, ast.Tuple) else [row]
                if len(fields) == 3 and isinstance(fields[2], ast.Tuple):
                    fields[2:] = fields[2].elts
                if not all(isinstance(field, ast.Constant)
                           and isinstance(field.value, str)
                           for field in fields):
                    yield f"line {row.lineno}: {ast.unparse(row)[:50]}"


def test_every_row_is_a_literal():
    assert list(source_problems(inspect.getsource(metrics))) == []


def test_one_kind_and_one_label_tuple_per_name():
    rows = every_row()
    assert list(row_problems(rows)) == []
    assert len(rows) == 52


def test_a_computed_name_fails():
    seeded = textwrap.dedent("""
        METRICS = (
            ("io_" + KIND, "counter", ("device",), read),
        )
        """)
    assert len(list(source_problems(seeded))) == 1


def test_computed_label_names_fail():
    seeded = textwrap.dedent("""
        DESIGN_METRICS = {
            "LC": (("lc_rounds_total", "counter", LABELS, read),),
        }
        """)
    assert list(source_problems(seeded)) == [
        "line 3: ('lc_rounds_total', 'counter', LABELS, read)"]


def test_a_duplicate_row_fails():
    problems = list(row_problems(METRICS + METRICS[-1:]))
    assert problems == ["ssd_dirty_fraction is declared twice"]


def test_a_kind_conflicting_row_fails():
    name, _, labelnames, read = METRICS[-1]
    problems = list(row_problems(METRICS + ((name, "counter", labelnames,
                                             read),)))
    assert problems == ["ssd_dirty_fraction is declared twice as counter "
                        "(), was ('gauge', ())"]


def test_a_camel_case_name_fails():
    seeded = (("ssdDirtyFraction", "gauge", (), None),)
    assert list(row_problems(seeded)) == [
        "'ssdDirtyFraction' is not a snake_case name"]


def test_the_design_rows_are_keyed_by_design_name():
    assert sorted(DESIGN_METRICS) == ["LC", "LS", "TAC"]
    assert set(DESIGN_METRICS) <= set(DESIGNS)


def test_the_pinned_runs_show_every_name_of_the_table():
    pinned = {line.split("{")[0]
              for lines in pinned_lines().values() for line in lines}
    assert pinned == {row[0] for row in every_row()}


@pytest.mark.parametrize("spec", [
    RunSpec(kind="oltp", benchmark="tpcc", scale=20, design="LS",
            profile="tiny", duration=1.0, nworkers=4, ftl=True),
    RunSpec(kind="tpch", benchmark="tpch", scale=1, design="TAC",
            profile="tiny"),
], ids=["oltp-LS-ftl", "tpch-TAC"])
def test_a_dark_run_reads_what_a_traced_run_does(spec):
    """``--metrics`` needs no trace: the rows are the run's own counts
    (compared as printed: an empty histogram's nan is no nan's equal)."""
    def printed(telemetry):
        result = run(spec, telemetry=telemetry)
        return format_metrics(
            snapshot(result.system, getattr(result, "latencies", None)))

    assert printed(None) == printed(Telemetry())
