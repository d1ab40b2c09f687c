"""The reachability ledger's diff (``tools/reach.py``), on a fixture package.

The product inputs take minutes, so CI's ``reach-ledger`` job runs them;
here the same ``check`` traces one small input over a package written
to ``tmp_path``, and the committed table is checked against the defs
that exist.
"""

import importlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


def _load_reach():
    spec = importlib.util.spec_from_file_location(
        "reach", ROOT / "tools" / "reach.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reach = _load_reach()

FIXTURE = '''\
def entered():
    return helper()


def helper():
    return 1


class Thing:
    def used(self):
        return 2

    def benchmark_only(self):
        """Only a benchmark calls this."""

    @property
    def test_only(self):
        return 3


def unlisted():
    def inner():
        pass
    return inner
'''

#: A justified and a scheduled entry, a row whose def the input enters,
#: and a row whose def no longer exists.
TABLE = {
    "reachfix.mod:Thing.benchmark_only":
        ("justified", "benchmarks/test_fixture.py"),
    "reachfix.mod:Thing.test_only":
        ("scheduled", "tests/test_fixture.py::test_only"),
    "reachfix.mod:helper": ("justified", "benchmarks/test_fixture.py"),
    "reachfix.mod:gone": ("scheduled", "tests/test_fixture.py::test_gone"),
}


@pytest.fixture
def fixture_package(tmp_path, monkeypatch):
    package = tmp_path / "reachfix"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(FIXTURE)
    monkeypatch.syspath_prepend(str(tmp_path))
    yield package, importlib.import_module("reachfix.mod")
    for name in ("reachfix.mod", "reachfix"):
        sys.modules.pop(name, None)


def _run(module):
    def run():
        module.entered()
        module.Thing().used()
    return [("fixture", run)]


def test_defs_walks_classes_nesting_and_decorators(fixture_package):
    package, _ = fixture_package
    found = reach.defs(package)
    assert set(found) == {
        "reachfix.mod:entered", "reachfix.mod:helper",
        "reachfix.mod:Thing.used", "reachfix.mod:Thing.benchmark_only",
        "reachfix.mod:Thing.test_only", "reachfix.mod:unlisted",
        "reachfix.mod:unlisted.inner"}
    # The first line is the decorator's, as the code object counts it.
    path, first, lines = found["reachfix.mod:Thing.test_only"]
    assert (Path(path).name, first, lines) == ("mod.py", 16, 3)
    assert found["reachfix.mod:unlisted"][2] == 4


def test_three_verdicts_and_stale_rows(fixture_package):
    package, module = fixture_package
    entered = reach.trace(_run(module))
    verdicts, stale = reach.ledger(reach.defs(package), entered, TABLE)
    assert verdicts == {
        "reachfix.mod:Thing.benchmark_only": "justified",
        "reachfix.mod:Thing.test_only": "scheduled",
        "reachfix.mod:unlisted": "unlisted",
        "reachfix.mod:unlisted.inner": "unlisted"}
    assert stale == {"reachfix.mod:helper": "entered by the inputs",
                     "reachfix.mod:gone": "no such def"}


def test_exit_status(fixture_package):
    package, module = fixture_package
    out = io.StringIO()
    assert reach.check(package, _run(module), TABLE, out) == 1
    report = out.getvalue()
    assert "reachfix.mod (4 defs, 11 lines)" in report
    assert "stale row reachfix.mod:gone: no such def" in report
    assert "7 defs, 3 entered; never entered: 4 (1 justified, " \
           "1 scheduled, 2 unlisted); 2 stale rows" in report

    clean = {key: row for key, row in TABLE.items()
             if key not in ("reachfix.mod:helper", "reachfix.mod:gone")}
    clean["reachfix.mod:unlisted"] = ("justified", "a __repr__")
    clean["reachfix.mod:unlisted.inner"] = ("justified", "a __repr__")
    assert reach.check(package, _run(module), clean, io.StringIO()) == 0


def test_a_scheduled_row_names_its_tests(fixture_package):
    package, module = fixture_package
    table = {"reachfix.mod:Thing.test_only": ("scheduled", "soon"),
             "reachfix.mod:Thing.benchmark_only": ("kept", "")}
    _, stale = reach.ledger(reach.defs(package), reach.trace(_run(module)),
                            table)
    assert set(stale) == set(table)


def test_every_committed_row_names_a_def_that_exists():
    # The cheap half of staleness; whether the inputs enter a row's def
    # is the reach-ledger job's to say.
    found = reach.defs(reach.PACKAGE)
    assert sorted(set(reach.LEDGER) - set(found)) == []
    _, stale = reach.ledger(found, set(), reach.LEDGER)
    assert stale == {}
