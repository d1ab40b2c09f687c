"""The source checks applied to this repository: the committed tree is clean.

This is the enforcement test for DESIGN.md §9 — every RPL invariant
holds over ``src/repro``.  If a change reintroduces an unguarded tracer
call, a wall clock in the simulator, or a naked device await, this test
fails with the exact file:line.
"""

from pathlib import Path

import pytest

from repro.cli import main
from tests.statics.checks import CHECKS, parse_package, report

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def sources():
    """Every module of ``src/repro``, parsed once: repo path → tree."""
    return parse_package(REPO_ROOT / "src" / "repro")


class TestRepositoryIsClean:
    @pytest.mark.parametrize("code", sorted(CHECKS))
    def test_src_has_no_findings(self, code, sources):
        assert len(sources) > 50  # the walk actually found the tree
        found = report(code, sources)
        assert found == [], "\n".join(found)


class TestCli:
    def test_unknown_code_is_usage_error(self, capsys):
        # The checks run only as tests: no subcommand names their codes.
        with pytest.raises(SystemExit) as exc:
            main(["lint", "--select", "RPL999", "src"])
        assert exc.value.code == 2
        assert "invalid choice: 'lint'" in capsys.readouterr().err
