"""The linter applied to this repository: the committed tree is clean.

This is the enforcement test for DESIGN.md §9 — every RPL invariant
holds over ``src/``.  If a change reintroduces an unguarded tracer
call, a wall clock in the simulator, or a naked device await, this test
(and CI) fails with the exact file:line.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.statics import check_paths

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"


class TestRepositoryIsClean:
    def test_src_has_no_findings(self):
        result = check_paths([str(SRC)])
        report = "\n".join(f.format() for f in result.findings)
        assert result.errors == []
        assert result.findings == [], f"lint findings:\n{report}"
        assert result.files > 50  # the walk actually found the tree

    def test_pyproject_keeps_the_built_in_defaults(self, tmp_path):
        """pyproject.toml configures no lint, so the built-in excludes are
        the only ones: a bad file under each is skipped, one beside them
        is not."""
        assert "tool.repro.lint" not in (
            REPO_ROOT / "pyproject.toml").read_text()
        bad = 'def f(tracer):\n    tracer.record("x")\n'
        package = tmp_path / "src" / "repro" / "engine"
        for directory in (".git", ".repro-cache", "build", "kept"):
            target = package / directory / "bad.py"
            target.parent.mkdir(parents=True)
            target.write_text(bad)
        result = check_paths([str(tmp_path)])
        assert result.files == 1
        assert [Path(f.path).parent.name for f in result.findings] == ["kept"]

    def test_cli_exits_zero_on_src(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint", str(SRC)],
            capture_output=True, text=True, cwd=REPO_ROOT,
            env={"PYTHONPATH": str(SRC)})
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 findings" in proc.stdout


class TestCli:
    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        listed = [line.split()[0]
                  for line in capsys.readouterr().out.splitlines()]
        assert listed == ["RPL001", "RPL003", "RPL004", "RPL005",
                          "RPL006", "RPL007", "RPL008"]

    def test_unknown_code_is_usage_error(self, capsys):
        # Every run applies every rule: there is no flag naming codes.
        with pytest.raises(SystemExit) as exc:
            main(["lint", "--select", "RPL999", str(SRC)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --select" in capsys.readouterr().err

    def test_findings_exit_one(self, tmp_path, capsys, monkeypatch):
        bad = tmp_path / "src" / "repro" / "engine" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text('def f(tracer):\n    tracer.record("x")\n')
        monkeypatch.chdir(tmp_path)
        assert main(["lint", str(bad)]) == 1
        assert "RPL001" in capsys.readouterr().out

    def test_select_narrows_rules(self, tmp_path, capsys, monkeypatch):
        # The file's path inside the package selects the rules: in a
        # checkout named ``repro`` the package draws RPL007, its tests not.
        source = "def start(env, worker):\n    env.process(worker(env))\n"
        checkout = tmp_path / "repro"
        inside = checkout / "src" / "repro" / "engine" / "x.py"
        outside = checkout / "tests" / "engine" / "x.py"
        for path in (inside, outside):
            path.parent.mkdir(parents=True)
            path.write_text(source)
        monkeypatch.chdir(tmp_path)
        assert main(["lint", str(inside)]) == 1
        assert "RPL007" in capsys.readouterr().out
        assert main(["lint", str(outside)]) == 0
        assert "0 findings in 1 files" in capsys.readouterr().out
