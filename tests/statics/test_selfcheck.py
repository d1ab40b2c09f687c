"""The linter applied to this repository: the committed tree is clean.

This is the enforcement test for DESIGN.md §9 — every RPL invariant
holds over ``src/``.  If a change reintroduces an unguarded tracer
call, an un-slotted hot-path class, or a naked device await, this test
(and CI) fails with the exact file:line.
"""

import subprocess
import sys
from pathlib import Path

from repro.statics import LintConfig, check_paths, load_config
from repro.statics.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"


class TestRepositoryIsClean:
    def test_src_has_no_findings(self):
        config = load_config(REPO_ROOT)
        result = check_paths([str(SRC)], config)
        report = "\n".join(f.format() for f in result.findings)
        assert result.errors == []
        assert result.findings == [], f"lint findings:\n{report}"
        assert result.files > 50  # the walk actually found the tree

    def test_pyproject_keeps_the_built_in_defaults(self):
        """The committed block sets nothing, so an interpreter that reads
        it (``tomllib``, 3.11+) skips the same files as one that cannot."""
        assert load_config(REPO_ROOT) == LintConfig()

    def test_cli_exits_zero_on_src(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.statics", str(SRC)],
            capture_output=True, text=True, cwd=REPO_ROOT,
            env={"PYTHONPATH": str(SRC)})
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 findings" in proc.stdout


class TestCli:
    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("RPL001", "RPL002", "RPL003", "RPL004", "RPL005",
                     "RPL006", "RPL007", "RPL008"):
            assert code in out

    def test_unknown_code_is_usage_error(self, capsys):
        assert main(["--select", "RPL999", str(SRC)]) == 2
        assert "unknown rule codes" in capsys.readouterr().err

    def test_findings_exit_one(self, tmp_path, capsys, monkeypatch):
        bad = tmp_path / "src" / "repro" / "engine" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text('def f(tracer):\n    tracer.record("x")\n')
        monkeypatch.chdir(tmp_path)
        assert main([str(bad)]) == 1
        assert "RPL001" in capsys.readouterr().out

    def test_select_narrows_rules(self, tmp_path, capsys, monkeypatch):
        bad = tmp_path / "src" / "repro" / "engine" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text('def f(tracer):\n    tracer.record("x")\n')
        monkeypatch.chdir(tmp_path)
        assert main(["--select", "RPL005", str(bad)]) == 0

    def test_json_format(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "clean.py").write_text("x = 1\n")
        assert main(["--format", "json", "clean.py"]) == 0
        out = capsys.readouterr().out
        assert out.lstrip().startswith("{")
