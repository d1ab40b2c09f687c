"""Smoke tests for the external tools (ruff, mypy) configured in
pyproject.toml.

The tools are optional-dependency extras (``pip install -e .[lint]``)
and are not vendored; these tests skip when a tool is absent so the
suite stays green in minimal environments while CI (which installs the
extras) enforces both.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


def run_tool(*argv):
    return subprocess.run(argv, capture_output=True, text=True,
                          cwd=REPO_ROOT)


@pytest.mark.skipif(shutil.which("ruff") is None, reason="ruff not installed")
def test_ruff_clean():
    proc = run_tool("ruff", "check", "src", "tests", "tools")
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.skipif(shutil.which("mypy") is None, reason="mypy not installed")
def test_mypy_strict_wave():
    proc = run_tool(
        sys.executable, "-m", "mypy",
        "src/repro/sim", "src/repro/core/heaps.py", "src/repro/faults",
        "src/repro/harness/sweep.py", "src/repro/storage/ftl",
        "src/repro/core/ls.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_pyproject_declares_tool_config():
    """The config blocks exist even when the tools are absent."""
    text = (REPO_ROOT / "pyproject.toml").read_text()
    assert "[tool.ruff" in text
    assert "[tool.mypy]" in text
