"""A repeated ``repro sweep`` reuses every run and reports the same table.

Pinned through the command line only: the working directory and the
run database are the test's, a second sweep of the same grid is served
entirely from what the first one left on disk, its ``--output`` file is
byte-equal to the first one's, and ``--no-cache`` computes every run
again.
"""

from repro.cli import main

ARGV = ["sweep", "--benchmark", "tpcc", "--scales", "10",
        "--designs", "noSSD,LC", "--profile", "tiny", "--duration", "2",
        "--workers-per-run", "2"]


def test_a_repeated_sweep_reuses_every_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("REPRO_RUNSTORE", str(tmp_path / "runs.db"))
    first, second = tmp_path / "first.json", tmp_path / "second.json"

    assert main([*ARGV, "--output", str(first)]) == 0
    assert "0 cached, 2 computed" in capsys.readouterr().out
    assert main([*ARGV, "--output", str(second)]) == 0
    assert "2 cached, 0 computed" in capsys.readouterr().out
    assert first.read_bytes() == second.read_bytes()

    assert main([*ARGV, "--no-cache"]) == 0
    assert "0 cached, 2 computed" in capsys.readouterr().out
