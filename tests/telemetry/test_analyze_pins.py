"""What ``repro analyze`` prints and writes for one traced CW/LC pair.

The terminal tables and the ``--html`` report are the command's whole
output; both are pinned byte for byte.  The traces' ``run_meta``
provenance (commit, branch, source hash) is masked first, because it
changes with any edit by design and neither output shows it.
"""

import hashlib
import json

import pytest

from repro.cli import main

PROVENANCE = ("git_commit", "git_branch", "git_dirty", "source_hash")


@pytest.fixture(scope="module")
def masked_pair(tmp_path_factory):
    directory = tmp_path_factory.mktemp("pins")
    assert main(["oltp", "--benchmark", "tpcc", "--scale", "100",
                 "--profile", "tiny", "--duration", "4", "--workers", "4",
                 "--designs", "CW,LC", "--no-db",
                 "--trace", str(directory / "run.jsonl")]) == 0
    paths = []
    for design in ("CW", "LC"):
        path = directory / f"run-{design}.jsonl"
        events = [json.loads(line) for line in path.read_text().splitlines()]
        for event in events:
            if event["name"] == "run_meta":
                event["args"].update(dict.fromkeys(PROVENANCE, "masked"))
        path.write_text("".join(json.dumps(event) + "\n"
                                for event in events))
        paths.append(str(path))
    return paths


def _md5(text):
    return hashlib.md5(text.encode()).hexdigest()


def test_terminal_tables_and_html_report(masked_pair, tmp_path, capsys):
    capsys.readouterr()
    report = tmp_path / "report.html"
    assert main(["analyze", *masked_pair, "--html", str(report)]) == 0
    out = capsys.readouterr().out
    assert "Tail-latency attribution" in out
    assert _md5(out) == "60992ff7ea50eb4607f8b2fbc144e1bd"
    assert _md5(report.read_text()) == "14b87e0cdfc758740089d125371f94d9"
