"""What ``repro analyze`` reads off the sampler's trace counters.

For a traced tiny LS run on the FTL model and a traced tiny LC run, the
digest covers every series in order (its key, length and each point,
the windowed ``hit_ratio``/``ssd_hit_ratio`` among them) and the whole
``ftl`` dict, in order.
"""

import hashlib
import json

import pytest

from repro.cli import main
from repro.telemetry.analysis import analyze_trace

RUNS = {"LS": ["--ftl"], "LC": []}


@pytest.fixture(scope="module")
def analyses(tmp_path_factory):
    directory = tmp_path_factory.mktemp("series")
    found = {}
    for design, flags in RUNS.items():
        path = directory / f"{design}.jsonl"
        assert main(["oltp", "--benchmark", "tpcc", "--scale", "100",
                     "--profile", "tiny", "--duration", "4", "--workers",
                     "4", "--designs", design, *flags, "--no-db",
                     "--trace", str(path)]) == 0
        found[design] = analyze_trace(str(path))
    return found


def digest(analysis):
    return hashlib.md5(json.dumps(
        [list(analysis.series.items()), list(analysis.ftl.items())]
    ).encode()).hexdigest()


@pytest.mark.parametrize("design, expected", [
    ("LS", "acd8005dbffa2a1785c8d1216d1309e9"),
    ("LC", "8d240607f4acbd6997976acbd9e6cf81"),
])
def test_series_and_ftl_totals(analyses, design, expected):
    assert digest(analyses[design]) == expected


def test_only_the_ftl_run_has_ftl_series_and_totals(analyses):
    assert [key for key in analyses["LS"].series
            if key.startswith("ftl_")] == [
        "ftl_host_writes", "ftl_nand_writes", "ftl_erases"]
    assert list(analyses["LS"].ftl) == [
        "host_writes", "nand_writes", "erases", "waf", "gc_events"]
    assert not any(key.startswith("ftl_") for key in analyses["LC"].series)
    assert analyses["LC"].ftl == {}
