"""The sampled series are one table.

``harness.metrics.SAMPLE_FIELDS`` names :class:`Sample`'s fields, the
sampler's trace counters and their arguments, and ``repro analyze``
reads the counters back into series through the same rows; the three
cumulative ``bp_*`` request fields become the windowed hit ratios.
"""

from dataclasses import fields

from repro.cli import main
from repro.harness.metrics import SAMPLE_FIELDS, Sample, sample_counters
from repro.telemetry.analysis import analyze_trace

NAMES = [name for name, _, _, _ in SAMPLE_FIELDS]
REQUESTS = ("bp_hits", "bp_misses", "bp_ssd_hits")


def test_sample_has_a_field_per_row_in_table_order():
    assert [field.name for field in fields(Sample)] == ["time", *NAMES]


def test_a_counter_is_one_run_of_rows_and_an_arg_names_one_row():
    counters = [counter for _, _, counter, _ in SAMPLE_FIELDS]
    runs = [counter for i, counter in enumerate(counters)
            if i == 0 or counter != counters[i - 1]]
    assert runs == list(sample_counters())
    for args in sample_counters().values():
        assert len({arg for arg, _ in args}) == len(args)


def test_an_ftl_run_analyzes_into_every_field_but_the_requests(tmp_path):
    path = tmp_path / "ls.jsonl"
    assert main(["oltp", "--benchmark", "tpcc", "--scale", "100",
                 "--profile", "tiny", "--duration", "2", "--workers", "4",
                 "--designs", "LS", "--ftl", "--no-db",
                 "--trace", str(path)]) == 0
    series = analyze_trace(str(path)).series
    assert list(series) == [name for name in NAMES if name not in REQUESTS] \
        + ["hit_ratio", "ssd_hit_ratio"]
    assert len({len(series[name]) for name in NAMES
                if name not in REQUESTS}) == 1
