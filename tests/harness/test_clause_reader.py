"""The one reader behind ``--faults`` and ``--tenants``.

``repro.faults.clauses`` reads a clause's ``key=value`` parts and
checks a number; each grammar keeps its own keys, ranges and quirks.
The reader strips a value as it strips a key, so a blank that
``str.strip`` drops but ``float`` does not (``\\x1c``) is taken by both
grammars alike.
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.faults.clauses import number, read_fields
from repro.faults.plan import FaultPlan
from repro.workloads.traffic import parse_tenants


def test_read_fields_strips_keys_and_values_and_reads_aliases():
    assert read_fields([" p = 0.5 ", "on=1"], "c", {"on": "on_fraction"}) \
        == {"p": "0.5", "on_fraction": "1"}
    assert read_fields([], "c") == {}


@pytest.mark.parametrize("parts, message", [
    (["p"], "malformed parameter 'p' in 'clause'"),
    ([""], "malformed parameter '' in 'clause'"),
    (["p=1", " p =2"], "p is given twice in 'clause'"),
    (["on=1", "on_fraction=2"], "on_fraction is given twice in 'clause'"),
])
def test_read_fields_refuses_naming_the_clause(parts, message):
    with pytest.raises(ValueError, match=message):
        read_fields(parts, "clause", {"on": "on_fraction"})


def test_number_takes_the_edges_of_its_range():
    assert number("p", "0", "c", 0.0, 1.0) == 0.0
    assert number("p", "1", "c", 0.0, 1.0) == 1.0
    assert number("n", "8.0", "c", 1, whole=True) == 8.0
    assert number("rate", "-1e3", "c") == -1000.0


@pytest.mark.parametrize("raw, bounds, message", [
    ("1.5", dict(low=0.0, high=1.0),
     "p=1.5 in 'c' must be a finite number in \\[0, 1\\]"),
    ("-1", dict(low=0.0), "p=-1 in 'c' must be a finite number >= 0"),
    ("1.5", dict(low=1, whole=True),
     "p=1.5 in 'c' must be a whole number >= 1"),
    ("inf", {}, "p=inf in 'c' must be a finite number$"),
    ("nan", {}, "p=nan in 'c' must be a finite number$"),
    ("lots", {}, "p=lots in 'c' must be a finite number$"),
])
def test_number_refuses_naming_key_raw_and_clause(raw, bounds, message):
    with pytest.raises(ValueError, match=message):
        number("p", raw, "c", **bounds)


def test_both_grammars_strip_a_value():
    assert FaultPlan.parse("transient:p=0.5\x1c").specs[0].p == 0.5
    assert parse_tenants("a=poisson:rate=5\x1c:")[0].arrivals.rate == 5.0
    assert parse_tenants("a=poisson:rate= 5 ")[0].arrivals.rate == 5.0


ALPHABET = st.sampled_from([
    "transient", "latency", "ssd_die", "ssd_chan_die", "poisson", "bursty",
    "diurnal", "a", "p", "t", "n", "x", "dur", "device", "ssd", "rate",
    "users", "think", "theta", "on", "burst", "peak", "=", ":", "@", ",",
    ";", " ", "\t", "\x1c", "0", "1", "0.5", "-1", "1e3", "nan", "inf", "_",
])


@given(st.lists(ALPHABET, max_size=16).map("".join))
def test_either_grammar_parses_or_refuses_with_a_value_error(text):
    for parse in (FaultPlan.parse, parse_tenants):
        try:
            parsed = parse(text)
        except ValueError:
            continue
        assert parsed is not None
        for spec in getattr(parsed, "specs", ()):
            assert all(math.isfinite(value)
                       for value in (spec.p, spec.factor, spec.duration))
