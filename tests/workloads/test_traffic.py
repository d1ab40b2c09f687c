"""Arrival processes and the tenant spec grammar.

Mean-rate preservation matters because the experiments compare arrival
*shapes* (bursty vs. smooth) at equal offered volume; determinism per
seed matters because the whole repo's byte-identical-trace contract
extends to open-loop runs.
"""

import random

import pytest

from repro.workloads.traffic import (DEFAULT_THINK_SECONDS, BurstyArrivals,
                                     DiurnalArrivals, PoissonArrivals,
                                     parse_arrivals, parse_tenants)


def _arrivals_before(gen, seed, horizon):
    rng = random.Random(seed)
    out = []
    for t in gen.times(rng):
        if t >= horizon:
            break
        out.append(t)
    return out


@pytest.mark.parametrize("gen", [
    PoissonArrivals(rate=50.0),
    BurstyArrivals(rate=50.0, burst=10.0, on_fraction=0.2, cycle=5.0),
    DiurnalArrivals(rate=50.0, period=40.0, peak=3.0),
])
def test_long_run_mean_rate_is_preserved(gen):
    # Bursty counts are far super-Poissonian (whole on-phases of ~180/s
    # arrive or don't), so bound the mean over seeds, not one draw:
    # per-run relative sigma is ~8% for this shape, ~1.6% over 25 seeds.
    horizon = 400.0
    counts = [len(_arrivals_before(gen, seed=seed, horizon=horizon))
              for seed in range(25)]
    expected = gen.rate * horizon
    mean = sum(counts) / len(counts)
    assert abs(mean - expected) < 0.05 * expected


@pytest.mark.parametrize("gen", [
    PoissonArrivals(rate=20.0),
    BurstyArrivals(rate=20.0),
    DiurnalArrivals(rate=20.0, period=10.0),
])
def test_same_seed_same_arrival_times(gen):
    a = _arrivals_before(gen, seed=42, horizon=30.0)
    b = _arrivals_before(gen, seed=42, horizon=30.0)
    c = _arrivals_before(gen, seed=43, horizon=30.0)
    assert a == b
    assert a != c
    assert a == sorted(a) and all(t >= 0 for t in a)


def test_bursty_rates_solve_the_mean_constraint():
    gen = BurstyArrivals(rate=100.0, burst=8.0, on_fraction=0.25, cycle=4.0)
    f = gen.on_fraction
    assert gen.rate_on == pytest.approx(8.0 * gen.rate_off)
    assert f * gen.rate_on + (1 - f) * gen.rate_off == pytest.approx(100.0)


def test_diurnal_peak_trough_ratio():
    gen = DiurnalArrivals(rate=10.0, period=100.0, peak=4.0)
    hi = gen.rate_at(25.0)   # sin = +1
    lo = gen.rate_at(75.0)   # sin = -1
    assert hi / lo == pytest.approx(4.0)
    assert (hi + lo) / 2 == pytest.approx(10.0)
    assert gen.max_rate == pytest.approx(hi)


def test_generator_validation():
    with pytest.raises(ValueError):
        PoissonArrivals(rate=0.0)
    with pytest.raises(ValueError):
        BurstyArrivals(rate=1.0, burst=0.5)
    with pytest.raises(ValueError):
        BurstyArrivals(rate=1.0, on_fraction=1.0)
    with pytest.raises(ValueError):
        DiurnalArrivals(rate=1.0, peak=0.9)


# ----------------------------------------------------------------------
# Grammar
# ----------------------------------------------------------------------

def test_parse_arrivals_rate_form():
    gen = parse_arrivals("poisson:rate=5000")
    assert isinstance(gen, PoissonArrivals)
    assert gen.rate == 5000.0
    # rate= implies a logical-user count at the default think time.
    assert gen.users == 5000.0 * DEFAULT_THINK_SECONDS


def test_parse_arrivals_users_think_form():
    gen = parse_arrivals("poisson:users=1000000:think=100")
    assert gen.rate == pytest.approx(10_000.0)
    assert gen.users == 1_000_000.0


def test_parse_arrivals_kind_fields():
    gen = parse_arrivals("bursty:rate=10:burst=4:on=0.5:cycle=2")
    assert isinstance(gen, BurstyArrivals)
    assert (gen.burst, gen.on_fraction, gen.cycle) == (4.0, 0.5, 2.0)
    gen = parse_arrivals("diurnal:rate=10:period=600:peak=2")
    assert isinstance(gen, DiurnalArrivals)
    assert (gen.period, gen.peak) == (600.0, 2.0)


@pytest.mark.parametrize("bad", [
    "", "warp:rate=1", "poisson", "poisson:think=10",
    "poisson:rate=1:burst=2", "poisson:rate=abc", "poisson:rate",
])
def test_parse_arrivals_rejects_bad_specs(bad):
    with pytest.raises(ValueError):
        parse_arrivals(bad)


def test_parse_tenants_full_grammar():
    tenants = parse_tenants(
        "gold=poisson:users=800000:think=100:theta=0.6;"
        "noisy=bursty:rate=300:burst=10:theta=0.99")
    assert [t.name for t in tenants] == ["gold", "noisy"]
    gold, noisy = tenants
    assert gold.theta == 0.6 and noisy.theta == 0.99
    assert gold.logical_users == 800_000.0
    assert gold.arrivals.rate == pytest.approx(8000.0)
    assert isinstance(noisy.arrivals, BurstyArrivals)
    # theta= was stripped before arrival parsing.
    assert noisy.arrivals.burst == 10.0


def test_parse_tenants_rejects_duplicates_and_garbage():
    with pytest.raises(ValueError):
        parse_tenants("a=poisson:rate=1;a=poisson:rate=2")
    with pytest.raises(ValueError):
        parse_tenants("just-a-name")
    with pytest.raises(ValueError):
        parse_tenants(";;")
