"""What ``--faults`` and ``--tenants`` accept, and what they make of it.

Each valid string is pinned to its parsed result: a plan's
:class:`~repro.faults.plan.FaultSpec` fields; a tenant's name, arrival
class, rate, users, the class's own fields and theta.  The corpus keeps
each grammar's quirks: the arrivals grammar skips an empty part and
lower-cases its kind, and a ``theta=`` part may stand anywhere after
the arrival kind; the fault grammar does neither.  Each refused
string must stay refused.
"""

import dataclasses

import pytest

from repro.faults.plan import FaultPlan
from repro.workloads.traffic import parse_arrivals, parse_tenants

#: The arrival classes' own fields, past rate and users.
EXTRAS = {
    "PoissonArrivals": (),
    "BurstyArrivals": ("burst", "on_fraction", "cycle"),
    "DiurnalArrivals": ("period", "peak"),
}


def parsed_faults(text):
    return [dataclasses.astuple(spec) for spec in FaultPlan.parse(text).specs]


def parsed_arrivals(arrivals):
    kind = type(arrivals).__name__
    return (kind, arrivals.rate, arrivals.users,
            {name: getattr(arrivals, name) for name in EXTRAS[kind]})


def parsed_tenants(text):
    return [(tenant.name, *parsed_arrivals(tenant.arrivals), tenant.theta)
            for tenant in parse_tenants(text)]


FAULTS = {
    "ssd_die@t=30": [
        ("ssd_die", "ssd", 0.0, 10.0, 30.0, 1.0, 1)],
    "transient:p=0.001": [
        ("transient", "all", 0.001, 10.0, None, 1.0, 1)],
    "transient:p=0.01:device=ssd": [
        ("transient", "ssd", 0.01, 10.0, None, 1.0, 1)],
    "latency:p=0.005:x=20": [
        ("latency", "all", 0.005, 20.0, None, 1.0, 1)],
    "log_stall@t=10:dur=2": [
        ("log_stall", "log", 0.0, 10.0, 10.0, 2.0, 1)],
    "disk_stall@t=10:dur=2": [
        ("disk_stall", "disk", 0.0, 10.0, 10.0, 2.0, 1)],
    "ssd_stall@t=10:dur=2": [
        ("ssd_stall", "ssd", 0.0, 10.0, 10.0, 2.0, 1)],
    "gc_stall@t=10:dur=0.5": [
        ("gc_stall", "ssd", 0.0, 10.0, 10.0, 0.5, 1)],
    "ssd_chan_die@t=30:n=2": [
        ("ssd_chan_die", "ssd", 0.0, 10.0, 30.0, 1.0, 2)],
    "transient": [
        ("transient", "all", 0.0, 10.0, None, 1.0, 1)],
    "latency": [
        ("latency", "all", 0.0, 10.0, None, 1.0, 1)],
    "ssd_die:t=5": [
        ("ssd_die", "ssd", 0.0, 10.0, 5.0, 1.0, 1)],
    "disk_stall@t=5@dur=3": [
        ("disk_stall", "disk", 0.0, 10.0, 5.0, 3.0, 1)],
    "ssd_chan_die@t=1e3:n=8.0": [
        ("ssd_chan_die", "ssd", 0.0, 10.0, 1000.0, 1.0, 8)],
    "ssd_stall@t=0:dur=0": [
        ("ssd_stall", "ssd", 0.0, 10.0, 0.0, 0.0, 1)],
    "latency:x=1:p=1:device=all": [
        ("latency", "all", 1.0, 1.0, None, 1.0, 1)],
    "latency:p=0.1:x=1_000:device=log": [
        ("latency", "log", 0.1, 1000.0, None, 1.0, 1)],
    " transient : p = 0.5 : device = log ": [
        ("transient", "log", 0.5, 10.0, None, 1.0, 1)],
    "transient :p=.25": [
        ("transient", "all", 0.25, 10.0, None, 1.0, 1)],
    ",,ssd_die@t=1,,transient:p=1e-3,": [
        ("ssd_die", "ssd", 0.0, 10.0, 1.0, 1.0, 1),
        ("transient", "all", 0.001, 10.0, None, 1.0, 1)],
    "transient:p=0.02:device=disk,transient:p=0.02:device=log": [
        ("transient", "disk", 0.02, 10.0, None, 1.0, 1),
        ("transient", "log", 0.02, 10.0, None, 1.0, 1)],
}

REFUSED_FAULTS = (
    "transient::p=0.1",
    "Transient:p=0.1",
    "TRANSIENT",
    "transient:p=0.1:",
    ":transient:p=0.1",
    "transient:p",
    "transient:p=",
    "transient:p=0.1=",
    "transient:q=1",
    "transient:P=0.1",
    "transient:p=0.1:p=0.2",
    "transient:p=1.5",
    "transient:p=-0.1",
    "transient:p=0.1:device=usb",
    "transient:p=0.1:device=SSD",
    "latency:x=0.5",
    "ssd_die",
    "ssd_die@dur=1",
    "ssd_die@t=1:t=1",
    "disk_stall@t=1:dur=2:t=3",
    "ssd_stall@t=1:dur=1:device=ssd",
    "ssd_chan_die@t=1:n=0.5",
    "gc_stall@t=1:dur=",
    "ssd_die@t=1,explode",
)

TENANTS = {
    "web=poisson:users=800000:think=100:theta=0.6;"
    "batch=bursty:users=400000:think=200:burst=8:theta=0.95": [
        ("web", "PoissonArrivals", 8000.0, 800000.0, {}, 0.6),
        ("batch", "BurstyArrivals", 2000.0, 400000.0,
         {"burst": 8.0, "on_fraction": 0.2, "cycle": 10.0}, 0.95)],
    "gold=poisson:users=800000:think=100:theta=0.6;"
    "noisy=bursty:rate=300:burst=10:theta=0.99": [
        ("gold", "PoissonArrivals", 8000.0, 800000.0, {}, 0.6),
        ("noisy", "BurstyArrivals", 300.0, 30000.0,
         {"burst": 10.0, "on_fraction": 0.2, "cycle": 10.0}, 0.99)],
    "a=POISSON::rate=10": [
        ("a", "PoissonArrivals", 10.0, 1000.0, {}, None)],
    "a=poisson:rate=10:": [
        ("a", "PoissonArrivals", 10.0, 1000.0, {}, None)],
    "a=:poisson:rate=10": [
        ("a", "PoissonArrivals", 10.0, 1000.0, {}, None)],
    "a=poisson:rate=10: theta=0.5": [
        ("a", "PoissonArrivals", 10.0, 1000.0, {}, 0.5)],
    "a=bursty:rate=10:on=0.3:cycle=5": [
        ("a", "BurstyArrivals", 10.0, 1000.0,
         {"burst": 8.0, "on_fraction": 0.3, "cycle": 5.0}, None)],
    "a=bursty:rate=10:on_fraction=0.3:burst=1": [
        ("a", "BurstyArrivals", 10.0, 1000.0,
         {"burst": 1.0, "on_fraction": 0.3, "cycle": 10.0}, None)],
    "a=diurnal:rate=5:period=60:peak=4": [
        ("a", "DiurnalArrivals", 5.0, 500.0,
         {"period": 60.0, "peak": 4.0}, None)],
    "a=poisson:users=1000": [
        ("a", "PoissonArrivals", 10.0, 1000.0, {}, None)],
    "a=poisson:rate=10:think=50": [
        ("a", "PoissonArrivals", 10.0, 500.0, {}, None)],
    "a=poisson:rate=10:users=99": [
        ("a", "PoissonArrivals", 10.0, 99.0, {}, None)],
    "a=poisson:users=100:think=2:rate=7": [
        ("a", "PoissonArrivals", 7.0, 100.0, {}, None)],
    " a = poisson : rate = 10 ;; b=Diurnal:rate=3 ; ": [
        ("a", "PoissonArrivals", 10.0, 1000.0, {}, None),
        ("b", "DiurnalArrivals", 3.0, 300.0,
         {"period": 86400.0, "peak": 3.0}, None)],
    "a=poisson:rate=1e3:theta=1e-3": [
        ("a", "PoissonArrivals", 1000.0, 100000.0, {}, 0.001)],
    "a=poisson:rate=1_000:theta=5": [
        ("a", "PoissonArrivals", 1000.0, 100000.0, {}, 5.0)],
}

REFUSED_TENANTS = (
    "",
    ";;",
    "a",
    "a=",
    "=poisson:rate=1",
    "a:b=poisson:rate=1",
    "a=poisson:rate=1;a=poisson:rate=2",
    "a=poisson",
    "a=zipf:rate=10",
    "a=poisson:rate",
    "a=poisson:rate=",
    "a=poisson:rate=-1",
    "a=poisson:rate=0",
    "a=poisson:rate=10:rate=20",
    "a=poisson:rate=10:burst=2",
    "a=poisson:rate=10:on=0.5",
    "a=poisson:rate=10:foo=bar",
    "a=poisson:users=10:think=0",
    "a=poisson:users=10:think=-1",
    "a=bursty:rate=10:on=0.3:on_fraction=0.3",
    "a=bursty:rate=10:burst=0.5",
    "a=bursty:rate=10:on=1",
    "a=diurnal:rate=1:peak=0.5",
    "a=theta=0.5:poisson:rate=10",
    "a=poisson:rate=10:THETA=1",
    "a=poisson:rate=10:theta=",
    "a=poisson:rate=10:theta=0",
    "a=poisson:rate=10:theta=0.5:theta=0.9",
    "a=poisson: :rate=10",
)


@pytest.mark.parametrize("text", FAULTS)
def test_a_valid_fault_plan_parses_as_pinned(text):
    assert parsed_faults(text) == FAULTS[text]


@pytest.mark.parametrize("text", TENANTS)
def test_a_valid_tenants_spec_parses_as_pinned(text):
    assert parsed_tenants(text) == TENANTS[text]


@pytest.mark.parametrize("text", REFUSED_FAULTS)
def test_a_hostile_fault_plan_stays_refused(text):
    with pytest.raises(ValueError):
        FaultPlan.parse(text)


@pytest.mark.parametrize("text", REFUSED_TENANTS)
def test_a_hostile_tenants_spec_stays_refused(text):
    with pytest.raises(ValueError):
        parse_tenants(text)


def test_parse_arrivals_alone_keeps_its_quirks():
    assert parsed_arrivals(parse_arrivals("  Bursty:rate=5::on=0.5  ")) == (
        "BurstyArrivals", 5.0, 500.0,
        {"burst": 8.0, "on_fraction": 0.5, "cycle": 10.0})
    for text in ("", ":::", "poisson:rate=1:theta=1", "poisson: :rate=1"):
        with pytest.raises(ValueError):
            parse_arrivals(text)
