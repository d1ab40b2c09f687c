"""The two small grammars refuse what they cannot mean, at parse time.

``--faults`` and ``--tenants`` used to swallow a fractional channel
count, a negative or infinite stall, a straggler factor below 1, a
trigger time of ``nan``, a key given twice — or fail with a message that
named neither the clause nor the field.  Each is a ``ValueError`` naming
both, raised before the first run starts.
"""

import pytest

from repro.cli import main
from repro.faults import FaultPlan
from repro.harness.experiments import RunSpec
from repro.workloads.traffic import parse_tenants

#: clause -> the field its rejection must name
HOSTILE_FAULTS = {
    "ssd_chan_die@t=1:n=1.9": "n=1.9",      # was: silently 1 channel
    "ssd_chan_die@t=1:n=0": "n=0",
    "ssd_chan_die@t=1:n=many": "n=many",
    "ssd_stall@t=1:dur=-2": "dur=-2",
    "log_stall@t=1:dur=inf": "dur=inf",
    "gc_stall@t=1:dur=nan": "dur=nan",
    "latency:p=0.5:x=0": "x=0",             # was: a negative service delay
    "latency:p=0.5:x=-3": "x=-3",
    "latency:p=0.5:x=inf": "x=inf",
    "ssd_die@t=-5": "t=-5",
    "ssd_die@t=nan": "t=nan",               # was: fired at install
    "disk_stall@t=inf:dur=1": "t=inf",
    "transient:p=nan": "p=nan",
    "transient:p=0.1:device=ssd:device=log": "device",  # was: last wins
    "ssd_stall@t=1:t=2:dur=1": "t",
}

#: tenants spec -> the tenant and the field its rejection must name
HOSTILE_TENANTS = {
    "a=poisson:rate=10:theta=abc": ("'a'", "theta"),    # was: float()'s own
    "a=poisson:rate=10;b=poisson:rate=5:theta=nan": ("'b'", "theta"),
    "a=poisson:rate=10:theta=-1": ("'a'", "theta"),
    "a=poisson:rate=10:theta=0.5:theta=0.9": ("'a'", "theta"),
    "a=poisson:rate=nan": ("'a'", "rate"),
    "a=poisson:rate=inf": ("'a'", "rate"),
    "a=poisson:rate=10:rate=20": ("'a'", "rate"),
    "a=poisson:users=nan": ("'a'", "users"),
    "a=bursty:rate=10:burst=nan": ("'a'", "burst"),
    "a=poisson:rate=ten": ("'a'", "rate"),
}


@pytest.mark.parametrize("clause", sorted(HOSTILE_FAULTS))
def test_fault_plan_refuses_the_clause_naming_the_field(clause):
    with pytest.raises(ValueError) as refused:
        FaultPlan.parse(f"transient:p=0.01,{clause}")
    assert HOSTILE_FAULTS[clause] in str(refused.value)
    assert repr(clause) in str(refused.value)


def test_fault_plan_still_takes_the_edges_of_each_range():
    plan = FaultPlan.parse("ssd_stall@t=0:dur=0,latency:p=1:x=1,"
                           "ssd_chan_die@t=1e3:n=8.0,transient:p=0")
    stall, latency, chan, transient = plan.specs
    assert (stall.at, stall.duration) == (0.0, 0.0)
    assert (latency.p, latency.factor) == (1.0, 1.0)
    assert (chan.at, chan.count) == (1000.0, 8)
    assert transient.p == 0.0


@pytest.mark.parametrize("spec", sorted(HOSTILE_TENANTS))
def test_tenants_refuse_the_spec_naming_tenant_and_field(spec):
    with pytest.raises(ValueError) as refused:
        parse_tenants(spec)
    tenant, field = HOSTILE_TENANTS[spec]
    assert f"tenant {tenant}" in str(refused.value)
    assert field in str(refused.value)


@pytest.mark.parametrize("spec", sorted(HOSTILE_TENANTS))
def test_a_traffic_run_spec_fails_before_it_can_run(spec):
    with pytest.raises(ValueError, match="tenants: tenant"):
        RunSpec("traffic", "tpcc", 100, "LC", tenants=spec)


def test_the_cli_refuses_both_before_the_first_run(capsys):
    assert main(["oltp", "--designs", "LC", "--no-db",
                 "--faults", "ssd_die@t=nan"]) == 2
    captured = capsys.readouterr()
    assert "--faults: t=nan" in captured.err and "ran " not in captured.err
    assert main(["traffic", "--designs", "LC", "--no-db",
                 "--tenants", "a=poisson:rate=10:theta=abc"]) == 2
    captured = capsys.readouterr()
    assert "tenant 'a'" in captured.err and "ran " not in captured.err
