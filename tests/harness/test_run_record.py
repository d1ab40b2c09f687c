"""One RunSpec in, one self-describing record out.

The record (``RunResult`` / ``TpchResult``) is what the sweep cache
stores, the run store flattens and the CLI tables print, so it must
survive ``to_dict`` → JSON → ``from_dict`` with nothing lost, for every
kind of run; and the refactor that introduced it must not have moved a
recorded number.
"""

import json

import pytest

from repro.harness.experiments import RunSpec, run
from repro.harness.sweep import SweepReport, summarize

CELL = dict(benchmark="tpcc", scale=20, design="LC", profile="tiny",
            duration=4.0, nworkers=4)
TWO_TENANTS = ("gold=poisson:rate=40:theta=0.6;"
               "noisy=bursty:rate=30:burst=10:theta=0.99")

#: name -> (spec, fault plan)
CASES = {
    "oltp": (RunSpec(kind="oltp", **CELL), None),
    "ftl": (RunSpec(kind="oltp", ftl=True, **CELL), None),
    "detached": (RunSpec(kind="oltp", **CELL), "ssd_die@t=2"),
    "traffic": (RunSpec(kind="traffic", tenants=TWO_TENANTS,
                        queue_limit=200, **{**CELL, "duration": 8.0,
                                            "nworkers": 8}), None),
    "tpch": (RunSpec(kind="tpch", benchmark="tpch", scale=30, design="DW",
                     profile="tiny"), None),
}


@pytest.fixture(scope="module", params=list(CASES))
def live_and_restored(request):
    spec, faults = CASES[request.param]
    live = run(spec, faults=faults)
    wire = json.loads(json.dumps(live.to_dict()))
    return request.param, live, spec.result_type.from_dict(wire)


class TestRoundTrip:
    def test_record_is_a_fixed_point(self, live_and_restored):
        _, live, restored = live_and_restored
        assert restored.to_dict() == live.to_dict()

    def test_metrics_live_equals_restored(self, live_and_restored):
        _, live, restored = live_and_restored
        assert restored.metrics() == live.metrics()
        assert restored.metric_name == live.metric_name

    def test_restored_has_no_live_system(self, live_and_restored):
        name, live, restored = live_and_restored
        if name != "tpch":
            assert live.system is not None
            assert restored.system is None

    def test_kind_specific_fields_survive(self, live_and_restored):
        name, live, restored = live_and_restored
        if name == "ftl":
            assert restored.ftl_stats == live.ftl_stats
            assert restored.waf == live.waf > 0
            assert restored.wear_spread == live.wear_spread
        elif name == "detached":
            assert live.ssd_detached and restored.ssd_detached
            assert (restored.ssd_stats.detach_redo_pages
                    == live.ssd_stats.detach_redo_pages > 0)
        elif name == "traffic":
            assert set(restored.tenants) == {"gold", "noisy"}
            assert restored.logical_users == live.logical_users == 7000.0
            assert restored.offered == live.offered > 0
            assert (restored.queue_wait_percentile(99)
                    == live.queue_wait_percentile(99))
            for tenant, stats in live.tenants.items():
                got = restored.tenants[tenant]
                assert got.completed == stats.completed
                assert (got.queue_waits.percentile(99)
                        == stats.queue_waits.percentile(99))
        elif name == "tpch":
            assert restored.query_times == live.query_times
            assert restored.qphh == live.qphh > 0


def test_golden_cell_metrics_and_summary_row():
    """The literals were captured at the parent of the record refactor
    (``metrics_from_result`` and ``summarize`` over a live run): the
    refactor changed no recorded number."""
    spec, _ = CASES["oltp"]
    result = run(spec)
    assert result.metric_name == "tpmC"
    assert result.metrics() == {
        "bp_hit_rate": 0.9998030846523114,
        "checkpoints_taken": 0.0,
        "detach_redo_pages": 0.0,
        "io_retries": 0.0,
        "latency_mean": 0.001573178142250685,
        "latency_p50": 0.001690795730740824,
        "latency_p95": 0.001690795730740824,
        "latency_p99": 0.001690795730740824,
        "ssd_detached": 0.0,
        "ssd_dirty_frames": 124.0,
        "ssd_hit_rate": 0.2702702702702703,
        "ssd_used_frames": 124.0,
        "total_txns": 4529.0,
        "value": 68220.0,
    }
    report = SweepReport(results={spec: result})
    (row,) = summarize(report)
    assert row == {"spec": spec.to_dict(), "metric": "tpmC",
                   "value": 68220.0, "total_txns": 4529}


@pytest.mark.parametrize("change,match", [
    ({"kind": "batch"}, "run kind"),
    ({"design": "WARP"}, "design"),
    ({"benchmark": "tpcx"}, "benchmark"),
    ({"benchmark": "tpch"}, "cannot drive"),
    ({"kind": "tpch"}, "cannot drive"),
    ({"profile": "gigantic"}, "profile"),
    ({"kernel": "calendar"}, "kernel"),
    ({"kind": "traffic"}, "tenants"),
    ({"kind": "traffic", "tenants": "gold=teleport:rate=1"}, "tenants"),
    ({"latch_us": float("nan")}, "latch_us"),
    ({"latch_us": float("inf")}, "latch_us"),
    ({"latch_us": -1.0}, "latch_us"),
    ({"bucket_seconds": float("inf")}, "bucket_seconds"),
    ({"scale": 0}, "scale"),
    ({"scale": 20.5}, "scale"),
    ({"kind": "tpch", "benchmark": "tpch", "scale": -30}, "scale"),
    ({"nworkers": 0}, "nworkers"),
    ({"nworkers": 2.5}, "nworkers"),
    ({"partitions": 0}, "partitions"),
    ({"partitions": 2.5}, "partitions"),
    ({"queue_limit": 0}, "queue_limit"),
    ({"dirty_threshold": 1.5}, "dirty_threshold"),
    ({"dirty_threshold": float("nan")}, "dirty_threshold"),
    ({"duration": float("nan")}, "duration"),
    ({"checkpoint_interval": float("nan")}, "checkpoint_interval"),
])
def test_spec_fails_at_construction(change, match):
    """A bad spec raises in the parent, before any system is built or
    any pool worker spawned."""
    with pytest.raises(ValueError, match=match):
        RunSpec(**{"kind": "oltp", **CELL, **change})
