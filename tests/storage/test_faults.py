"""Fault injection at the device layer, and the fault-plan grammar."""

import random

import pytest

from repro.faults import DeviceDeadError, TransientIoError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.storage import IoKind, IORequest, Ssd
from repro.storage.device import TrafficRecorder
from tests.conftest import drive


def submit_one(env, device):
    """Drive one read to completion; return (ok, exception_or_none)."""

    def proc():
        try:
            yield device.read(0)
        except Exception as exc:  # noqa: BLE001 - tests inspect the type
            return False, exc
        return True, None

    return drive(env, proc())


class TestTransientFaults:
    def test_transient_fails_the_completion_event(self, env):
        ssd = Ssd(env)
        injector = FaultInjector(env, ssd, random.Random("t"))
        injector.transient_p = 1.0
        ok, exc = submit_one(env, ssd)
        assert not ok
        assert isinstance(exc, TransientIoError)
        assert injector.stats["transient"] == 1

    def test_failed_io_does_not_leak_outstanding_count(self, env):
        """Regression: the ``_outstanding`` decrement must survive the
        failure path, or every failed I/O would permanently inflate
        ``pending`` and wedge the §3.3.2 throttle shut."""
        ssd = Ssd(env)
        injector = FaultInjector(env, ssd, random.Random("t"))
        injector.transient_p = 1.0
        for _ in range(5):
            ok, _ = submit_one(env, ssd)
            assert not ok
        assert ssd.pending == 0
        # The device still works once the fault clears.
        injector.transient_p = 0.0
        ok, _ = submit_one(env, ssd)
        assert ok
        assert ssd.pending == 0

    def test_failed_completion_hands_the_channel_to_the_next_request(
            self, env):
        ssd = Ssd(env, channels=1)
        injector = FaultInjector(env, ssd, random.Random("t"))
        injector.transient_p = 1.0
        outcomes = []

        def waiter(done):
            try:
                yield done
            except TransientIoError:
                outcomes.append("failed")
                injector.transient_p = 0.0  # the fault clears
            else:
                outcomes.append("ok")

        for address in range(3):  # one in service, two queued
            env.spawn(waiter(ssd.read(address)))
        env.run()
        assert outcomes == ["failed", "ok", "ok"]
        assert ssd.pending == 0
        assert ssd.channels.busy == 0 and not ssd.channels.waiting

    def test_on_complete_raising_still_releases_the_channel(self, env):
        ssd = Ssd(env, channels=1)
        injector = FaultInjector(env, ssd, random.Random("t"))
        calls = []

        def on_complete(request):
            calls.append(request.address)
            if len(calls) == 1:
                raise RuntimeError("injector bug")
            return None

        injector.on_complete = on_complete
        ssd.read(0)
        second = ssd.read(1)
        with pytest.raises(RuntimeError, match="injector bug"):
            env.run()
        assert ssd.pending == 1  # only the queued request remains
        env.run()
        assert second.ok and calls == [0, 1]
        assert ssd.pending == 0 and ssd.channels.busy == 0

    def test_faulted_io_keeps_the_arrival_and_grant_hops(self, env):
        """With an injector attached the hooks stay at the queue
        positions a process per I/O ran them at: two hops, the service
        timer and ``done`` — and a delay is a timer of its own."""
        ssd = Ssd(env)
        injector = FaultInjector(env, ssd, random.Random("t"))
        before = env._seq
        env.run(ssd.read(0))
        assert env._seq - before == 4
        injector.latency_p = 1.0
        before = env._seq
        env.run(ssd.read(1))
        assert env._seq - before == 5

    def test_transient_does_not_count_as_completed(self, env):
        ssd = Ssd(env)
        injector = FaultInjector(env, ssd, random.Random("t"))
        injector.transient_p = 1.0
        submit_one(env, ssd)
        assert ssd.stats.completed == 0


class TestDeadDevice:
    def test_submit_to_dead_device_fails_fast(self, env):
        ssd = Ssd(env)
        injector = FaultInjector(env, ssd, random.Random("d"))
        injector.kill()
        before = env.now
        ok, exc = submit_one(env, ssd)
        assert not ok
        assert isinstance(exc, DeviceDeadError)
        assert env.now == before  # rejected before queueing, no I/O time
        assert ssd.pending == 0
        assert injector.stats["dead_submit"] == 1

    def test_death_mid_flight_fails_inflight_ios(self, env):
        ssd = Ssd(env)
        injector = FaultInjector(env, ssd, random.Random("d"))

        def proc():
            done = ssd.read(0)
            injector.kill()  # dies while the I/O is in service
            try:
                yield done
            except DeviceDeadError:
                return "dead"
            return "ok"

        assert drive(env, proc()) == "dead"
        assert injector.stats["dead_inflight"] == 1
        assert ssd.pending == 0

    def test_kill_is_idempotent(self, env):
        ssd = Ssd(env)
        injector = FaultInjector(env, ssd, random.Random("d"))
        injector.kill()
        injector.kill()
        assert injector.stats["device_dead"] == 1


class TestLatencyAndStalls:
    def test_straggler_inflates_service_time(self, env):
        ssd = Ssd(env)

        def timed(device):
            start = env.now

            def proc():
                yield device.read(0)
                return env.now - start

            return drive(env, proc())

        baseline = timed(ssd)
        injector = FaultInjector(env, ssd, random.Random("l"))
        injector.latency_p = 1.0
        injector.latency_factor = 5.0
        inflated = timed(ssd)
        assert inflated == pytest.approx(5.0 * baseline)
        assert injector.stats["latency"] == 1

    def test_stall_window_delays_service(self, env):
        ssd = Ssd(env)
        injector = FaultInjector(env, ssd, random.Random("s"))
        injector.stall(0.5)

        def proc():
            start = env.now
            yield ssd.read(0)
            return env.now - start

        elapsed = drive(env, proc())
        assert elapsed > 0.5
        assert injector.stats["stall"] == 1

    def test_stall_in_the_past_is_inert(self, env):
        ssd = Ssd(env)
        injector = FaultInjector(env, ssd, random.Random("s"))
        injector.stall(0.25)
        env.run(until=1.0)
        ok, _ = submit_one(env, ssd)
        assert ok
        assert "stall" not in injector.stats


class TestDeterminism:
    def test_same_seed_same_fault_sequence(self):
        def run(seed):
            from repro.sim import Environment

            env = Environment()
            ssd = Ssd(env)
            injector = FaultInjector(env, ssd, random.Random(seed))
            injector.transient_p = 0.3
            injector.latency_p = 0.2
            outcomes = []
            for _ in range(50):
                ok, exc = submit_one(env, ssd)
                outcomes.append((ok, type(exc).__name__ if exc else None,
                                 round(env.now, 9)))
            return outcomes, dict(injector.stats)

        a = run("faults:42")
        b = run("faults:42")
        c = run("faults:43")
        assert a == b
        assert a != c  # a different seed draws a different sequence


class TestSeriesBoundary:
    """``TrafficRecorder.series(until=...)`` must *ceil* to the last
    (partial) bucket: flooring dropped it and truncated Figure 8."""

    def test_partial_final_bucket_is_kept(self):
        recorder = TrafficRecorder(bucket_seconds=2.0)
        recorder.record(0.5, IORequest(IoKind.RANDOM_READ, 0, 4))
        series = recorder.series(until=5.0)  # buckets [0,2), [2,4), [4,5]
        assert len(series) == 3
        assert [t for t, _, _ in series] == [0.0, 2.0, 4.0]

    def test_exact_boundary_adds_no_empty_bucket(self):
        recorder = TrafficRecorder(bucket_seconds=2.0)
        recorder.record(0.5, IORequest(IoKind.RANDOM_READ, 0, 4))
        series = recorder.series(until=4.0)  # ends exactly at a boundary
        assert len(series) == 2

    def test_until_never_shrinks_the_series(self):
        recorder = TrafficRecorder(bucket_seconds=1.0)
        recorder.record(3.5, IORequest(IoKind.RANDOM_WRITE, 0, 1))
        assert len(recorder.series(until=2.0)) == 4


class TestFaultPlanGrammar:
    def test_parses_the_docstring_examples(self):
        plan = FaultPlan.parse(
            "ssd_die@t=30,transient:p=0.001,latency:p=0.005:x=20,"
            "log_stall@t=10:dur=2")
        kinds = [s.kind for s in plan.specs]
        assert kinds == ["ssd_die", "transient", "latency", "log_stall"]
        die, transient, latency, stall = plan.specs
        assert die.at == 30.0 and die.device == "ssd"
        assert transient.p == 0.001 and transient.device == "all"
        assert latency.factor == 20.0
        assert stall.device == "log" and stall.duration == 2.0

    def test_device_scoping(self):
        plan = FaultPlan.parse("transient:p=0.01:device=ssd")
        assert plan.specs[0].device == "ssd"

    def test_empty_plan_is_falsy(self):
        assert not FaultPlan.parse("")
        assert FaultPlan.parse("transient:p=0.5")

    @pytest.mark.parametrize("bad", [
        "explode@t=1",                # unknown kind
        "transient:q=0.5",            # unknown parameter
        "transient:p",                # malformed key=value
        "transient:p=lots",           # non-numeric
        "transient:p=1.5",            # probability out of range
        "ssd_die",                    # missing required @t=
        "disk_stall:dur=2",           # missing required @t=
        "transient:p=0.1:device=nas",  # unknown device
    ])
    def test_rejects_malformed_clauses(self, bad):
        with pytest.raises(ValueError):
            FaultPlan.parse(bad)
