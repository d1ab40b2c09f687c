"""Unit tests for the HDD array and SSD device models."""

import random

import pytest

import repro.sim.process as process_module
from repro.faults import DeviceDeadError
from repro.faults.injector import FaultInjector
from repro.sim import Environment
from repro.storage import HddArray, IoKind, IORequest, Ssd
from repro.storage.device import TrafficRecorder
from repro.telemetry import Telemetry
from tests.conftest import drive, scrape


def latency(request):
    """Queueing + service time of a completed request."""
    return request.completed_at - request.submitted_at


class TestHddStriping:
    def test_disk_of_rotates_by_stripe(self, env):
        hdd = HddArray(env, ndisks=4, stripe_pages=8)
        assert hdd.disk_of(0) == 0
        assert hdd.disk_of(7) == 0
        assert hdd.disk_of(8) == 1
        assert hdd.disk_of(32) == 0

    def test_lba_is_per_drive_contiguous(self, env):
        hdd = HddArray(env, ndisks=4, stripe_pages=8)
        # Drive 1 holds addresses 8..15, 40..47, ... -> LBAs 0..7, 8..15.
        assert hdd.lba_of(8) == 0
        assert hdd.lba_of(15) == 7
        assert hdd.lba_of(40) == 8

    def test_split_respects_stripe_boundaries(self, env):
        hdd = HddArray(env, ndisks=4, stripe_pages=8)
        fragments = hdd._split(IORequest(IoKind.SEQUENTIAL_READ, 6, 10))
        assert [(f.address, f.npages) for f in fragments] == [(6, 2), (8, 8)]

    def test_single_stripe_request_not_split(self, env):
        hdd = HddArray(env, ndisks=4, stripe_pages=8)
        request = IORequest(IoKind.SEQUENTIAL_READ, 8, 8)
        assert hdd._split(request) == [request]

    def test_ndisks_validation(self, env):
        with pytest.raises(ValueError):
            HddArray(env, ndisks=0)


class TestHddTiming:
    def test_random_read_latency_near_8ms(self, env):
        hdd = HddArray(env)
        request = drive(env, self._one(env, hdd,
                                       IORequest(IoKind.RANDOM_READ, 4096)))
        assert latency(request) == pytest.approx(8 / 1015, rel=0.01)

    def test_second_adjacent_read_avoids_seek(self, env):
        hdd = HddArray(env)
        first = IORequest(IoKind.RANDOM_READ, 0)
        second = IORequest(IoKind.RANDOM_READ, 1)
        drive(env, self._one(env, hdd, first))
        drive(env, self._one(env, hdd, second))
        assert latency(second) < latency(first) / 5

    def test_far_jump_on_same_disk_seeks_again(self, env):
        hdd = HddArray(env, ndisks=8, stripe_pages=8)
        first = IORequest(IoKind.RANDOM_READ, 0)
        far = IORequest(IoKind.RANDOM_READ, 64 * 100)  # disk 0, far LBA
        drive(env, self._one(env, hdd, first))
        drive(env, self._one(env, hdd, far))
        assert latency(far) == pytest.approx(latency(first), rel=0.05)

    def test_multipage_spans_disks_in_parallel(self, env):
        hdd = HddArray(env, ndisks=8, stripe_pages=8)
        wide = IORequest(IoKind.SEQUENTIAL_READ, 0, 64)  # one stripe row
        narrow = IORequest(IoKind.SEQUENTIAL_READ, 0, 8)
        t_wide = self._elapsed(hdd, wide)
        t_narrow = self._elapsed(HddArray(Environment(), 8, 8), narrow)
        # 64 pages over 8 drives should take about as long as 8 on one.
        assert t_wide < t_narrow * 2

    @staticmethod
    def _one(env, device, request):
        yield device.submit(request)
        return request

    def _elapsed(self, device, request):
        env = device.env
        start = env.now
        drive(env, self._one(env, device, request))
        return env.now - start


class TestSsdTiming:
    def test_random_read_latency(self, env):
        ssd = Ssd(env)
        request = IORequest(IoKind.RANDOM_READ, 123)

        def proc():
            yield ssd.submit(request)

        drive(env, proc())
        assert latency(request) == pytest.approx(8 / 12_182, rel=0.01)

    def test_sequential_cheaper_than_random(self, env):
        ssd = Ssd(env)
        random_req = IORequest(IoKind.RANDOM_READ, 0)
        seq_req = IORequest(IoKind.SEQUENTIAL_READ, 0)
        assert ssd.service_time(seq_req) < ssd.service_time(random_req)

    def test_channel_scaling_preserves_aggregate(self, env):
        narrow = Ssd(env, channels=4)
        wide = Ssd(env, channels=16)
        request = IORequest(IoKind.RANDOM_READ, 0)
        # aggregate IOPS = channels / service: equal by construction.
        assert 4 / narrow.service_time(request) == pytest.approx(
            16 / wide.service_time(request), rel=0.001)

    def test_pending_counts_from_submit_to_completion(self, env):
        ssd = Ssd(env, channels=2)
        for i in range(5):
            ssd.submit(IORequest(IoKind.RANDOM_READ, i))
        assert ssd.pending == 5  # counted at submit time (throttle, §3.3.2)
        env.run()
        assert ssd.pending == 0


class TestCallbackCompletion:
    """The two-event I/O life cycle (DESIGN.md §13): service timer,
    then ``done`` — no process, no channel-grant event."""

    def test_uncontended_io_schedules_exactly_two_events(self, env):
        ssd = Ssd(env)
        before = env._seq
        done = ssd.read(0)
        env.run(done)
        assert done.value.completed_at == env.now
        assert env._seq - before == 2

    def test_queued_ios_are_served_fifo_and_pending_counts_down(self, env):
        ssd = Ssd(env, channels=2)
        finished, pending_seen = [], []

        def waiter(index, done):
            yield done
            finished.append(index)
            pending_seen.append(ssd.pending)

        for index in range(5):  # channels + 3 at one instant
            env.spawn(waiter(index, ssd.submit(
                IORequest(IoKind.RANDOM_READ, index))))
        assert ssd.channels.busy == 2 and len(ssd.channels.waiting) == 3
        env.run()
        assert finished == [0, 1, 2, 3, 4]
        # I/Os finishing in one instant are all accounted before the
        # first waiter resumes (what the §3.3.2 throttle reads).
        assert pending_seen == [3, 3, 1, 1, 0]
        assert ssd.channels.busy == 0 and not ssd.channels.waiting
        service = ssd.service_time(IORequest(IoKind.RANDOM_READ, 0))
        assert env.now == pytest.approx(3 * service)

    def test_service_time_error_releases_channel_and_serves_the_next(
            self, env):
        class Flaky(Ssd):
            def service_time(self, request):
                if request.address == 13:
                    raise RuntimeError("bad request")
                return super().service_time(request)

        ssd = Flaky(env, channels=1)
        first = ssd.read(0)
        ssd.read(13)            # queued; blows up when it gets the channel
        last = ssd.read(2)      # queued behind it
        with pytest.raises(RuntimeError, match="bad request"):
            env.run()
        # The failed start passed the channel on instead of leaking it.
        assert ssd.pending == 1 and ssd.channels.busy == 1
        env.run()
        assert first.ok and last.ok
        assert ssd.pending == 0 and ssd.channels.busy == 0
        assert ssd.stats.completed == 2

    def test_service_time_error_on_a_free_channel_raises_in_submit(
            self, env):
        class Broken(Ssd):
            def service_time(self, request):
                raise RuntimeError("bad request")

        ssd = Broken(env)
        with pytest.raises(RuntimeError, match="bad request"):
            ssd.read(0)
        assert ssd.pending == 0 and ssd.channels.busy == 0

    def test_reset_after_wipe_forgets_inflight_work(self, env):
        ssd = Ssd(env, channels=2)
        for index in range(5):
            ssd.read(index)
        env.run(until=ssd.service_time(IORequest(IoKind.RANDOM_READ, 0)) / 2)
        env.wipe()
        ssd.reset()
        assert ssd.pending == 0
        assert ssd.channels.busy == 0 and not ssd.channels.waiting
        assert ssd.channels.capacity == 2
        env.run()  # nothing left to fire
        assert ssd.stats.completed == 0
        done = ssd.read(9)
        env.run(done)
        assert done.ok and ssd.pending == 0


class _Completions(TrafficRecorder):
    """Logs ``(when, address)`` per fragment; ``poison`` raises instead."""

    def __init__(self, poison=None):
        super().__init__(1.0)
        self.poison = poison
        self.log = []

    def record(self, when, request):
        if request.address == self.poison:
            raise RuntimeError("bad record")
        self.log.append((when, request.address))


class TestHddCallbackLifeCycle:
    """``HddArray`` without processes (DESIGN.md §13): one hop after
    ``submit``, a timer per fragment, two hops after the last, ``done``."""

    READ = IORequest(IoKind.RANDOM_READ, 0)

    @pytest.fixture
    def processes(self, monkeypatch):
        """Every process object of any kind built during the test."""
        built = []
        bind = process_module.Process._bind

        def counting_bind(self, env, generator):
            built.append(generator)
            bind(self, env, generator)

        monkeypatch.setattr(process_module.Process, "_bind", counting_bind)
        return built

    @pytest.mark.parametrize("npages, fragments", [(1, 1), (8, 1), (20, 3)])
    def test_request_of_f_fragments_costs_f_plus_4_entries(
            self, env, processes, npages, fragments):
        hdd = HddArray(env, ndisks=4, stripe_pages=8)
        before = env._seq
        done = hdd.read(0, npages, random=False)
        env.run(done)
        assert done.value.completed_at == env.now
        assert hdd.stats.completed == fragments
        assert env._seq - before == fragments + 4
        assert not processes

    @pytest.mark.parametrize("npages, fragments", [(1, 1), (20, 3)])
    def test_with_an_injector_all_the_generator_models_hops_stay(
            self, env, processes, npages, fragments):
        hdd = HddArray(env, ndisks=4, stripe_pages=8)
        FaultInjector(env, hdd, random.Random("quiet"))
        before = env._seq
        env.run(hdd.read(0, npages, random=False))
        assert env._seq - before == 2 * fragments + 5
        assert not processes

    @pytest.mark.parametrize("faulted, entries", [(False, 5), (True, 7)])
    def test_a_queued_fragment_costs_what_an_unqueued_one_does(
            self, env, faulted, entries):
        hdd = HddArray(env, ndisks=1)
        if faulted:
            FaultInjector(env, hdd, random.Random("quiet"))
        before = env._seq
        last = [hdd.read(address) for address in (0, 64, 128)][-1]
        drives = hdd._drives
        env.run(until=0.0)   # the submit-side hops only
        assert drives[0].busy == 1 and len(drives[0].waiting) == 2
        env.run(last)
        assert env._seq - before == 3 * entries

    def test_each_drive_serves_fifo_and_seeks_by_head_position(self, env):
        hdd = HddArray(env, ndisks=2, stripe_pages=8)
        seen = hdd.traffic = _Completions()
        seek = hdd.service_time(self.READ)
        near = hdd.service_time(IORequest(IoKind.SEQUENTIAL_READ, 0))
        # Drive 0: page 0, then 64 (LBA 32: a seek away), then 1 — which
        # sat next to the head until 64 moved it.  Drive 1: page 8, 9.
        for address in (0, 64, 8, 1, 9):
            hdd.read(address)
        env.run()
        assert seen.log == [(seek, 0), (seek, 8), (seek + near, 9),
                            (2 * seek, 64), (3 * seek, 1)]
        assert hdd.stats.busy_time == pytest.approx(4 * seek + near)

    def test_pending_falls_two_hops_after_the_last_timer_before_done(
            self, env):
        hdd = HddArray(env, ndisks=4, stripe_pages=8)
        done = hdd.read(0, 20, random=False)     # fragments of 8, 8, 4
        env.step()                               # the hop after submit
        assert [d.busy for d in hdd._drives] == [1, 1, 1, 0]
        env.step(), env.step()                   # the 4-page, one 8-page
        assert hdd.stats.completed == 2 and hdd.pending == 1
        env.step()                               # the last timer
        assert hdd.stats.completed == 3 and hdd.pending == 1
        env.step()
        assert hdd.pending == 1 and not done.triggered
        env.step()
        assert hdd.pending == 0 and done.triggered and not done.processed
        env.step()
        assert done.processed and env.peek() == float("inf")

    def test_raising_traffic_record_frees_drive_and_count(self, env):
        hdd = HddArray(env, ndisks=1)
        hdd.traffic = _Completions(poison=13)
        bad, queued = hdd.read(13), hdd.read(64)
        with pytest.raises(RuntimeError, match="bad record"):
            env.run()
        # The queued fragment got the drive, and the fragment whose
        # accounting raised was served all the same.
        assert hdd._drives[0].busy == 1 and not hdd._drives[0].waiting
        env.run()
        assert bad.ok and queued.ok
        assert hdd.pending == 0 and hdd._drives[0].busy == 0

    def test_raising_service_computation_passes_the_drive_on(self, env):
        class Flaky(HddArray):
            __slots__ = ()

            def lba_of(self, address):
                if address == 13:
                    raise RuntimeError("bad address")
                return super().lba_of(address)

        hdd = Flaky(env, ndisks=1)
        first, bad, last = hdd.read(0), hdd.read(13), hdd.read(64)
        with pytest.raises(RuntimeError, match="bad address"):
            env.run()
        # Raised as ``first`` handed the drive over: ``first`` still
        # completes, ``last`` has the drive.
        assert hdd.pending == 2 and hdd._drives[0].busy == 1
        env.run()
        assert first.ok and last.ok and not bad.triggered
        assert hdd.pending == 0 and hdd.stats.completed == 2

    def test_rejected_submit_schedules_only_the_failed_event(self, env):
        hdd = HddArray(env)
        FaultInjector(env, hdd, random.Random("dead")).kill()
        before = env._seq
        done = hdd.read(0)
        assert env._seq - before == 1 and hdd.pending == 0
        with pytest.raises(DeviceDeadError):
            env.run(done)

    def test_reset_after_wipe_forgets_inflight_work(self, env):
        hdd = HddArray(env, ndisks=2, stripe_pages=8)
        for address in (0, 64, 8, 0):
            hdd.read(address, 12, random=False)  # two fragments each
        env.run(until=hdd.service_time(self.READ) / 2)
        assert hdd.pending == 4
        env.wipe()
        hdd.reset()
        hdd.check_invariants()
        assert hdd.pending == 0
        assert all(d.busy == 0 and not d.waiting for d in hdd._drives)
        env.run()  # nothing left to fire
        assert hdd.stats.completed == 0
        # Heads are parked again: page 1 pays the seek page 0 paid.
        done = hdd.submit(IORequest(IoKind.RANDOM_READ, 1))
        env.run(done)
        assert latency(done.value) == hdd.service_time(self.READ)
        assert hdd.pending == 0

    def test_invariant_check_sees_a_leaked_drive_and_a_leaked_count(
            self, env):
        hdd, ssd = HddArray(env), Ssd(env)
        hdd._drives[3].busy = 1
        with pytest.raises(AssertionError, match="drives hold 1"):
            hdd.check_invariants()
        hdd._drives[3].busy = 0
        ssd._outstanding = 1
        with pytest.raises(AssertionError, match="pending 1"):
            ssd.check_invariants()
        ssd._outstanding = 0


class TestStats:
    def test_read_write_page_counts(self, env):
        ssd = Ssd(env)

        def proc():
            yield ssd.read(0, npages=2)
            yield ssd.write(5, npages=3)

        drive(env, proc())
        assert ssd.stats.pages_read == 2
        assert ssd.stats.pages_written == 3
        assert ssd.stats.completed == 2

    def test_by_kind_histogram(self, env):
        ssd = Ssd(env)

        def proc():
            yield ssd.read(0, random=True)
            yield ssd.read(1, random=False)
            yield ssd.write(2, random=True)

        drive(env, proc())
        assert ssd.stats.by_kind[IoKind.RANDOM_READ] == 1
        assert ssd.stats.by_kind[IoKind.SEQUENTIAL_READ] == 1
        assert ssd.stats.by_kind[IoKind.RANDOM_WRITE] == 1

    def test_an_array_counts_fragments_in_stats_and_requests_beside(
            self, env):
        """``stats`` record what each drive served, so on a striped
        array they count *fragments*; ``io_requests_total`` reads the
        array's own whole-request count, ``io_pages_total`` the stats."""
        telemetry = Telemetry()
        hdd = HddArray(env, ndisks=4, stripe_pages=8)
        hdd.attach_telemetry(telemetry)
        env.run(hdd.read(0, 20, random=False))  # three drives: 8 + 8 + 4
        env.run(hdd.read(40, 1))
        assert hdd.stats.completed == 4
        assert hdd.stats.by_kind[IoKind.SEQUENTIAL_READ] == 3
        assert hdd.requests_by_kind[IoKind.SEQUENTIAL_READ] == 1
        assert hdd.stats.pages_read == 21
        rows = scrape(telemetry.registry)
        assert rows["io_requests_total", "hdd-array", "sequential_read"] == 1
        assert rows["io_pages_total", "hdd-array", "sequential_read"] == 20
        assert sum(value for (name, *_), value in rows.items()
                   if name == "io_requests_total") == 2
        # A plain device has no fragments: one count serves both.
        ssd = Ssd(env)
        env.run(ssd.read(0, 20, random=False))
        assert ssd.requests_by_kind is ssd.stats.by_kind
        assert ssd.stats.completed == 1


class TestTrafficRecorder:
    def test_buckets_by_completion_time(self):
        recorder = TrafficRecorder(bucket_seconds=1.0)
        recorder.record(0.5, IORequest(IoKind.RANDOM_READ, 0, 4))
        recorder.record(1.5, IORequest(IoKind.RANDOM_WRITE, 0, 2))
        series = recorder.series()
        assert len(series) == 2
        t0, read0, write0 = series[0]
        assert read0 > 0 and write0 == 0
        __, read1, write1 = series[1]
        assert read1 == 0 and write1 > 0

    def test_validates_bucket_size(self):
        import pytest
        with pytest.raises(ValueError):
            TrafficRecorder(0)

    def test_attach_to_device(self, env):
        ssd = Ssd(env)
        recorder = ssd.attach_traffic_recorder(1.0)

        def proc():
            yield ssd.read(0, npages=8)

        drive(env, proc())
        assert recorder.series()
