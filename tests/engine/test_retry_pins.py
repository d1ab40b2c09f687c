"""What a faulted data-volume or log I/O does, attempt for attempt.

The SSD manager's half is ``TestRetryPath`` in
``tests/core/test_ssd_manager.py``; this is the same contract for the two
callers that have no fallback: how often a failed request is submitted
again, at which virtual instants, what each ``io_retry`` instant says,
and which exception ends it.  ``TestSsdResubmits`` holds every SSD
retry to what the disk manager and the log do: the request the first
attempt submitted is the one submitted again.
"""

import inspect

import pytest

from repro.engine.disk_manager import DiskManager
from repro.engine.wal import WriteAheadLog
from repro.faults.errors import (RETRY_BASE_DELAY, RETRY_LIMIT,
                                 DeviceDeadError, TransientIoError)
from repro.storage import HddArray, IoKind
from repro.storage.hdd import _RATES
from repro.telemetry import EVICTION_CTX
from tests.conftest import MiniSystem, drive, profiled
from tests.core.test_ssd_manager import InstantLog


class Outcomes:
    """An injector that gives the device's next attempts the scripted
    outcomes, one per submission: ``ok``, ``transient`` or ``dead``
    (both reported when the transfer completes) or ``reject`` (death
    reported at ``submit``).  Past the script every attempt is ``ok``.
    ``raised`` keeps the faults it handed out, in order."""

    def __init__(self, device, script):
        self.script = list(script)
        self.raised = []
        device.attach_faults(self)

    def _fault(self, kind):
        attempt = len(self.raised) + 1
        fault = (TransientIoError(f"scripted transient {attempt}")
                 if kind == "transient"
                 else DeviceDeadError(f"scripted {kind} {attempt}"))
        self.raised.append(fault)
        return fault

    def on_submit(self, request):
        if self.script and self.script[0] == "reject":
            return self._fault(self.script.pop(0))
        return None

    def pre_service_delay(self, request, service):
        return 0.0

    def on_complete(self, request):
        kind = self.script.pop(0) if self.script else "ok"
        return None if kind == "ok" else self._fault(kind)


def failure_instants(start, first_service, retry_service, failures):
    """When attempts 1..failures fail: each a service time after it was
    submitted (the first pays the seek, a retry finds the head where the
    failed attempt left it), the next submitted a backoff delay later
    (base delay, doubled per retry)."""
    instants, now, delay = [], start, RETRY_BASE_DELAY
    for attempt in range(failures):
        now = now + (retry_service if attempt else first_service)
        instants.append(now)
        now = now + delay
        delay = delay * 2
    return instants


def services(kind, npages):
    """(first attempt, retry) service time of an ``npages`` request on a
    drive whose head is parked."""
    per_page, seek = _RATES[kind]
    return seek + per_page * npages, 0.0 + per_page * npages


#: name -> (the disk manager's step, the kind it submits, its pages)
DISK_OPS = {
    "read": (lambda disk: disk.read(40, npages=2), IoKind.RANDOM_READ, 2),
    "write": (lambda disk: disk.write(40, version=3), IoKind.RANDOM_WRITE, 1),
    "write_run": (lambda disk: disk.write_run(40, [3, 4, 5]),
                  IoKind.SEQUENTIAL_WRITE, 3),
}


class TestDiskRetry:
    @staticmethod
    def system(env, script):
        disk = DiskManager(env, HddArray(env), npages=100)
        log = disk._tracer = InstantLog(env)
        return disk, log, Outcomes(disk.device, script)

    @pytest.mark.parametrize("op", sorted(DISK_OPS))
    @pytest.mark.parametrize("failures", [1, RETRY_LIMIT])
    def test_transient_failures_within_the_budget(self, env, op, failures):
        disk, log, _ = self.system(env, ["transient"] * failures)
        step, kind, npages = DISK_OPS[op]
        env.run(until=0.25)             # not at the origin
        result = drive(env, step(disk))
        assert disk.retries == failures
        retries = log.named("io_retry")
        assert [args for _, args in retries] == [
            {"device": "hdd-array", "attempt": attempt, "address": 40}
            for attempt in range(1, failures + 1)]
        assert [now for now, _ in retries] == failure_instants(
            0.25, *services(kind, npages), failures)
        if op == "read":
            assert result == [0, 0]
        else:
            assert disk.disk_version(40) == 3
        assert disk.device.requests_by_kind[kind] == 1
        assert disk.device.pending == 0

    @pytest.mark.parametrize("op", sorted(DISK_OPS))
    def test_a_spent_budget_raises_the_last_fault(self, env, op):
        disk, log, faults = self.system(env, ["transient"] * (RETRY_LIMIT + 3))
        step, kind, npages = DISK_OPS[op]
        with pytest.raises(TransientIoError) as raised:
            drive(env, step(disk))
        # The failure after the RETRY_LIMIT-th retry ends it, counted.
        assert len(faults.raised) == RETRY_LIMIT + 1
        assert raised.value is faults.raised[-1]
        assert disk.retries == RETRY_LIMIT + 1
        retries = log.named("io_retry")
        assert [args["attempt"] for _, args in retries] == list(
            range(1, RETRY_LIMIT + 2))
        instants = failure_instants(0.0, *services(kind, npages),
                                    RETRY_LIMIT + 1)
        assert [now for now, _ in retries] == instants
        assert env.now == instants[-1]      # no backoff after the last
        assert disk.disk_version(40) == 0   # a failed write persists nothing
        assert disk.device.pending == 0

    @pytest.mark.parametrize("death", ["reject", "dead"])
    def test_death_on_the_first_attempt_is_re_raised_uncounted(self, env,
                                                               death):
        disk, log, faults = self.system(env, [death])
        with pytest.raises(DeviceDeadError) as raised:
            drive(env, disk.write(40, version=3))
        assert raised.value is faults.raised[0]
        assert disk.retries == 0 and log.named("io_retry") == []
        assert env.now == (0.0 if death == "reject"
                           else services(IoKind.RANDOM_WRITE, 1)[0])

    @pytest.mark.parametrize("death", ["reject", "dead"])
    def test_death_between_retries_ends_them(self, env, death):
        disk, log, faults = self.system(env, ["transient", "transient", death])
        with pytest.raises(DeviceDeadError) as raised:
            drive(env, disk.write(40, version=3))
        assert raised.value is faults.raised[2]
        assert disk.retries == 2
        retries = log.named("io_retry")
        assert [args["attempt"] for _, args in retries] == [1, 2]
        first, retry = services(IoKind.RANDOM_WRITE, 1)
        assert [now for now, _ in retries] == failure_instants(
            0.0, first, retry, 2)
        # The third attempt went in one doubled delay after the second
        # failure and died at once (rejected) or a service time later.
        submitted = retries[1][0] + RETRY_BASE_DELAY * 2
        assert env.now == (submitted if death == "reject"
                           else submitted + retry)
        assert disk.disk_version(40) == 0


class TestLogRetry:
    @staticmethod
    def system(env, script):
        wal = WriteAheadLog(env)
        log = wal._tracer = InstantLog(env)
        return wal, log, Outcomes(wal.device, script)

    @pytest.mark.parametrize("failures", [1, RETRY_LIMIT])
    def test_transient_failures_within_the_budget(self, env, failures):
        wal, log, _ = self.system(env, ["transient"] * failures)
        env.run(until=0.25)
        lsn = wal.append(7, 1)
        drive(env, wal.force(lsn))
        assert wal.flushed_lsn == lsn
        assert (wal.flushes, wal.pages_flushed) == (1, 1)
        assert wal.flush_retries == failures
        retries = log.named("io_retry")
        assert [args for _, args in retries] == [
            {"device": "log-disk", "attempt": attempt}
            for attempt in range(1, failures + 1)]
        assert [now for now, _ in retries] == failure_instants(
            0.25, *services(IoKind.SEQUENTIAL_WRITE, 1), failures)
        # Every attempt rewrote the same log page.
        assert wal._write_head == 1
        assert wal.device.requests_by_kind[IoKind.SEQUENTIAL_WRITE] == 1

    def test_a_spent_budget_raises_the_last_fault(self, env):
        wal, log, faults = self.system(env, ["transient"] * (RETRY_LIMIT + 3))
        lsn = wal.append(7, 1)
        env.process(wal.force(lsn))
        with pytest.raises(TransientIoError) as raised:
            env.run()                   # the flusher is nobody's child
        assert len(faults.raised) == RETRY_LIMIT + 1
        assert raised.value is faults.raised[-1]
        assert wal.flush_retries == RETRY_LIMIT + 1
        retries = log.named("io_retry")
        assert [args["attempt"] for _, args in retries] == list(
            range(1, RETRY_LIMIT + 2))
        instants = failure_instants(
            0.0, *services(IoKind.SEQUENTIAL_WRITE, 1), RETRY_LIMIT + 1)
        assert [now for now, _ in retries] == instants
        assert env.now == instants[-1]
        assert wal.flushed_lsn == -1 and wal.flushes == 0

    @pytest.mark.parametrize("script, retried", [
        (["reject"], 0), (["dead"], 0),
        (["transient", "transient", "reject"], 2),
        (["transient", "transient", "dead"], 2)])
    def test_a_dead_log_device_is_re_raised(self, env, script, retried):
        wal, log, faults = self.system(env, script)
        env.process(wal.force(wal.append(7, 1)))
        with pytest.raises(DeviceDeadError) as raised:
            env.run()
        assert raised.value is faults.raised[-1]
        assert wal.flush_retries == retried
        assert [args["attempt"] for _, args in log.named("io_retry")] == list(
            range(1, retried + 1))
        assert wal.flushed_lsn == -1

    def test_a_failed_flush_fails_its_forcers_and_the_next_starts_afresh(
            self, env):
        wal, _, faults = self.system(env, ["transient"] * (RETRY_LIMIT + 1))
        first = wal.append(7, 1)
        heard = []

        def forcer(who):
            try:
                yield from wal.force(first)
            except TransientIoError as fault:
                heard.append((who, fault))

        env.spawn_all(forcer(who) for who in range(2))
        with pytest.raises(TransientIoError):
            env.run()
        env.run()                       # the forcers' turn
        assert heard == [(0, faults.raised[-1]), (1, faults.raised[-1])]
        # The fault has cleared (the script is spent): the records are
        # still in the tail, and the next force makes them durable.
        second = wal.append(8, 1)
        drive(env, wal.force(second))
        assert wal.flushed_lsn == second
        assert wal.flushes == 1
        drive(env, wal.force(first))    # covered: returns at once


class Submissions(Outcomes):
    """``Outcomes`` that also keeps each submission: the request object
    and its ``(kind, address, npages, ctx)`` as it was submitted."""

    def __init__(self, device, script):
        super().__init__(device, script)
        self.submitted = []

    def on_submit(self, request):
        self.submitted.append((request, (request.kind, request.address,
                                         request.npages, request.ctx)))
        return super().on_submit(request)

    def attempts(self):
        """Request object -> the fields of each of its submissions, in
        the order the objects were first submitted."""
        attempts = {}
        for request, fields in self.submitted:
            attempts.setdefault(request, []).append(fields)
        return attempts


#: The trace context every test below passes down to the device.
CTX = object()


class TestSsdResubmits:
    """Each SSD retry submits the first attempt's request object again,
    kind, address, page count and context unchanged, as
    ``DiskManager._retry`` and ``WriteAheadLog._retry_flush`` do."""

    @staticmethod
    def cached(sys_, page_id, **kwargs):
        return drive(sys_.env, sys_.ssd_manager._cache_page(
            page_id, 0, False, **kwargs))

    def test_a_frame_read(self):
        sys_ = MiniSystem(design="LC", db_pages=500, bp_pages=32,
                          ssd_frames=16)
        manager = sys_.ssd_manager
        assert self.cached(sys_, 1)
        frame_no = manager.table.lookup_valid(1).frame_no
        faults = Submissions(sys_.ssd_device, ["transient"] * 3)
        assert drive(sys_.env, manager._ssd_read_frame(
            frame_no, must=True, ctx=CTX)) is True
        assert list(faults.attempts().values()) == [
            [(IoKind.RANDOM_READ, frame_no, 1, CTX)] * 4]
        assert manager.stats.io_retries == 3

    def test_rots_sequential_frame_write(self):
        sys_ = MiniSystem(design="ROT", db_pages=500, bp_pages=32,
                          ssd_frames=16)
        faults = Submissions(sys_.ssd_device, ["transient"] * 2)
        assert self.cached(sys_, 1, ctx=CTX)
        frame_no = sys_.ssd_manager.table.lookup_valid(1).frame_no
        assert list(faults.attempts().values()) == [
            [(IoKind.SEQUENTIAL_WRITE, frame_no, 1, CTX)] * 3]

    def test_a_failed_pool_read(self):
        sys_ = MiniSystem(design="LC", db_pages=500, bp_pages=32,
                          ssd_frames=16)
        manager = sys_.ssd_manager
        assert self.cached(sys_, 1)
        frame_no = manager.table.lookup_valid(1).frame_no
        faults = Submissions(sys_.ssd_device, ["transient"] * 2)
        # ``start_read`` submits the first attempt, ``read_failed`` the
        # retries.
        assert drive(sys_.env, manager.try_read(1, ctx=CTX)) == 0
        assert list(faults.attempts().values()) == [
            [(IoKind.RANDOM_READ, frame_no, 1, CTX)] * 3]

    def test_an_ls_batch_striped_into_multi_page_runs(self):
        sys_ = MiniSystem(design="LS", db_pages=2_000, bp_pages=100,
                          ssd_frames=500)
        manager = sys_.ssd_manager
        faults = Submissions(sys_.ssd_device,
                             ["transient", "ok", "transient", "transient"])
        batch_pages = manager.config.ls_batch_pages
        assert drive(sys_.env, *(manager._cache_page(page_id, 0, False)
                                 for page_id in range(batch_pages))) == [
            True] * batch_pages
        attempts = faults.attempts()
        channels = sys_.ssd_device.channels.capacity
        chunk = -(-batch_pages // channels)
        assert chunk > 1        # each run is a multi-page request
        assert [fields[0] for fields in attempts.values()] == [
            (IoKind.SEQUENTIAL_WRITE, address, chunk, EVICTION_CTX)
            for address in range(0, batch_pages, chunk)]
        # Three failures, three resubmissions of the failed runs' own
        # requests: no attempt built a request of its own.
        assert len(faults.submitted) == len(attempts) + 3
        assert all(fields == [fields[0]] * len(fields)
                   for fields in attempts.values())
        assert manager.stats.io_retries == 3


class TestCleanPath:
    """An I/O that does not fail yields the device's event as it is: the
    only generator built is the step the caller drives (``retry_io`` and
    the component's retry wrapper are for failures)."""

    @staticmethod
    def generators_built(env, step):
        """Names of the generators in ``repro`` entered while ``step``
        runs as a process, one per generator object."""
        frames = {}

        def profile(frame, event, arg):
            code = frame.f_code
            if (event == "call" and code.co_flags & inspect.CO_GENERATOR
                    and "repro" in code.co_filename):
                frames.setdefault(id(frame), code.co_name)

        with profiled(profile):
            drive(env, step)
        return sorted(frames.values())

    @pytest.mark.parametrize("op", sorted(DISK_OPS))
    def test_a_disk_io_builds_only_the_callers_generator(self, env, op):
        disk = DiskManager(env, HddArray(env), npages=100)
        assert self.generators_built(env, DISK_OPS[op][0](disk)) == [op]
        assert disk.retries == 0

    def test_a_log_flush_builds_only_the_flusher(self, env):
        wal = WriteAheadLog(env)
        lsn = wal.append(7, 1)
        assert self.generators_built(env, wal.force(lsn)) == [
            "_flush_loop", "force"]
        assert wal.flushed_lsn == lsn and wal.flush_retries == 0

    def test_a_failed_io_enters_the_one_retry_step(self, env):
        disk = DiskManager(env, HddArray(env), npages=100)
        Outcomes(disk.device, ["transient"])
        assert self.generators_built(env, disk.write(40, version=3)) == [
            "_retry", "retry_io", "write"]
