"""Shared fixtures and helpers for the test suite."""

import gc
import hashlib
import json
import random
import sys

import pytest
from hypothesis import settings as hypothesis_settings

from repro.sim import Environment
from repro.core import SsdDesignConfig
from repro.harness.metrics import snapshot
from repro.harness.system import System, SystemConfig

# ``--hypothesis-profile=thorough`` for the long CI pass over a property
# test that leaves ``max_examples`` to the profile.
hypothesis_settings.register_profile("thorough", max_examples=1000,
                                     deadline=None)


@pytest.fixture(scope="session", autouse=True)
def _session_runstore(tmp_path_factory):
    """Session-wide backstop for the run-store default path.

    Module- and session-scoped fixtures are set up *before* the
    function-scoped isolation fixture below, so one that invokes the
    CLI (e.g. a shared traced run) would otherwise record into
    ``.repro-runs.db`` in the working tree.
    """
    patcher = pytest.MonkeyPatch()
    patcher.setenv("REPRO_RUNSTORE",
                   str(tmp_path_factory.mktemp("runstore") / "runs.db"))
    yield
    patcher.undo()


@pytest.fixture(autouse=True)
def _isolated_runstore(tmp_path, monkeypatch):
    """Route default run-store recording into the test's tmp dir.

    CLI commands record runs into ``.repro-runs.db`` by default; tests
    that invoke them must not leave databases in the working tree.
    Tests that care about the store pass an explicit path anyway.
    """
    monkeypatch.setenv("REPRO_RUNSTORE", str(tmp_path / "runs.db"))


@pytest.fixture
def env():
    return Environment()


def drive(env, *steps):
    """Run ``steps`` to completion, together; return the value of the one
    step, or the list of their values in order.

    A step is what ``yield from`` accepts: a generator, or ``()`` from a
    hook that finished at its call (its value is None, and it schedules
    nothing).  One generator runs as one process; several start together
    through ``env.gather``.
    """
    if len(steps) != 1:
        return env.run(env.gather(_waited(step) for step in steps))
    step, = steps
    if not step:
        return None
    process = env.process(step)
    env.run(process)
    return process.value


def _waited(step):
    return (yield from step)


def scheduled(env, body):
    """Events scheduled while ``body`` runs as a process, less its own two."""
    before = env._seq
    env.run(env.process(body))
    return env._seq - before - 2


class profiled:
    """Run the body under ``sys.setprofile(profile)`` with the cyclic
    collector off.  A collection inside would close generators that an
    earlier test left suspended in garbage cycles, and each close is a
    profiled ``call`` of that generator's code.  A class, not a
    ``contextmanager``, so that no generator of its own is profiled."""

    def __init__(self, profile):
        self.profile = profile
        self.was_enabled = gc.isenabled()

    def __enter__(self):
        gc.collect()
        gc.disable()
        sys.setprofile(self.profile)

    def __exit__(self, *exc_info):
        sys.setprofile(None)
        if self.was_enabled:
            gc.enable()


def meta_free_trace_md5(telemetry):
    """md5 of a run's trace without its ``run_meta`` events (they embed
    the source hash, which changes with any edit by design)."""
    events = (event.to_dict() for event in telemetry.tracer.events)
    payload = "\n".join(json.dumps(event, sort_keys=True)
                        for event in events if event.get("cat") != "meta")
    return hashlib.md5(payload.encode()).hexdigest()


def scrape(system, latencies=None):
    """``snapshot(system, latencies)`` keyed ``(name, *label values)``:
    what ``--metrics`` prints, for a test to look one row up."""
    return {(row["name"], *row["labels"].values()): row["value"]
            for row in snapshot(system, latencies)}


def disk_ios(disk, direction):
    """Requests of one ``direction`` (``"read"`` or ``"write"``) that
    the disk manager ``disk``'s device has completed; one still in
    flight shows in ``disk.device.pending`` instead."""
    return sum(count for kind, count in disk.device.requests_by_kind.items()
               if kind.direction == direction)


def settle(env, seconds=5.0):
    """Let in-flight background work (evictions, cleaner) finish."""
    env.run(until=env.now + seconds)


class MiniSystem(System):
    """A small system for engine/core tests: no catalog, no slack pages,
    the heap kernel unless ``env`` says otherwise."""

    def __init__(self, design="noSSD", db_pages=2_000, bp_pages=100,
                 ssd_frames=500, env=None, bp_partitions=1, latch_seconds=0.0,
                 **ssd_kwargs):
        # The pool's latch is ``latch_us * 1e-6`` seconds; dividing by
        # 1e-6 gives ``latch_seconds`` back for the latches used here.
        super().__init__(SystemConfig(
            design=design, db_pages=db_pages, bp_pages=bp_pages,
            slack_pages=0, latch_us=latch_seconds / 1e-6,
            ssd=SsdDesignConfig(ssd_frames=ssd_frames,
                                partitions=bp_partitions, **ssd_kwargs)),
            env=env)

    def churn(self, accesses=2_000, write_fraction=0.33, span=None, seed=7,
              workers=8):
        """Run a uniform random read/write mix to exercise the stack."""
        span = span or self.disk.npages
        rng = random.Random(seed)

        def worker():
            for _ in range(accesses // workers):
                pid = rng.randrange(span)
                frame = yield from self.bp.fetch(pid)
                if rng.random() < write_fraction:
                    self.bp.mark_dirty(frame)
                self.bp.unpin(frame)

        procs = [self.env.process(worker()) for _ in range(workers)]
        self.env.run(self.env.all_of(procs))
        settle(self.env)


@pytest.fixture
def mini():
    return MiniSystem


@pytest.fixture
def small_system():
    """A small assembled System (noSSD) for harness tests."""
    return System(SystemConfig(design="noSSD", db_pages=1_000, bp_pages=64,
                               ssd=SsdDesignConfig(ssd_frames=0)))
