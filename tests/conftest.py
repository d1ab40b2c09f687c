"""Shared fixtures and helpers for the test suite."""

import hashlib
import json
import random

import pytest
from hypothesis import settings as hypothesis_settings

from repro.sim import Environment
from repro.storage import HddArray, Ssd
from repro.core import DESIGNS, SsdDesignConfig
from repro.engine import BufferPool, Checkpointer, Database, DiskManager, WriteAheadLog
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


def drive(env, generator):
    """Run a process generator to completion; return its value."""
    process = env.process(generator)
    env.run(process)
    return process.value


def scheduled(env, body):
    """Events scheduled while ``body`` runs as a process, less its own two."""
    before = env._seq
    env.run(env.process(body))
    return env._seq - before - 2


def meta_free_trace_md5(telemetry):
    """md5 of a run's trace without its ``run_meta`` events (they embed
    the source hash, which changes with any edit by design)."""
    events = (event.to_dict() for event in telemetry.tracer.events)
    payload = "\n".join(json.dumps(event, sort_keys=True)
                        for event in events if event.get("cat") != "meta")
    return hashlib.md5(payload.encode()).hexdigest()


def settle(env, seconds=5.0):
    """Let in-flight background work (evictions, cleaner) finish."""
    env.run(until=env.now + seconds)


class MiniSystem:
    """A hand-wired small system for engine/core tests (no catalog)."""

    def __init__(self, design="noSSD", db_pages=2_000, bp_pages=100,
                 ssd_frames=500, env=None, bp_partitions=1, latch_seconds=0.0,
                 **ssd_kwargs):
        self.env = env or Environment()
        self.data_device = HddArray(self.env)
        self.ssd_device = Ssd(self.env)
        self.disk = DiskManager(self.env, self.data_device, db_pages)
        self.wal = WriteAheadLog(self.env)
        config = SsdDesignConfig(
            ssd_frames=0 if design == "noSSD" else ssd_frames, **ssd_kwargs)
        self.ssd_manager = DESIGNS[design](
            self.env, self.ssd_device, self.disk, self.wal, config)
        self.bp = BufferPool(self.env, bp_pages, self.disk, self.wal,
                             self.ssd_manager, partitions=bp_partitions,
                             latch_seconds=latch_seconds)
        self.ssd_manager.bp = self.bp
        self.ssd_manager.start_cleaner()
        self.checkpointer = Checkpointer(self.env, self.bp, self.wal)
        self.db = Database(db_pages)

    # The one crash and the one recovery: it has every attribute they
    # touch (no services to start again).
    _services_started = False
    crash = System.crash
    recover = System.recover

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
