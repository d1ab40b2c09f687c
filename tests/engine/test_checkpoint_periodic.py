"""Tests for periodic checkpointing and the metric sampler."""

import random

import pytest

from repro.harness.metrics import Sampler
from repro.harness.system import System, SystemConfig
from repro.core import SsdDesignConfig
from tests.conftest import settle


def make_system(interval, design="DW"):
    return System(SystemConfig(
        design=design, db_pages=600, bp_pages=48,
        ssd=SsdDesignConfig(ssd_frames=200, dirty_threshold=0.9),
        checkpoint_interval=interval))


def churn(system, seconds, seed=3):
    rng = random.Random(seed)
    stop = system.env.now + seconds

    def worker():
        while system.env.now < stop:
            frame = yield from system.bp.fetch(rng.randrange(300))
            if rng.random() < 0.4:
                system.bp.mark_dirty(frame)
            system.bp.unpin(frame)
            lsn = system.wal.tail_lsn
            if lsn >= 0:
                yield from system.wal.force(lsn)

    procs = [system.env.process(worker()) for _ in range(4)]
    system.env.run(system.env.all_of(procs))


class TestPeriodicCheckpoints:
    def test_fires_roughly_every_interval(self):
        system = make_system(interval=2.0)
        system.start_services()
        churn(system, seconds=9.0)
        assert 3 <= system.checkpointer.checkpoints_taken <= 5

    def test_no_interval_means_no_automatic_checkpoints(self):
        system = make_system(interval=None)
        system.start_services()
        churn(system, seconds=5.0)
        assert system.checkpointer.checkpoints_taken == 0

    @pytest.mark.parametrize("interval", [0, 0.0, -1.0])
    def test_an_interval_that_would_spin_is_refused_by_name(self, interval):
        """Built past ``RunSpec``: ``_periodic`` on ``timeout(0)`` loops
        at one virtual instant forever."""
        with pytest.raises(ValueError, match="interval"):
            make_system(interval=interval)

    def test_start_is_idempotent(self):
        system = make_system(interval=2.0)
        system.start_services()
        system.start_services()
        churn(system, seconds=5.0)
        assert system.checkpointer.checkpoints_taken <= 3

    def test_work_continues_during_checkpoint(self):
        """Sharp checkpoints degrade but do not stop the workload."""
        system = make_system(interval=1.0, design="LC")
        system.start_services()
        churn(system, seconds=6.0)
        assert system.checkpointer.checkpoints_taken >= 3
        assert system.bp.stats.hits > 0


class TestSampler:
    def test_samples_at_interval(self):
        system = make_system(interval=None)
        sampler = Sampler(system, interval=0.5)
        sampler.start()
        churn(system, seconds=4.0)
        assert len(sampler.samples) >= 7

    def test_fill_time_detects_threshold(self):
        system = make_system(interval=None)
        sampler = Sampler(system, interval=0.25)
        sampler.start()
        churn(system, seconds=6.0)
        settle(system.env)
        used = system.ssd_manager.used_frames
        assert used > 10
        crossing = sampler.fill_time(used // 2)
        assert crossing < system.env.now

    def test_fill_time_inf_when_never_reached(self):
        system = make_system(interval=None)
        sampler = Sampler(system, interval=0.5)
        sampler.start()
        churn(system, seconds=1.0)
        assert sampler.fill_time(10**9) == float("inf")

    def test_dirty_cross_time_lc(self):
        system = System(SystemConfig(
            design="LC", db_pages=600, bp_pages=48,
            ssd=SsdDesignConfig(ssd_frames=200, dirty_threshold=0.9)))
        sampler = Sampler(system, interval=0.25)
        sampler.start()
        churn(system, seconds=6.0)
        if system.ssd_manager.dirty_frames == 0:
            return  # nothing accumulated; nothing to assert
        assert sampler.dirty_cross_time(0) < float("inf")
