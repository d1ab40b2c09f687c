"""The crash-point sweep harness and its CLI surface."""

import gc
import random

import pytest

from repro.cli import main
from repro.core import SsdDesignConfig
from repro.engine.recovery import simulate_crash_and_recover
from repro.harness.crashpoints import (
    CrashPointOutcome,
    CrashSweepConfig,
    CrashSweepResult,
    crash_point_sweep,
    format_sweep_table,
)
from repro.harness.crashpoints import _update_client
from repro.harness.system import System, SystemConfig
from repro.storage.request import IoKind, IORequest


def small_config(**kwargs):
    defaults = dict(designs=("CW", "LC"), policies=("sharp",), points=1,
                    duration=3.0, checkpoint_interval=1.0, db_pages=200,
                    bp_pages=40, ssd_frames=280, nworkers=4, post_ops=20)
    defaults.update(kwargs)
    return CrashSweepConfig(**defaults)


class TestCrashSweepConfig:
    @pytest.mark.parametrize("knobs", [
        dict(points=0), dict(points=-2),
        dict(duration=0.0), dict(duration=-3.0), dict(duration=float("nan")),
        dict(duration=float("inf")),
        dict(checkpoint_interval=0.0),
        dict(checkpoint_interval=float("nan")),
    ])
    def test_refuses_a_sweep_that_checks_nothing(self, knobs):
        knob, = knobs
        with pytest.raises(ValueError, match=f"^{knob} must be"):
            CrashSweepConfig(**knobs)


class TestCrashPointSweep:
    def test_small_sweep_loses_nothing(self):
        result = crash_point_sweep(small_config())
        assert len(result.outcomes) == 2
        assert not result.failures, format_sweep_table(result)
        for outcome in result.outcomes:
            assert outcome.committed_pages > 0
            assert 0.2 * 3.0 <= outcome.crash_at <= 3.0

    def test_sweep_is_deterministic(self):
        def fingerprint(result):
            return [(o.design, o.policy, o.crash_at, o.ok, o.pages_redone,
                     o.committed_pages) for o in result.outcomes]

        cfg = small_config(designs=("DW",))
        assert fingerprint(crash_point_sweep(cfg)) == \
            fingerprint(crash_point_sweep(cfg))

    def test_related_work_designs_survive_a_sharp_point(self):
        """One sharp point each for ROT and EXCL, at a seed where both
        used to fail inside ``on_checkpoint`` (``TypeError`` on a record
        invalidated during the flush's SSD read)."""
        result = crash_point_sweep(small_config(designs=("ROT", "EXCL"),
                                                seed=12))
        assert len(result.outcomes) == 2
        assert not result.failures, format_sweep_table(result)

    def test_fuzzy_policy_runs(self):
        result = crash_point_sweep(small_config(designs=("TAC",),
                                                policies=("fuzzy",)))
        assert not result.failures, format_sweep_table(result)


class TestCrashUnderLoad:
    def test_crash_and_recover_while_clients_run_loses_nothing(self):
        """No ``stop()`` first, no ``System.crash()`` first: the crash is
        whatever ``simulate_crash_and_recover`` does, issued while eight
        update clients are mid-transaction.  (While that left the
        clients running they committed into the recovering system, and
        the oracle reported their pages as lost.)"""
        system = System(SystemConfig(
            design="LS", db_pages=400, bp_pages=80, slack_pages=64,
            ssd=SsdDesignConfig(ssd_frames=560)))
        env = system.env
        committed = {}
        env.spawn_all(
            _update_client(env, system, random.Random(f"live:{worker}"),
                           committed, 400)
            for worker in range(8))
        env.run(until=1.537)
        assert committed
        redone = env.run(env.process(
            simulate_crash_and_recover(env, system, committed)))
        assert redone > 0
        system.ssd_manager.check_invariants()

    def test_periodic_checkpoints_resume_after_recovery(self):
        """The checkpointer dies with the event queue like everything
        else; ``recover()`` starts again what ``start_services()`` had
        started, once redo is done with the log."""
        system = System(SystemConfig(
            design="LC", db_pages=400, bp_pages=80, slack_pages=64,
            ssd=SsdDesignConfig(ssd_frames=560), checkpoint_interval=0.5))
        env = system.env
        system.start_services()
        committed = {}

        def clients(tag):
            env.spawn_all(
                _update_client(env, system, random.Random(f"{tag}:{worker}"),
                               committed, 400)
                for worker in range(4))

        clients("before")
        env.run(until=1.2)
        taken = system.checkpointer.checkpoints_taken
        started = system.checkpointer.checkpoints_started
        assert taken >= 1
        system.crash()
        redo = env.process(system.recover(committed))
        env.run(redo)
        # Not during redo: the log it reads must not be cut under it.
        assert system.checkpointer.checkpoints_started == started
        clients("after")
        env.run(until=env.now + 2.0)
        assert system.checkpointer.checkpoints_taken >= taken + 2

    def test_processes_queued_on_a_drive_die_inside_the_crash(self):
        """A drive's queue holds the only reference to the processes
        waiting on its requests.  Reset after the wipe, it let them go
        once the wipe was over, and whatever their ``finally`` blocks
        scheduled ran in the recovering system."""
        system = System(SystemConfig(
            design="CW", db_pages=400, bp_pages=80, slack_pages=64,
            ssd=SsdDesignConfig(ssd_frames=560)))
        env = system.env
        revived = []

        def revive():
            yield env.timeout(0)
            revived.append(env.now)

        def reader(page):
            try:
                yield system.data_device.submit(
                    IORequest(IoKind.RANDOM_READ, page))
            finally:
                env.spawn(revive())

        env.spawn_all(reader(page) for page in range(6))  # one drive
        env.run(until=1e-4)
        assert system.data_device.pending == 6
        system.crash()
        gc.collect()
        env.run(until=env.now + 1.0)
        assert revived == []

    def test_services_never_started_stay_off_after_recovery(self):
        system = System(SystemConfig(
            design="DW", db_pages=400, bp_pages=80, slack_pages=64,
            ssd=SsdDesignConfig(ssd_frames=560), checkpoint_interval=0.5))
        env = system.env
        env.run(env.process(simulate_crash_and_recover(env, system)))
        env.run(until=env.now + 2.0)
        assert system.checkpointer.checkpoints_started == 0


class TestSweepTable:
    def test_groups_by_design_and_policy(self):
        result = CrashSweepResult(outcomes=[
            CrashPointOutcome("CW", "sharp", 1.0, pages_redone=3),
            CrashPointOutcome("CW", "sharp", 2.0, pages_redone=4),
            CrashPointOutcome("LC", "fuzzy", 1.5, pages_redone=7),
        ])
        table = format_sweep_table(result)
        lines = table.splitlines()
        assert "design" in lines[0]
        assert any("CW" in l and " 2 " in l and " 7 " in l for l in lines)
        assert "FAIL" not in table

    def test_failures_are_listed(self):
        result = CrashSweepResult(outcomes=[
            CrashPointOutcome("DW", "sharp", 2.5, ok=False,
                              error="RecoveryError: boom"),
        ])
        assert result.failures
        table = format_sweep_table(result)
        assert "FAIL DW/sharp @t=2.500: RecoveryError: boom" in table


class TestChaosCli:
    def test_smoke_run_exits_zero(self, capsys):
        code = main(["chaos", "--points", "1", "--designs", "CW",
                     "--policies", "sharp", "--duration", "3"])
        out = capsys.readouterr()
        assert code == 0
        assert "design" in out.out and "CW" in out.out
        assert "1 crash points" in out.err

    def test_rejects_unknown_design(self, capsys):
        assert main(["chaos", "--designs", "XX"]) == 2
        assert "XX" in capsys.readouterr().err

    def test_rejects_unknown_policy(self, capsys):
        assert main(["chaos", "--policies", "blurry"]) == 2
        assert "blurry" in capsys.readouterr().err


class TestFaultsCliFlag:
    def test_rejects_malformed_plan(self, capsys):
        code = main(["oltp", "--designs", "LC", "--faults", "explode@t=1"])
        assert code == 2
        assert "--faults" in capsys.readouterr().err

    def test_ssd_die_mid_run_degrades_not_crashes(self, capsys):
        code = main(["oltp", "--scale", "50", "--profile", "tiny",
                     "--duration", "4", "--designs", "DW",
                     "--faults", "ssd_die@t=2"])
        out = capsys.readouterr()
        assert code == 0
        assert "DW" in out.out
        assert "ssd_detached=True" in out.err
