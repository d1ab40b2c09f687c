"""When a scheduled fault fires, and what a rejected request leaves behind.

A timed clause of a :class:`~repro.faults.FaultPlan` acts at exactly its
``t`` — or, when ``t`` is already past as the plan is installed, at the
instant of installation.  A request the injector refuses at ``submit``
never entered the device: its books read as before.
"""

import pathlib

import pytest

import repro.storage
from repro.core import SsdDesignConfig
from repro.core.ssd_manager import SsdManagerBase
from repro.faults import DeviceDeadError, FaultInjector
from repro.harness.system import System, SystemConfig
from repro.sim import Environment
from repro.storage import HddArray, Ssd
from repro.storage.ftl import FlashTranslationLayer
from tests.core.test_ssd_manager import ScriptedFaults


class _Acts(list):
    """The log, and the clock its entries are stamped from."""

    env = None


@pytest.fixture
def acts(monkeypatch):
    """Every act of a timed fault as ``(now, what, *args)``, in order."""
    log = _Acts()

    def recorded(cls, name):
        method = getattr(cls, name)

        def wrapper(self, *args):
            log.append((log.env.now, name) + args)
            return method(self, *args)

        monkeypatch.setattr(cls, name, wrapper)

    recorded(FaultInjector, "kill")
    recorded(FaultInjector, "stall")
    recorded(Ssd, "fail_channels")
    recorded(SsdManagerBase, "detach")
    recorded(FlashTranslationLayer, "force_gc")
    return log


#: clause (``{t}`` filled in) -> FTL modelled?, the acts it performs
TIMED = {
    "ssd_die@t={t}": (False, [("kill",), ("detach",)]),
    "ssd_stall@t={t}:dur=0.5": (False, [("stall", 0.5)]),
    "disk_stall@t={t}:dur=0.5": (False, [("stall", 0.5)]),
    "log_stall@t={t}:dur=0.5": (False, [("stall", 0.5)]),
    "gc_stall@t={t}:dur=0.5": (False, [("stall", 0.5)]),
    "gc_stall@t={t}:dur=0.25": (True, [("force_gc",), ("stall", 0.25)]),
    "ssd_chan_die@t={t}:n=6": (False, [("fail_channels", 6)]),
    "ssd_chan_die@t={t}:n=8": (False, [("fail_channels", 8), ("kill",),
                                       ("detach",)]),
}
_STALLED = {"ssd_stall": "ssd", "disk_stall": "disk", "log_stall": "log",
            "gc_stall": "ssd"}


class TestTimedTriggers:
    @staticmethod
    def system(clause, ftl, start):
        return System(
            SystemConfig(design="LC", db_pages=1_200, bp_pages=64,
                         slack_pages=64,
                         ssd=SsdDesignConfig(ssd_frames=150,
                                             ftl_enabled=ftl)),
            env=Environment(initial_time=start), faults=clause)

    # Installed at 0.25 for t = 1.0 (fires at t), and at 5.0 for t = 1.0
    # (fires as soon as the kernel runs: the instant of installation).
    @pytest.mark.parametrize("start, fires", [(0.25, 1.0), (5.0, 5.0)])
    @pytest.mark.parametrize("clause", sorted(TIMED))
    def test_fires_at_t_or_at_once_when_t_is_past(self, acts, clause, start,
                                                  fires):
        ftl, expected = TIMED[clause]
        system = self.system(clause.format(t=1.0), ftl, start)
        acts.env = system.env
        assert acts == []               # nothing acts during install
        if fires > start:
            system.run(until=0.999)
            assert acts == []
        system.run(until=fires + 1.0)
        assert acts == [(fires,) + act for act in expected]
        kind = clause.split("@")[0]
        injectors = system.faults.injectors
        if kind in _STALLED:
            assert sorted(injectors) == [_STALLED[kind]]
            assert (injectors[_STALLED[kind]].stall_until
                    == fires + expected[-1][1])
        dies = ("kill",) in expected
        assert injectors[_STALLED.get(kind, "ssd")].dead is dies
        manager = system.ssd_manager
        assert manager.detached is dies
        assert manager._detach_complete.triggered is dies
        assert system.ssd_device.channels_alive == (
            8 - expected[0][1] if kind == "ssd_chan_die" else 8)

    def test_clauses_fire_in_plan_order_within_one_instant(self, acts):
        system = self.system(
            "ssd_stall@t=1:dur=0.5,ssd_chan_die@t=1:n=2,gc_stall@t=1:dur=2",
            False, 0.25)
        acts.env = system.env
        system.run(until=2.0)
        assert acts == [(1.0, "stall", 0.5), (1.0, "fail_channels", 2),
                        (1.0, "stall", 2.0)]
        assert system.faults.injectors["ssd"].stall_until == 3.0


class TestRejectedAtSubmit:
    """The injector's ``on_submit`` turned the request away: the failed
    event is all there is of it."""

    def test_ssd(self, env):
        ssd = Ssd(env, channels=2)
        queued = [ssd.read(address) for address in range(5)]
        assert (ssd.pending, ssd.channels.busy,
                len(ssd.channels.waiting)) == (5, 2, 3)
        ScriptedFaults(ssd, dead=True)
        waiting = list(ssd.channels.waiting)
        done = ssd.write(9)
        assert done.triggered and not done.ok
        assert isinstance(done.value, DeviceDeadError)
        assert (ssd.pending, ssd.channels.busy) == (5, 2)
        assert list(ssd.channels.waiting) == waiting
        ssd.check_invariants()
        ssd.faults.dead = False
        env.run()
        assert all(event.ok for event in queued)
        assert done.processed and not done.ok
        assert ssd.pending == 0 and ssd.channels.busy == 0
        assert ssd.stats.completed == 5
        ssd.check_invariants()

    def test_hdd_array(self, env):
        hdd = HddArray(env, ndisks=2)
        # 24 pages from 0: three stripe units, two on drive 0.
        queued = [hdd.read(0, npages=24, random=False), hdd.read(100)]
        env.run(until=1e-4)             # past the admit hop: on the drives
        inflight = set(hdd._inflight)
        drives = [(drive.busy, list(drive.waiting)) for drive in hdd._drives]
        assert hdd.pending == 2 and len(inflight) == 2
        assert [busy for busy, _ in drives] == [1, 1]
        ScriptedFaults(hdd, dead=True)
        done = hdd.write(7)
        assert done.triggered and not done.ok
        assert isinstance(done.value, DeviceDeadError)
        assert hdd.pending == 2 and hdd._inflight == inflight
        assert [(drive.busy, list(drive.waiting))
                for drive in hdd._drives] == drives
        hdd.check_invariants()
        hdd.faults.dead = False
        env.run()
        assert all(event.ok for event in queued)
        assert done.processed and not done.ok
        assert hdd.pending == 0 and not hdd._inflight
        assert sum(hdd.requests_by_kind.values()) == 2
        hdd.check_invariants()


class TestSaidOnce:
    def test_each_injector_hook_has_one_call_site_in_storage(self):
        source = "".join(
            path.read_text()
            for path in pathlib.Path(repro.storage.__file__).parent.glob(
                "*.py"))
        for hook in ("on_submit", "pre_service_delay", "on_complete"):
            assert source.count(f"faults.{hook}(") == 1, hook

    def test_the_array_queues_on_its_drives_alone(self, env):
        hdd = HddArray(env)
        assert not hasattr(hdd, "channels")
        assert [drive.capacity for drive in hdd._drives] == [1] * 8
        assert Ssd(env).channels.capacity == 8
