"""Crash-point sweep: crash the system at random instants, recover,
and machine-check the paper's durability arguments.

Each sweep point builds a fresh small :class:`System` (one design × one
checkpoint policy), drives it with closed-loop update clients that track
a *committed oracle* — for every page, the newest version whose log
record was durably forced before the crash — then cuts power at a
seeded-random virtual time (:meth:`System.crash`), runs restart recovery
(:meth:`System.recover`), and asserts:

* no committed page version was lost (``recover`` raises
  :class:`~repro.engine.recovery.RecoveryError` otherwise);
* the buffer pool's tallies add up at the instant of the crash
  (:meth:`~repro.engine.buffer_pool.BufferPool.check_invariants`);
* the Figure 3 page-copy invariants hold after recovery
  (:meth:`~repro.core.ssd_manager.SsdManagerBase.check_invariants`);
* every device's queue bookkeeping adds up after the crash reset
  (:meth:`~repro.storage.device.Device.check_invariants`), and so do the
  log's LSNs (:meth:`~repro.engine.wal.WriteAheadLog.check_invariants`);
* the system still makes progress (a short post-recovery churn phase).

Because the crash time is drawn uniformly over a window that spans
periodic checkpoints, the sweep lands crashes mid-checkpoint, mid
clean-batch, mid-eviction, and mid-WAL-flush — the states where the §3.2
sharp-checkpoint argument (and its fuzzy-checkpoint counterpart) has to
carry the proof.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import SsdDesignConfig
from repro.harness.system import System, SystemConfig


@dataclass
class CrashSweepConfig:
    """Shape of one crash-point sweep."""

    designs: Sequence[str] = ("CW", "DW", "LC", "TAC", "LS", "ROT", "EXCL")
    policies: Sequence[str] = ("sharp", "fuzzy")
    #: Crash points per design × policy combination.
    points: int = 5
    seed: int = 20110612
    #: Crash times are drawn from [0.2 * duration, duration].
    duration: float = 8.0
    checkpoint_interval: float = 1.0
    db_pages: int = 400
    bp_pages: int = 80
    ssd_frames: int = 560
    nworkers: int = 8
    #: Post-recovery update operations per churn client (progress check).
    post_ops: int = 40

    def __post_init__(self) -> None:
        # Zero points would pass the gate having checked nothing, and a
        # bad time is the sweep's error, not a failure of each point.
        if self.points < 1:
            raise ValueError(f"points must be >= 1, got {self.points}")
        for knob in ("duration", "checkpoint_interval"):
            value = getattr(self, knob)
            if not 0 < value < math.inf:
                raise ValueError(f"{knob} must be finite and > 0, "
                                 f"got {value}")


@dataclass
class CrashPointOutcome:
    """Result of one crash point."""

    design: str
    policy: str
    crash_at: float
    ok: bool = True
    pages_redone: int = 0
    committed_pages: int = 0
    error: Optional[str] = None


@dataclass
class CrashSweepResult:
    """All outcomes of a sweep, with summary helpers."""

    outcomes: List[CrashPointOutcome] = field(default_factory=list)

    @property
    def failures(self) -> List[CrashPointOutcome]:
        return [o for o in self.outcomes if not o.ok]


def _update_client(env, system: System, rng: random.Random,
                   committed: Dict[int, int], npages: int,
                   ops: Optional[int] = None):
    """Closed-loop client: fetch, sometimes update+commit, repeat.

    A page version enters ``committed`` only after :meth:`WAL.force`
    returns for its redo record — exactly the set of versions a crash at
    any later instant must preserve.  ``ops`` bounds the loop (the
    post-recovery churn phase must terminate so the harness can quiesce
    before checking invariants); None runs until the crash cuts it off.
    """
    bp, wal = system.bp, system.wal
    done = 0
    while ops is None or done < ops:
        done += 1
        page = rng.randrange(npages)
        frame = yield from bp.fetch(page)
        if rng.random() < 0.6:
            lsn = bp.mark_dirty(frame)
            version = frame.version
            bp.unpin(frame)
            yield from wal.force(lsn)
            if committed.get(page, -1) < version:
                committed[page] = version
        else:
            bp.unpin(frame)
        yield rng.uniform(0.0, 0.01)


def run_crash_point(design: str, policy: str, crash_at: float,
                    cfg: CrashSweepConfig,
                    seed: str) -> CrashPointOutcome:
    """One crash point: build, run, crash, recover, verify."""
    outcome = CrashPointOutcome(design=design, policy=policy,
                                crash_at=crash_at)
    system = System(SystemConfig(
        design=design,
        db_pages=cfg.db_pages,
        bp_pages=cfg.bp_pages,
        ssd=SsdDesignConfig(ssd_frames=cfg.ssd_frames),
        checkpoint_interval=cfg.checkpoint_interval,
        checkpoint_policy=policy,
        slack_pages=64,
    ))
    env = system.env
    system.start_services()
    committed: Dict[int, int] = {}
    # String seeds hash deterministically (SHA-512), unlike hash().
    env.spawn_all(
        _update_client(env, system, random.Random(f"{seed}:client:{worker}"),
                       committed, cfg.db_pages)
        for worker in range(cfg.nworkers))
    try:
        env.run(until=crash_at)
        outcome.committed_pages = len(committed)
        system.bp.check_invariants()
        system.crash()
        for device in (system.data_device, system.ssd_device,
                       system.wal.device):
            device.check_invariants()
        system.wal.check_invariants()
        outcome.pages_redone = env.run(env.process(
            system.recover(committed)))
        system.ssd_manager.check_invariants()
        # Progress check: the restarted system must still serve updates.
        churn: Dict[int, int] = {}
        env.run(env.gather(
            _update_client(
                env, system, random.Random(f"{seed}:churn:{worker}"),
                churn, cfg.db_pages, ops=cfg.post_ops)
            for worker in range(4)))
        if not churn:
            raise RuntimeError("no post-recovery progress")
        # Quiesce before re-checking: the Figure 3 relationships are
        # stated over settled page copies — a DW dual-write or TAC
        # revalidation caught with its SSD record installed but its
        # disk write still in flight is a legal transient, not a bug.
        env.run(until=env.now + 1.0)
        system.ssd_manager.check_invariants()
    except Exception as exc:  # noqa: BLE001 - the sweep reports, not raises
        outcome.ok = False
        outcome.error = f"{type(exc).__name__}: {exc}"
    return outcome


def crash_point_sweep(cfg: Optional[CrashSweepConfig] = None
                      ) -> CrashSweepResult:
    """Run the full designs × policies × points grid."""
    cfg = cfg or CrashSweepConfig()
    result = CrashSweepResult()
    for design in cfg.designs:
        for policy in cfg.policies:
            times = random.Random(f"{cfg.seed}:{design}:{policy}:times")
            for point in range(cfg.points):
                crash_at = times.uniform(0.2 * cfg.duration, cfg.duration)
                result.outcomes.append(run_crash_point(
                    design, policy, crash_at, cfg,
                    seed=f"{cfg.seed}:{design}:{policy}:{point}"))
    return result


def format_sweep_table(result: CrashSweepResult) -> str:
    """Fixed-width summary: one row per design × policy."""
    rows: Dict[Tuple[str, str], List[CrashPointOutcome]] = {}
    for outcome in result.outcomes:
        rows.setdefault((outcome.design, outcome.policy), []).append(outcome)
    lines = [f"{'design':<8} {'policy':<7} {'points':>6} {'redone':>7} "
             f"{'failed':>6}"]
    for (design, policy), outcomes in sorted(rows.items()):
        redone = sum(o.pages_redone for o in outcomes)
        failed = sum(1 for o in outcomes if not o.ok)
        lines.append(f"{design:<8} {policy:<7} {len(outcomes):>6} "
                     f"{redone:>7} {failed:>6}")
    for outcome in result.failures:
        lines.append(f"FAIL {outcome.design}/{outcome.policy} "
                     f"@t={outcome.crash_at:.3f}: {outcome.error}")
    return "\n".join(lines)
