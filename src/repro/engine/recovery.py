"""Crash simulation and restart recovery.

Recovery here is redo-only over the physiological log: every durable log
record newer than the last completed checkpoint is replayed against the
disk image.  Because page content is modelled as a monotone version
number, redo is a simple idempotent max.

Two restart modes are provided (the SSD manager's ``_survive_crash``):

* **cold** (the paper's behaviour): the SSD's contents are ignored at
  restart — "No design to-date leverages the data in the SSD during
  system restart" (§6) — so the SSD starts empty and must re-warm.
* **warm** (the paper's future-work proposal, §4.1.2/§6): the SSD buffer
  table was persisted with the checkpoint, so valid *clean* SSD frames
  survive restart and the ramp-up period disappears.  The ablation bench
  measures exactly that difference.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.sim import Environment
from repro.engine.checkpoint import FLUSH_BATCH
from repro.engine.disk_manager import DiskManager
from repro.engine.wal import WriteAheadLog
from repro.telemetry import RECOVERY_CTX


class RecoveryError(Exception):
    """Raised when recovery detects lost committed updates."""


class RecoveryManager:
    """Redo-only restart recovery."""

    def __init__(self, env: Environment, disk: DiskManager,
                 wal: WriteAheadLog):
        self.env = env
        self.disk = disk
        self.wal = wal
        self.pages_redone = 0

    def analyze(self, last_checkpoint_lsn: int) -> Dict[int, int]:
        """The redo set: page id -> newest durable version to restore."""
        return self.wal.redo_set(last_checkpoint_lsn)

    def redo(self, last_checkpoint_lsn: int):
        """Process step: replay the log, timing the page I/O it costs.

        For each page needing redo: read it from disk (random), apply the
        newest logged version, write it back.  The per-page read+write
        pairs run in concurrent waves of ``FLUSH_BATCH`` (the disk array
        has eight spindles to keep busy).  Returns the number of pages
        redone.
        """
        redo_set = self.analyze(last_checkpoint_lsn)
        self.pages_redone = 0
        needed = [(page_id, version)
                  for page_id, version in sorted(redo_set.items())
                  if self.disk.disk_version(page_id) < version]
        for wave_start in range(0, len(needed), FLUSH_BATCH):
            wave = needed[wave_start:wave_start + FLUSH_BATCH]
            yield self.env.gather(
                self._redo_one(page_id, version)
                for page_id, version in wave)
        return self.pages_redone

    def _redo_one(self, page_id: int, version: int):
        """Process step: restore one page to its newest logged version."""
        yield from self.disk.read(page_id, 1, sequential=False,
                                  ctx=RECOVERY_CTX)
        yield from self.disk.write(page_id, version, sequential=False,
                                   ctx=RECOVERY_CTX)
        self.pages_redone += 1


def simulate_crash_and_recover(env: Environment, system,
                               committed: Optional[Dict[int, int]] = None):
    """Process step: crash the system, restart, recover, verify.

    ``system`` is a :class:`repro.harness.system.System`: its ``crash()``
    is the only crash there is — every process but the one running this
    step dies with the event queue, clients included — and its
    ``recover()`` raises :class:`RecoveryError` if a version in
    ``committed`` was lost.  Returns the number of pages redone.
    """
    system.crash()
    return (yield from system.recover(committed))
