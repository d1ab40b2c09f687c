"""A page-mapping FTL with greedy garbage collection.

Geometry: the logical space (the SSD buffer pool's S frames) sits on a
slightly larger physical space of erase blocks (*over-provisioning*).
Host writes always *program* the next free page of the active block —
flash cannot overwrite in place — and the old physical page of the
logical address is merely marked invalid.  When the free-block pool runs
low, garbage collection picks the closed block with the fewest valid
pages (greedy victim selection), migrates those survivors to a separate
GC append stream, and erases the block.

Every migration is a NAND write the host never asked for: the ratio
``nand_writes / host_writes`` is the write amplification factor (WAF)
this subsystem exists to measure.  Random in-place traffic (the paper's
CW/DW/LC designs) leaves victims full of valid pages and amplifies;
sequential log-structured traffic with TRIM (the LS design) leaves
victims empty and stays near 1.0.

Wear leveling is implicit in allocation: the free block with the lowest
erase count is always programmed next, so erases spread across blocks.

The model is exact, deterministic, and synchronous — no randomness, no
simulated time.  Callers convert the returned :class:`FtlWork` into
service time (:meth:`repro.storage.ssd.Ssd.service_time`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

#: Slot value marking a physical page that holds no valid logical page.
_INVALID = -1


@dataclass(frozen=True)
class FtlConfig:
    """Geometry and GC policy knobs for the FTL model."""

    #: Pages per erase block (the erase granularity).
    pages_per_block: int = 32
    #: Over-provisioning: physical space exceeds logical by this ratio.
    #: 0.28 matches the paper-era Fusion-io card's 160 GB raw / 140 GB
    #: usable split that the reproduction already encodes in its scale
    #: profiles.
    op_ratio: float = 0.28
    #: GC starts when the free-block pool drops below this many blocks.
    gc_low_water_blocks: int = 2

    def __post_init__(self) -> None:
        if self.pages_per_block < 2:
            raise ValueError(
                f"pages_per_block must be >= 2, got {self.pages_per_block}")
        if self.op_ratio <= 0.0:
            raise ValueError(f"op_ratio must be > 0, got {self.op_ratio}")
        if self.gc_low_water_blocks < 1:
            raise ValueError(
                f"gc_low_water_blocks must be >= 1, "
                f"got {self.gc_low_water_blocks}")


@dataclass
class FtlStats:
    """Cumulative device-level counters (the WAF/wear evidence)."""

    host_writes: int = 0      # page writes the host submitted
    host_reads: int = 0       # page reads the host submitted
    nand_writes: int = 0      # pages actually programmed (host + GC)
    nand_reads: int = 0       # pages actually sensed (host + GC)
    erases: int = 0           # erase-block erasures
    gc_runs: int = 0          # GC victim reclamations
    gc_migrated_pages: int = 0  # valid pages GC relocated
    trims: int = 0            # logical pages invalidated by TRIM

    @property
    def waf(self) -> float:
        """Write amplification: NAND writes per host write."""
        if self.host_writes == 0:
            return 0.0
        return self.nand_writes / self.host_writes


@dataclass
class FtlWork:
    """NAND work one host operation triggered (converted to time)."""

    programs: int = 0
    reads: int = 0
    erases: int = 0


class FlashTranslationLayer:
    """Page-mapped FTL over ``logical_pages`` host-visible pages."""

    def __init__(self, logical_pages: int, config: FtlConfig = FtlConfig()):
        if logical_pages < 1:
            raise ValueError(
                f"logical_pages must be >= 1, got {logical_pages}")
        self.config = config
        self.logical_pages = logical_pages
        ppb = config.pages_per_block
        logical_blocks = -(-logical_pages // ppb)  # ceil division
        provisioned = -(-int(logical_pages * (1.0 + config.op_ratio)) // ppb)
        # GC needs room to breathe: beyond the logical blocks there must
        # be space for the low-water free pool, the two append streams,
        # and at least one block of slack for in-flight migration.
        floor = logical_blocks + config.gc_low_water_blocks + 3
        self.nblocks = max(provisioned, floor)
        self.stats = FtlStats()
        #: lpn -> ppn for every logically valid page.
        self._mapping: Dict[int, int] = {}
        #: ppn -> lpn, or ``_INVALID`` for erased/stale physical pages.
        self._owner: List[int] = [_INVALID] * (self.nblocks * ppb)
        self._valid: List[int] = [0] * self.nblocks
        self._erase_count: List[int] = [0] * self.nblocks
        self._free_blocks: Set[int] = set(range(self.nblocks))
        # Host and GC append streams (block id, next slot); -1 = none.
        self._active = -1
        self._active_slot = 0
        self._gc_active = -1
        self._gc_slot = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def waf(self) -> float:
        """Write amplification: NAND writes per host write."""
        return self.stats.waf

    @property
    def free_block_count(self) -> int:
        """Blocks in the erased free pool."""
        return len(self._free_blocks)

    @property
    def mapped_pages(self) -> int:
        """Logical pages currently holding valid data."""
        return len(self._mapping)

    def erase_counts(self) -> List[int]:
        """Per-block erase counts (the wear histogram)."""
        return list(self._erase_count)

    @property
    def wear_spread(self) -> int:
        """Max minus min per-block erase count (wear-leveling quality)."""
        return max(self._erase_count) - min(self._erase_count)

    def snapshot(self) -> Dict[str, object]:
        """Full deterministic state, for byte-identical-replay tests."""
        return {
            "mapping": dict(self._mapping),
            "erase_counts": list(self._erase_count),
            "free_blocks": sorted(self._free_blocks),
            "active": (self._active, self._active_slot),
            "gc_active": (self._gc_active, self._gc_slot),
            "stats": vars(self.stats).copy(),
        }

    # ------------------------------------------------------------------
    # Host operations
    # ------------------------------------------------------------------

    def host_read(self, lpn: int) -> FtlWork:
        """Account one host page read (one NAND sense)."""
        self._check_lpn(lpn)
        self.stats.host_reads += 1
        self.stats.nand_reads += 1
        return FtlWork(reads=1)

    def host_write(self, lpn: int) -> FtlWork:
        """One host page write: invalidate, program, GC if needed.

        Returns all NAND work charged to this write — including any
        garbage collection it triggered, so the GC cost lands as latency
        on the write that made it necessary (the foreground GC stall a
        real device exhibits).
        """
        self._check_lpn(lpn)
        work = FtlWork()
        self.stats.host_writes += 1
        self._invalidate(lpn)
        self._program(lpn, work, gc=False)
        while (len(self._free_blocks) < self.config.gc_low_water_blocks
               and self._collect_once(work)):
            pass
        return work

    def trim(self, lpn: int) -> None:
        """Host declares ``lpn`` dead: drop the mapping, free the page.

        TRIM is a metadata command — no NAND work — but it is what keeps
        a log-structured writer's GC victims empty.
        """
        self._check_lpn(lpn)
        if lpn in self._mapping:
            self._invalidate(lpn)
            self.stats.trims += 1

    def force_gc(self, blocks: int = 1) -> FtlWork:
        """Reclaim up to ``blocks`` victims now (fault injection hook)."""
        work = FtlWork()
        for _ in range(max(0, blocks)):
            if not self._collect_once(work):
                break
        return work

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _check_lpn(self, lpn: int) -> None:
        if not 0 <= lpn < self.logical_pages:
            raise ValueError(
                f"lpn {lpn} outside logical space [0, {self.logical_pages})")

    def _invalidate(self, lpn: int) -> None:
        ppn = self._mapping.pop(lpn, _INVALID)
        if ppn != _INVALID:
            self._owner[ppn] = _INVALID
            self._valid[ppn // self.config.pages_per_block] -= 1

    def _take_free_block(self) -> int:
        """Wear leveling: always program the least-erased free block."""
        if not self._free_blocks:
            raise RuntimeError(
                "FTL free-block pool exhausted — over-provisioning too "
                "small for the write pattern")
        block = min(self._free_blocks,
                    key=lambda b: (self._erase_count[b], b))
        self._free_blocks.discard(block)
        return block

    def _program(self, lpn: int, work: FtlWork, gc: bool) -> None:
        """Append ``lpn`` to the host or GC write stream."""
        ppb = self.config.pages_per_block
        if gc:
            if self._gc_active < 0 or self._gc_slot == ppb:
                self._gc_active = self._take_free_block()
                self._gc_slot = 0
            block, slot = self._gc_active, self._gc_slot
            self._gc_slot += 1
        else:
            if self._active < 0 or self._active_slot == ppb:
                self._active = self._take_free_block()
                self._active_slot = 0
            block, slot = self._active, self._active_slot
            self._active_slot += 1
        ppn = block * ppb + slot
        self._owner[ppn] = lpn
        self._mapping[lpn] = ppn
        self._valid[block] += 1
        work.programs += 1
        self.stats.nand_writes += 1

    def _collect_once(self, work: FtlWork) -> bool:
        """Greedy GC: reclaim the closed block with the fewest valid
        pages, migrating survivors to the GC stream.  Returns False when
        no block is reclaimable (all free or appending)."""
        victim = -1
        victim_key = (0, 0, 0)
        for block in range(self.nblocks):
            if (block in self._free_blocks or block == self._active
                    or block == self._gc_active):
                continue
            key = (self._valid[block], self._erase_count[block], block)
            if victim < 0 or key < victim_key:
                victim, victim_key = block, key
        if victim < 0:
            return False
        ppb = self.config.pages_per_block
        base = victim * ppb
        for slot in range(ppb):
            lpn = self._owner[base + slot]
            if lpn == _INVALID:
                continue
            # Relocate the survivor: read it off the victim, re-program
            # it in the GC stream.  The mapping moves transparently.
            self._owner[base + slot] = _INVALID
            self._valid[victim] -= 1
            work.reads += 1
            self.stats.nand_reads += 1
            self._program(lpn, work, gc=True)
            self.stats.gc_migrated_pages += 1
        assert self._valid[victim] == 0, (
            f"GC left valid pages behind in block {victim}")
        self._erase_count[victim] += 1
        self._free_blocks.add(victim)
        work.erases += 1
        self.stats.erases += 1
        self.stats.gc_runs += 1
        return True

    # ------------------------------------------------------------------
    # Invariants (property tests)
    # ------------------------------------------------------------------

    def check(self) -> None:
        """Assert the mapping/valid-count/free-pool invariants hold."""
        ppb = self.config.pages_per_block
        for lpn, ppn in self._mapping.items():
            assert self._owner[ppn] == lpn, (
                f"mapping lpn {lpn} -> ppn {ppn} but owner is "
                f"{self._owner[ppn]}")
        per_block = [0] * self.nblocks
        for ppn, lpn in enumerate(self._owner):
            if lpn == _INVALID:
                continue
            assert self._mapping.get(lpn) == ppn, (
                f"owner ppn {ppn} -> lpn {lpn} but mapping says "
                f"{self._mapping.get(lpn)}")
            per_block[ppn // ppb] += 1
        assert per_block == self._valid, "per-block valid counts desynced"
        for block in self._free_blocks:
            assert self._valid[block] == 0, f"free block {block} has data"
            assert block not in (self._active, self._gc_active), (
                f"append stream block {block} is on the free list")
        assert len(self._mapping) == sum(self._valid), "mapping size desync"
        assert (self.stats.nand_writes
                == self.stats.host_writes + self.stats.gc_migrated_pages), (
            "nand_writes != host_writes + gc_migrated_pages")
