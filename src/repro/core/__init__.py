"""The paper's contribution: SSD buffer-pool extension designs.

This package implements the storage-module extension of the paper's
Figure 1 — an *SSD manager* sitting between the buffer manager and the
disk manager — as eight designs, one row each of :data:`DESIGNS`:

* :class:`~repro.core.cw.CleanWriteManager` (**CW**) — dirty evictions go
  only to disk; the SSD caches clean pages.
* :class:`~repro.core.dw.DualWriteManager` (**DW**) — dirty evictions go
  to both the SSD and the disk (write-through).
* :class:`~repro.core.lc.LazyCleaningManager` (**LC**) — dirty evictions
  go only to the SSD; a background lazy-cleaner thread copies dirty SSD
  pages to disk (write-back), governed by the dirty-fraction threshold λ.
* :class:`~repro.core.tac.TemperatureAwareManager` (**TAC**) — the Canim
  et al. (VLDB 2010) baseline: extent temperatures, write-through on read,
  logical invalidation.
* :class:`~repro.core.cw.NoSsdManager` (**noSSD**) — the unmodified
  engine: CW over an SSD of no frames.
* :class:`~repro.core.ls.LogStructuredManager` (**LS**) — this
  reproduction's extension beyond the paper: the SSD laid out as an
  append-only log with group-commit admission and GC-aware tail
  reclamation, designed against the modelled flash internals of
  :mod:`repro.storage.ftl` (DESIGN.md §10).
* :class:`~repro.core.rotating.RotatingSsdManager` (**ROT**) and
  :class:`~repro.core.exclusive.ExclusiveSsdManager` (**EXCL**) — the
  related-work designs of the paper's §5 (Holloway's rotating SSD,
  Koltsidas & Viglas's exclusive two-level cache).

All designs share the Figure 4 data structures
(:mod:`~repro.core.ssd_buffer_table`), LRU-2 replacement over clean/dirty
heaps (:mod:`~repro.core.heaps`), the random-only admission policy with
aggressive filling (:mod:`~repro.core.admission`), throttle control, and
multi-page trimming (§3.3).
"""

from __future__ import annotations

from importlib import import_module
from typing import TYPE_CHECKING, Dict, NamedTuple, Type

from repro.core.config import SsdDesignConfig

if TYPE_CHECKING:
    from repro.core.ssd_manager import SsdManagerBase


class Design(NamedTuple):
    """One row of :data:`DESIGNS`: where a design is defined, and what
    ``repro designs`` says about it."""

    module: str
    cls: str
    summary: str


#: The design table: the names used throughout the paper's figures, one
#: row each.  Listing it imports no design; :func:`design_class` imports
#: only the chosen one's module.
DESIGNS: Dict[str, Design] = {
    "noSSD": Design("repro.core.cw", "NoSsdManager",
                    "unmodified engine (baseline)"),
    "CW": Design("repro.core.cw", "CleanWriteManager",
                 "clean-write: dirty evictions never cached (§2.3.1)"),
    "DW": Design("repro.core.dw", "DualWriteManager",
                 "dual-write: write-through dirty evictions (§2.3.2)"),
    "LC": Design("repro.core.lc", "LazyCleaningManager",
                 "lazy-cleaning: write-back with a cleaner thread (§2.3.3)"),
    "LS": Design("repro.core.ls", "LogStructuredManager",
                 "log-structured: append-only SSD log, group-commit "
                 "admission, GC-aware reclaim (DESIGN.md §10)"),
    "TAC": Design("repro.core.tac", "TemperatureAwareManager",
                  "temperature-aware caching (Canim et al., the paper's "
                  "baseline)"),
    "ROT": Design("repro.core.rotating", "RotatingSsdManager",
                  "rotating circular SSD queue (Holloway, related work §5)"),
    "EXCL": Design("repro.core.exclusive", "ExclusiveSsdManager",
                   "exclusive two-level cache (Koltsidas & Viglas, related "
                   "work §5)"),
}


def design_class(name: str) -> Type[SsdManagerBase]:
    """The class implementing design ``name``, importing its module."""
    row = DESIGNS[name]
    return getattr(import_module(row.module), row.cls)


__all__ = ["DESIGNS", "Design", "SsdDesignConfig", "design_class"]
