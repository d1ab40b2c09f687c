"""The paper's contribution: SSD buffer-pool extension designs.

This package implements the storage-module extension of the paper's
Figure 1 — an *SSD manager* sitting between the buffer manager and the
disk manager — in four flavours plus the baseline:

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

All designs share the Figure 4 data structures
(:mod:`~repro.core.ssd_buffer_table`), LRU-2 replacement over clean/dirty
heaps (:mod:`~repro.core.heaps`), the random-only admission policy with
aggressive filling (:mod:`~repro.core.admission`), throttle control, and
multi-page trimming (§3.3).
"""

from repro.core.config import SsdDesignConfig
from repro.core.ssd_buffer_table import SsdBufferTable, SsdRecord
from repro.core.heaps import LazyMinHeap
from repro.core.admission import AdmissionPolicy
from repro.core.ssd_manager import SsdManagerBase, TrimPlan
from repro.core.cw import CleanWriteManager, NoSsdManager
from repro.core.dw import DualWriteManager
from repro.core.lc import LazyCleaningManager
from repro.core.ls import LogStructuredManager
from repro.core.tac import TemperatureAwareManager
from repro.core.rotating import RotatingSsdManager
from repro.core.exclusive import ExclusiveSsdManager

#: Registry mapping design names used throughout the paper's figures to
#: the classes implementing them.  ``ROT`` and ``EXCL`` are the related-
#: work designs the paper discusses in §5 (Holloway's rotating SSD and
#: Koltsidas & Viglas's exclusive approach), implemented for the
#: extended design-comparison benchmark.
DESIGNS = {
    "noSSD": NoSsdManager,
    "CW": CleanWriteManager,
    "DW": DualWriteManager,
    "LC": LazyCleaningManager,
    "LS": LogStructuredManager,
    "TAC": TemperatureAwareManager,
    "ROT": RotatingSsdManager,
    "EXCL": ExclusiveSsdManager,
}

__all__ = [
    "AdmissionPolicy",
    "CleanWriteManager",
    "DESIGNS",
    "DualWriteManager",
    "ExclusiveSsdManager",
    "LazyCleaningManager",
    "LazyMinHeap",
    "LogStructuredManager",
    "NoSsdManager",
    "RotatingSsdManager",
    "SsdBufferTable",
    "SsdDesignConfig",
    "SsdManagerBase",
    "SsdRecord",
    "TemperatureAwareManager",
    "TrimPlan",
]
