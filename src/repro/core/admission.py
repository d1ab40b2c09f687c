"""SSD admission policy (§2.2, §3.3.1).

The SSD only pays off for pages the disks would serve with *random* I/O,
so the policy admits a page iff it entered the buffer pool via a random
read (not via read-ahead).  One refinement from the paper:
**aggressive filling (τ)** — from a cold start, *all* evicted pages are
admitted until the SSD reaches τ of its capacity, priming it quickly.

The paper's alternative signal, the 64-page-window heuristic (Narayanan
et al.), is far less accurate; the admission ablation scores it directly
(:class:`~repro.engine.readahead.WindowClassifier`).
"""

from __future__ import annotations

from repro.core.config import SsdDesignConfig
from repro.engine.page import Frame


class AdmissionPolicy:
    """Decides whether an evicted page qualifies for SSD caching."""

    def __init__(self, config: SsdDesignConfig):
        self.config = config

    def qualifies(self, frame: Frame, ssd_used: int) -> bool:
        """Should this evicted page be cached in the SSD?"""
        if self.config.ssd_frames == 0:
            return False
        if ssd_used < self.config.fill_target_frames:
            return True
        return not frame.sequential
