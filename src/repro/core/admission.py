"""SSD admission policy (§2.2, §3.3.1).

The SSD only pays off for pages the disks would serve with *random* I/O,
so the baseline policy admits a page iff it entered the buffer pool via a
random read (not via read-ahead).  Two refinements from the paper:

* **Aggressive filling (τ)** — from a cold start, *all* evicted pages are
  admitted until the SSD reaches τ of its capacity, priming it quickly.
* **Alternative classifier** — instead of the read-ahead flag, the
  64-page-window heuristic (Narayanan et al.) can supply the
  random/sequential signal; the paper found it far less accurate, and the
  admission ablation reproduces the comparison.
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import SsdDesignConfig
from repro.engine.page import Frame
from repro.engine.readahead import WindowClassifier


class AdmissionPolicy:
    """Decides whether an evicted page qualifies for SSD caching."""

    def __init__(self, config: SsdDesignConfig,
                 classifier: Optional[WindowClassifier] = None):
        self.config = config
        #: Optional window classifier; when present it *overrides* the
        #: read-ahead flag (the ablation's "window" admission mode).
        self.classifier = classifier

    def qualifies(self, frame: Frame, ssd_used: int) -> bool:
        """Should this evicted page be cached in the SSD?"""
        if self.config.ssd_frames == 0:
            return False
        if ssd_used < self.config.fill_target_frames:
            return True
        if self.classifier is not None:
            return not self.classifier.classify(frame.page_id)
        return not frame.sequential
