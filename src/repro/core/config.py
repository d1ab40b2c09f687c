"""Configuration for the SSD designs (the paper's Table 2)."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class SsdDesignConfig:
    """Tunables shared by all SSD designs.

    Defaults follow the paper's Table 2, except ``ssd_frames`` (S), which
    the paper sets to 18,350,080 (140 GB) and a scaled run sets to its own
    profile's value, and λ, which the paper varies by benchmark (50% for
    TPC-C, 1% for TPC-E/H).
    """

    #: S — number of page frames in the SSD buffer pool.
    ssd_frames: int = 14_000
    #: τ — aggressive-filling threshold (§3.3.1): until the SSD is this
    #: full, *every* evicted page is cached regardless of admission.
    fill_threshold: float = 0.95
    #: μ — throttle-control threshold (§3.3.2): optional SSD I/Os are
    #: skipped while more than this many I/Os are pending on the SSD.
    throttle_limit: int = 100
    #: N — number of partitions (§3.3.4).  The SSD table's per-partition
    #: contention is not modelled; N is the shard count of the
    #: main-memory buffer pool, whose latches are.
    partitions: int = 16
    #: α — max dirty SSD pages gathered into one LC write request (§3.3.5).
    group_clean_pages: int = 32
    #: λ — dirty fraction of SSD space at which the LC cleaner wakes
    #: (§2.3.3).  The paper uses 1% for TPC-E/H and 50% for TPC-C.
    dirty_threshold: float = 0.5
    #: How far below λ the cleaner drains before sleeping (the paper
    #: cleans to "about 0.01% of the SSD space below the threshold").
    clean_slack: float = 0.0001
    #: Extent size in pages for TAC's temperature tracking (§2.5).
    extent_pages: int = 32
    #: Concurrent group-clean batches the LC cleaner keeps in flight.
    #: The paper's cleaner sustained 521–950 IOPS against the disks
    #: (§4.2.1), which requires overlapping I/Os; a serial cleaner tops
    #: out near one page per disk-write latency.
    cleaner_concurrency: int = 8
    #: Persist the SSD buffer table at checkpoints so a restart can reuse
    #: SSD contents (the paper's §6 future-work extension; off = paper
    #: behaviour, where the SSD restarts cold).
    warm_restart: bool = False
    #: LS design: pages per group-commit admission batch.
    ls_batch_pages: int = 16
    #: LS design: pages reclaimed from the log tail per GC segment.
    ls_segment_pages: int = 64

    def __post_init__(self) -> None:
        if self.ssd_frames < 0:
            raise ValueError(f"ssd_frames must be >= 0, got {self.ssd_frames}")
        for name in ("fill_threshold", "dirty_threshold", "clean_slack"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:  # nan fails too
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        for name in ("throttle_limit", "partitions", "group_clean_pages",
                     "extent_pages", "cleaner_concurrency", "ls_batch_pages",
                     "ls_segment_pages"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")

    @property
    def fill_target_frames(self) -> int:
        """Frame count at which aggressive filling stops (τ · S)."""
        return int(self.fill_threshold * self.ssd_frames)

    @property
    def dirty_limit_frames(self) -> int:
        """Dirty frame count at which the LC cleaner wakes (λ · S)."""
        return int(self.dirty_threshold * self.ssd_frames)

    @property
    def clean_target_frames(self) -> int:
        """Dirty frame count the LC cleaner drains down to."""
        return max(0, self.dirty_limit_frames
                   - max(1, int(self.clean_slack * self.ssd_frames)))
