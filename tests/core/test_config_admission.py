"""Unit tests for design configuration and the admission policy."""

import pytest

from repro.core import SsdDesignConfig
from repro.engine.page import Frame
from tests.conftest import MiniSystem


class TestConfig:
    def test_paper_defaults(self):
        config = SsdDesignConfig()
        assert config.fill_threshold == 0.95     # τ
        assert config.throttle_limit == 100      # μ
        assert config.partitions == 16           # N
        assert config.group_clean_pages == 32    # α
        assert config.extent_pages == 32

    def test_derived_frame_counts(self):
        config = SsdDesignConfig(ssd_frames=1000, fill_threshold=0.9,
                                 dirty_threshold=0.5, clean_slack=0.01)
        assert config.fill_target_frames == 900
        assert config.dirty_limit_frames == 500
        assert config.clean_target_frames == 490

    def test_clean_target_never_negative(self):
        config = SsdDesignConfig(ssd_frames=10, dirty_threshold=0.0)
        assert config.clean_target_frames == 0

    @pytest.mark.parametrize("kwargs", [
        {"ssd_frames": -1},
        {"fill_threshold": 1.5},
        {"dirty_threshold": -0.1},
        {"throttle_limit": 0},
        {"partitions": 0},
        {"group_clean_pages": 0},
        {"extent_pages": 0},
        # A cleaner with no batches in flight never cleans a page.
        {"cleaner_concurrency": 0},
        {"cleaner_concurrency": -2},
        # nan reached the cleaner as int(nan) in clean_target_frames.
        {"clean_slack": float("nan")},
        {"clean_slack": -0.1},
        {"clean_slack": 1.5},
        {"fill_threshold": float("nan")},
    ])
    def test_validation(self, kwargs):
        (name, value), = kwargs.items()
        with pytest.raises(ValueError, match=rf"^{name} .*got {value}$"):
            SsdDesignConfig(**kwargs)


def random_frame(page_id=1):
    return Frame(page_id, sequential=False)


def sequential_frame(page_id=1):
    return Frame(page_id, sequential=True)


def manager(ssd_used, **config):
    """A CW manager whose SSD holds ``ssd_used`` pages."""
    ssd_manager = MiniSystem(design="CW", **config).ssd_manager
    for page_id in range(ssd_used):
        ssd_manager.table.install(ssd_manager.table.take_free(), page_id,
                                  version=1, dirty=False, now=0.0)
    return ssd_manager


class TestAdmission:
    def test_random_pages_admitted_after_fill(self):
        assert manager(100, ssd_frames=100)._qualifies(random_frame()) is True

    def test_sequential_pages_rejected_after_fill(self):
        assert manager(100, ssd_frames=100)._qualifies(
            sequential_frame()) is False

    def test_aggressive_fill_admits_everything(self):
        """§3.3.1: until the SSD reaches τ, all evicted pages qualify."""
        ssd_manager = manager(50, ssd_frames=100, fill_threshold=0.95)
        assert ssd_manager._qualifies(sequential_frame()) is True

    def test_fill_phase_ends_at_tau(self):
        ssd_manager = manager(95, ssd_frames=100, fill_threshold=0.95)
        assert not ssd_manager._qualifies(sequential_frame())

    def test_zero_frames_rejects_everything(self):
        assert not manager(0, ssd_frames=0)._qualifies(random_frame())
