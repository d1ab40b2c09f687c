"""Unit and property tests for the FTL model (DESIGN.md §10).

The invariants here are the ones the LS design's WAF claims rest on:
GC never loses a valid page, the logical mapping survives relocation,
``nand_writes == host_writes + gc_migrated_pages`` exactly, wear stays
level, and the whole model is deterministic under a fixed seed.
"""

import random

import pytest

from repro.sim import Environment
from repro.storage import IoKind, IORequest, Ssd
from repro.storage.ftl import FlashTranslationLayer, FtlConfig
from tests.conftest import drive


def make_ftl(logical_pages=256, **kwargs):
    return FlashTranslationLayer(logical_pages,
                                 FtlConfig(pages_per_block=8, **kwargs))


class TestGeometry:
    def test_physical_exceeds_logical(self):
        ftl = make_ftl(256)
        assert ftl.nblocks * ftl.config.pages_per_block > 256

    def test_floor_guarantees_gc_headroom(self):
        # Even a tiny logical space gets low-water + stream + slack blocks.
        ftl = FlashTranslationLayer(4, FtlConfig(pages_per_block=4))
        assert ftl.nblocks >= 1 + ftl.config.gc_low_water_blocks + 3

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FtlConfig(pages_per_block=1)
        with pytest.raises(ValueError):
            FtlConfig(op_ratio=0.0)
        with pytest.raises(ValueError):
            FtlConfig(gc_low_water_blocks=0)
        with pytest.raises(ValueError):
            FlashTranslationLayer(0)

    def test_lpn_bounds_checked(self):
        ftl = make_ftl(16)
        with pytest.raises(ValueError):
            ftl.host_write(16)
        with pytest.raises(ValueError):
            ftl.host_read(-1)


class TestGcInvariants:
    def test_gc_never_loses_a_valid_page(self):
        """Random overwrites force heavy GC; every logical page written
        must stay mapped, whatever relocation did to its physical home."""
        ftl = make_ftl(128)
        rng = random.Random(42)
        written = set()
        for _ in range(4_000):
            lpn = rng.randrange(128)
            ftl.host_write(lpn)
            written.add(lpn)
        assert ftl.stats.gc_runs > 0, "workload never triggered GC"
        assert len(ftl._mapping) == len(written)
        ftl.check()

    def test_mapping_consistent_under_relocation(self):
        """check() proves the lpn->ppn and ppn->lpn views stay inverse
        bijections while GC shuffles physical pages underneath."""
        ftl = make_ftl(64)
        rng = random.Random(7)
        for step in range(2_000):
            ftl.host_write(rng.randrange(64))
            if step % 100 == 0:
                ftl.check()
        ftl.check()

    def test_waf_identity_exact(self):
        """WAF == nand_writes / host_writes, with nand_writes exactly
        host_writes + gc_migrated_pages — no leaks, no double counting."""
        ftl = make_ftl(128)
        rng = random.Random(3)
        for _ in range(3_000):
            ftl.host_write(rng.randrange(128))
        stats = ftl.stats
        assert stats.nand_writes == stats.host_writes + stats.gc_migrated_pages
        assert ftl.waf == stats.nand_writes / stats.host_writes
        assert ftl.waf > 1.0  # random overwrites must amplify

    def test_wear_stays_level(self):
        """Min-erase free-block allocation bounds the erase-count spread
        under uniform traffic."""
        ftl = make_ftl(128)
        rng = random.Random(11)
        for _ in range(20_000):
            ftl.host_write(rng.randrange(128))
        assert max(ftl.erase_counts()) > 5  # enough wear to mean something
        assert ftl.wear_spread <= 10

    def test_free_pool_never_exhausts_under_gc(self):
        ftl = make_ftl(128, gc_low_water_blocks=2)
        rng = random.Random(5)
        for _ in range(10_000):
            ftl.host_write(rng.randrange(128))
            assert ftl.free_block_count >= 1


class TestTrafficPatterns:
    def test_sequential_log_with_trim_has_unit_waf(self):
        """The LS write pattern: append sequentially, trim before reuse.
        GC victims are fully dead, so nothing migrates and WAF == 1."""
        ftl = make_ftl(256)
        for lap in range(20):
            for lpn in range(256):
                ftl.trim(lpn)
                ftl.host_write(lpn)
        assert ftl.waf == 1.0
        assert ftl.stats.gc_migrated_pages == 0
        assert ftl.wear_spread <= 1
        ftl.check()

    def test_random_overwrite_amplifies_more_than_sequential(self):
        seq, rnd = make_ftl(256), make_ftl(256)
        rng = random.Random(9)
        for lap in range(12):
            for lpn in range(256):
                seq.trim(lpn)
                seq.host_write(lpn)
                rnd.host_write(rng.randrange(256))
        assert rnd.waf > seq.waf + 0.2

    def test_trim_is_metadata_only(self):
        ftl = make_ftl(64)
        for lpn in range(64):
            ftl.host_write(lpn)
        nand_before = (ftl.stats.nand_writes, ftl.stats.nand_reads,
                       ftl.stats.erases)
        for lpn in range(64):
            ftl.trim(lpn)
        assert (ftl.stats.nand_writes, ftl.stats.nand_reads,
                ftl.stats.erases) == nand_before
        assert ftl.stats.trims == 64
        assert len(ftl._mapping) == 0
        ftl.check()

    def test_trim_of_unmapped_page_is_noop(self):
        ftl = make_ftl(64)
        ftl.trim(5)
        assert ftl.stats.trims == 0

    def test_force_gc_reclaims_blocks(self):
        ftl = make_ftl(64)
        for lap in range(3):
            for lpn in range(64):
                ftl.host_write(lpn)
        before = ftl.stats.erases
        work = ftl.force_gc(blocks=2)
        assert work.erases == 2
        assert ftl.stats.erases == before + 2
        ftl.check()


class TestDeterminism:
    def test_identical_runs_produce_identical_snapshots(self):
        def run():
            ftl = make_ftl(128)
            rng = random.Random(20110612)
            for _ in range(5_000):
                lpn = rng.randrange(128)
                if rng.random() < 0.1:
                    ftl.trim(lpn)
                else:
                    ftl.host_write(lpn)
            return (dict(ftl._mapping), ftl.erase_counts(),
                    sorted(ftl._free_blocks),
                    (ftl._active, ftl._active_slot),
                    (ftl._gc_active, ftl._gc_slot), vars(ftl.stats).copy())

        assert run() == run()


class TestSsdIntegration:
    def test_default_ssd_has_no_ftl_and_keeps_table1_timing(self):
        env = Environment()
        ssd = Ssd(env)
        assert ssd.ftl is None
        read = IORequest(IoKind.RANDOM_READ, 0)
        write = IORequest(IoKind.RANDOM_WRITE, 0)
        assert ssd.service_time(read) == pytest.approx(8 / 12_182, rel=1e-6)
        assert ssd.service_time(write) == pytest.approx(8 / 12_374, rel=1e-6)

    def test_ftl_ssd_requires_logical_pages(self):
        env = Environment()
        with pytest.raises(ValueError):
            Ssd(env, ftl=FtlConfig())

    def test_ftl_ssd_accounts_host_io(self):
        env = Environment()
        ssd = Ssd(env, ftl=FtlConfig(pages_per_block=8), logical_pages=64)

        def proc():
            yield ssd.submit(IORequest(IoKind.RANDOM_WRITE, 0, npages=4))
            yield ssd.submit(IORequest(IoKind.RANDOM_READ, 0, npages=4))

        drive(env, proc())
        assert ssd.ftl.stats.host_writes == 4
        assert ssd.ftl.stats.host_reads == 4

    def test_gc_cost_lands_on_triggering_write(self):
        """Once the FTL starts erasing, a write is billed the erase time
        on top of its program — the foreground GC stall."""
        env = Environment()
        ssd = Ssd(env, ftl=FtlConfig(pages_per_block=8), logical_pages=64)
        quiet = ssd.service_time(IORequest(IoKind.RANDOM_WRITE, 0))
        rng = random.Random(1)
        stall = 0.0
        for _ in range(2_000):
            t = ssd.service_time(
                IORequest(IoKind.RANDOM_WRITE, rng.randrange(64)))
            stall = max(stall, t)
        assert ssd.ftl.stats.erases > 0
        assert stall > quiet + ssd._block_erase * 0.9

    def test_device_trim_forwards_to_ftl(self):
        env = Environment()
        ssd = Ssd(env, ftl=FtlConfig(pages_per_block=8), logical_pages=64)

        def proc():
            yield ssd.submit(IORequest(IoKind.RANDOM_WRITE, 0, npages=8))

        drive(env, proc())
        ssd.trim(0, npages=8)
        assert ssd.ftl.stats.trims == 8
        # trim on a black-box Ssd is a no-op, not an error
        Ssd(env).trim(0, npages=8)

    def test_fail_channels_inflates_service_time(self):
        env = Environment()
        ssd = Ssd(env, channels=8)
        request = IORequest(IoKind.RANDOM_READ, 0)
        base = ssd.service_time(request)
        assert ssd.fail_channels(4) == 4
        assert ssd.channels_alive == 4
        assert ssd.service_time(request) == pytest.approx(base * 2.0)

    def test_fail_all_channels_reports_dead(self):
        env = Environment()
        ssd = Ssd(env, channels=2)
        assert ssd.fail_channels(5) == 0
        assert ssd.channels_alive == 0
