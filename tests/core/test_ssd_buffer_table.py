"""Unit tests for the SSD buffer table (Figure 4 structures)."""

import pytest

from repro.core.ssd_buffer_table import SsdBufferTable, SsdRecord


@pytest.fixture
def table():
    return SsdBufferTable(nframes=8)


class TestFreeList:
    def test_starts_fully_free(self, table):
        assert table.free_count == 8
        assert table.used_count == 0

    def test_take_free_depletes(self, table):
        taken = [table.take_free() for _ in range(8)]
        assert all(record is not None for record in taken)
        assert table.take_free() is None

    def test_release_returns_to_free_list(self, table):
        record = table.take_free()
        table.install(record, page_id=5, version=1, dirty=False, now=0.0)
        table.release(record)
        assert table.free_count == 8
        assert table.lookup(5) is None


class TestTakeFrame:
    """``take_frame`` claims one named frame wherever it sits in the
    free list, and leaves the others in their order."""

    @pytest.mark.parametrize("frame_no, left", [
        (7, [0, 1, 2, 3, 4, 5, 6]),     # right end: where ROT's frame is
        (0, [1, 2, 3, 4, 5, 6, 7]),     # left end: where LS's frames are
        (3, [0, 1, 2, 4, 5, 6, 7]),     # the middle
    ])
    def test_takes_the_frame_from_either_end_or_the_middle(
            self, table, frame_no, left):
        assert table.take_frame(frame_no) is table.records[frame_no]
        assert [table.take_free().frame_no for _ in range(7)] == left
        assert table.take_free() is None

    def test_released_frame_is_claimed_back_from_the_right_end(self, table):
        for page in range(8):
            table.install(table.take_free(), page, 1, False, 0.0)
        table.release(table.records[2])
        table.release(table.records[5])
        assert table.take_frame(5).frame_no == 5
        assert table.take_free().frame_no == 2

    def test_occupied_or_already_taken_frame_is_refused(self, table):
        record = table.take_frame(4)
        with pytest.raises(ValueError):
            table.take_frame(4)         # no longer on the free list
        table.install(record, 9, 1, False, 0.0)
        with pytest.raises(ValueError):
            table.take_frame(4)         # occupied


class TestInstallLookup:
    def test_lookup_finds_installed(self, table):
        record = table.take_free()
        table.install(record, page_id=7, version=2, dirty=True, now=1.0)
        found = table.lookup(7)
        assert found is record
        assert found.version == 2
        assert found.dirty

    def test_lookup_valid_filters_invalid(self, table):
        record = table.take_free()
        table.install(record, 7, 1, False, 0.0)
        table.invalidate_logical(record)
        assert table.lookup(7) is record
        assert table.lookup_valid(7) is None

    def test_install_over_occupied_rejected(self, table):
        record = table.take_free()
        table.install(record, 1, 1, False, 0.0)
        with pytest.raises(ValueError):
            table.install(record, 2, 1, False, 0.0)


class TestCounters:
    def fill(self, table, n, dirty_every=2):
        for i in range(n):
            record = table.take_free()
            table.install(record, i, 1, dirty=(i % dirty_every == 0), now=0.0)

    def test_valid_and_dirty_counts(self, table):
        self.fill(table, 6)
        assert table.used_count == 6
        assert table.valid_count == 6
        assert table.dirty_count == 3

    def test_invalidate_logical_updates_counts(self, table):
        self.fill(table, 4)
        table.invalidate_logical(table.lookup(0))
        assert table.valid_count == 3
        assert table.invalid_count == 1
        assert table.dirty_count == 1

    def test_set_dirty_toggles_count(self, table):
        self.fill(table, 2, dirty_every=1)
        record = table.lookup(0)
        table.set_dirty(record, False)
        assert table.dirty_count == 1
        table.set_dirty(record, False)  # idempotent
        assert table.dirty_count == 1
        table.set_dirty(record, True)
        assert table.dirty_count == 2

    def test_release_dirty_updates_counts(self, table):
        self.fill(table, 2, dirty_every=1)
        table.release(table.lookup(0))
        assert table.dirty_count == 1
        assert table.used_count == 1

    def test_counters_match_brute_force(self, table):
        self.fill(table, 8, dirty_every=3)
        table.invalidate_logical(table.lookup(1))
        table.release(table.lookup(2))
        expected_valid = sum(1 for r in table.records if r.valid)
        expected_dirty = sum(1 for r in table.records if r.valid and r.dirty)
        assert table.valid_count == expected_valid
        assert table.dirty_count == expected_dirty


class TestSegmentTally:
    """Valid copies per segment, kept where ``valid_count`` is kept."""

    def test_one_segment_unless_asked(self, table):
        assert table.segment_pages == 8
        assert table.segment_valid == [0]
        assert SsdBufferTable(0).segment_valid == []

    def test_tally_follows_every_validity_change(self):
        table = SsdBufferTable(nframes=10, segment_pages=4)
        assert table.segment_valid == [0, 0, 0]     # 4 + 4 + 2 frames
        for page in range(10):
            table.install(table.take_free(), page, 1, page % 2 == 0, 0.0)
        assert table.segment_valid == [4, 4, 2]
        table.invalidate_logical(table.records[1])
        table.invalidate_logical(table.records[1])  # already invalid
        table.release(table.records[5])
        table.release(table.records[1])             # invalid: no change
        assert table.segment_valid == [3, 3, 2]
        table.invalidate_logical(table.records[9])
        table.revalidate(table.records[9], 2, 1.0)
        assert table.segment_valid == [3, 3, 2]
        assert sum(table.segment_valid) == table.valid_count == 8
        table.check_invariants()
        table.clear()
        assert table.segment_valid == [0, 0, 0]
        table.check_invariants()

    def test_check_invariants_catches_a_wrong_tally(self):
        table = SsdBufferTable(nframes=10, segment_pages=4)
        table.install(table.take_free(), 1, 1, False, 0.0)
        table.segment_valid[0] -= 1
        table.segment_valid[2] += 1     # the sum still agrees
        with pytest.raises(AssertionError, match="segments hold"):
            table.check_invariants()
        table.segment_valid[0] += 1
        table.segment_valid[2] -= 1
        table.check_invariants()
        table._valid += 1               # the segments agree, the sum is off
        with pytest.raises(AssertionError, match="2 valid copies tallied"):
            table.check_invariants()


class TestRevalidate:
    def test_revalidate_invalid_record(self, table):
        record = table.take_free()
        table.install(record, 9, 1, False, 0.0)
        table.invalidate_logical(record)
        table.revalidate(record, version=5, now=2.0)
        assert record.valid
        assert record.version == 5
        assert table.valid_count == 1

    def test_revalidate_valid_record_rejected(self, table):
        record = table.take_free()
        table.install(record, 9, 1, False, 0.0)
        with pytest.raises(ValueError):
            table.revalidate(record, 2, 0.0)


class TestClearAndLru:
    def test_clear_resets_everything(self, table):
        for i in range(4):
            table.install(table.take_free(), i, 1, False, 0.0)
        table.clear()
        assert table.free_count == 8
        assert table.valid_count == 0
        assert table.dirty_count == 0
        assert all(not r.occupied for r in table.records)

    def test_record_access_history(self):
        record = SsdRecord(0)
        record.record_access(1.0, 7)
        record.record_access(2.0, 9)
        assert record.prev_access == 1.0
        assert record.last_access == 2.0
        assert record.lru_stamp == 9
