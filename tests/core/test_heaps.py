"""Unit and property tests for the lazy victim-selection heaps."""

from itertools import count
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.heaps import LazyMinHeap
from repro.core.ssd_buffer_table import SsdRecord
from repro.engine.page import Frame
from tests.conftest import MiniSystem


def make_records(n):
    records = []
    for i in range(n):
        record = SsdRecord(i)
        record.page_id = i
        record.valid = True
        records.append(record)
    return records


def clean_heap(clock=None):
    """The manager's clean heap; ``clock`` is the one its records'
    accesses are stamped from."""
    return LazyMinHeap(key=attrgetter("prev_access"),
                       member=lambda r: r.valid and not r.dirty,
                       clock=clock or count(1).__next__, touched=True)


class TestBasics:
    def test_pop_returns_minimum(self):
        heap = clean_heap()
        records = make_records(3)
        for record, access in zip(records, (5.0, 1.0, 3.0)):
            record.prev_access = access
            heap.push(record)
        assert heap.pop() is records[1]
        assert heap.pop() is records[2]
        assert heap.pop() is records[0]
        assert heap.pop() is None

    def test_repush_updates_priority(self):
        heap = clean_heap()
        records = make_records(2)
        records[0].prev_access = 1.0
        records[1].prev_access = 2.0
        heap.push(records[0])
        heap.push(records[1])
        records[0].prev_access = 9.0
        heap.push(records[0])  # re-accessed: now hottest
        assert heap.pop() is records[1]

    def test_remove_makes_entry_stale(self):
        heap = clean_heap()
        records = make_records(2)
        records[0].prev_access = 1.0
        records[1].prev_access = 2.0
        for record in records:
            heap.push(record)
        heap.remove(records[0])
        assert heap.pop() is records[1]

    def test_member_filter_drops_non_members(self):
        heap = clean_heap()
        records = make_records(2)
        for record in records:
            heap.push(record)
        records[0].dirty = True  # no longer belongs to the clean heap
        assert heap.pop() is records[1]

    def test_key_drift_reinserts(self):
        """If a record's key changed since push (TAC temperatures only
        grow), pop must still return the true minimum."""
        temps = {0: 1.0, 1: 2.0}
        heap = LazyMinHeap(key=lambda r: temps[r.frame_no],
                           member=lambda r: True, clock=count(1).__next__)
        records = make_records(2)
        heap.push(records[0])
        heap.push(records[1])
        temps[0] = 10.0  # record 0 got hot after push
        assert heap.pop() is records[1]

    def test_peek_does_not_remove(self):
        heap = clean_heap()
        record = make_records(1)[0]
        record.prev_access = 1.0
        heap.push(record)
        assert heap.peek() is record
        assert heap.pop() is record

    def test_clear(self):
        heap = clean_heap()
        for record in make_records(3):
            heap.push(record)
        heap.clear()
        assert heap.pop() is None


class TestPropertyBased:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1,
                    max_size=40, unique=True))
    def test_pops_in_sorted_order(self, accesses):
        heap = clean_heap()
        records = make_records(len(accesses))
        for record, access in zip(records, accesses):
            record.prev_access = access
            heap.push(record)
        popped = []
        while True:
            record = heap.pop()
            if record is None:
                break
            popped.append(record.prev_access)
        assert popped == sorted(accesses)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_reference_under_mixed_ops(self, data):
        """Interleave push/remove/pop and compare against a brute-force
        reference implementation."""
        heap = clean_heap()
        records = make_records(20)
        live = {}
        ops = data.draw(st.lists(st.tuples(
            st.sampled_from(["push", "remove", "pop"]),
            st.integers(min_value=0, max_value=19),
            st.floats(min_value=0, max_value=100)), max_size=60))
        for op, index, access in ops:
            record = records[index]
            if op == "push":
                record.prev_access = access
                heap.push(record)
                live[index] = access
            elif op == "remove":
                heap.remove(record)
                live.pop(index, None)
            else:
                expected = (min(live, key=lambda i: (live[i], ))
                            if live else None)
                actual = heap.pop()
                if expected is None:
                    assert actual is None
                else:
                    assert actual.prev_access == min(live.values())
                    live.pop(actual.frame_no)


def slack(live):
    """Garbage entries a heap of ``live`` records may carry before it
    has to rebuild itself."""
    return max(LazyMinHeap.MIN_COMPACT, 2 * live)


class TestCompaction:
    """The lazy heap must not grow without bound under churn: however
    a heap files its records, its entries never exceed the records it
    holds plus the compaction slack."""

    def test_heap_length_stays_bounded_under_churn(self):
        heap = clean_heap()
        records = make_records(10)
        # Re-push the same 10 records thousands of times: a heap that
        # kept an entry per push would hold ~10,000 of them.
        for round_no in range(1_000):
            for record in records:
                record.prev_access = float(round_no)
                heap.push(record)
            assert len(heap) <= 10 + slack(10)
        assert heap.live_count == 10

    def test_remove_churn_stays_bounded(self):
        heap = clean_heap()
        records = make_records(4)
        for round_no in range(2_000):
            for record in records:
                record.prev_access = float(round_no)
                heap.push(record)
            for record in records[:3]:
                heap.remove(record)
            assert len(heap) <= 4 + slack(4)
        assert heap.live_count == 1

    def test_compaction_preserves_pop_order(self):
        heap = clean_heap()
        records = make_records(50)
        for round_no in range(200):
            for record in records:
                record.prev_access = float(round_no * 50 + record.frame_no)
                heap.push(record)
        popped = []
        while True:
            record = heap.pop()
            if record is None:
                break
            popped.append(record.frame_no)
        # Final keys are round 199's: ordered by frame_no.
        assert popped == list(range(50))

    def test_small_heaps_never_compact(self):
        heap = clean_heap()
        records = make_records(2)
        for round_no in range(10):
            for record in records:
                record.prev_access = float(round_no)
                heap.push(record)
        # 20 pushes of 2 records: whatever they left behind is below
        # MIN_COMPACT and may stay; the records come out once each, equal
        # keys in the order of their last push.
        assert heap.live_count == 2
        assert len(heap) <= 2 + slack(2)
        assert [heap.pop(), heap.pop(), heap.pop()] == records + [None]


class TestAnAccessIsAStamp:
    """A frame is filed once; later pushes only record where it belongs
    and the entry is re-keyed when it surfaces (DESIGN.md §13)."""

    def test_pushing_a_filed_record_files_nothing(self):
        clock = count(1).__next__
        heap = clean_heap(clock)
        records = make_records(3)
        for record in records:
            heap.push(record)
        for now in (1.0, 2.0, 3.0):
            for record in records:
                record.record_access(now, clock())
                heap.push(record)
        assert (len(heap), heap.live_count, heap.heappushes) == (3, 3, 3)
        assert heap.rekeys == 0
        # Equal keys (2.0 each) come out in the order of the last push,
        # after one re-key each.
        assert [heap.pop() for _ in range(4)] == records + [None]
        assert heap.rekeys == 3 and heap.compactions == 0
        heap.check_invariants()

    def test_only_entries_that_surface_are_rekeyed(self):
        heap = clean_heap()
        records = make_records(50)
        for record in records:
            record.prev_access = float(record.frame_no)
            heap.push(record)
        for record in records[1:11]:    # ten cold pages are read again
            record.prev_access += 100.0
            heap.push(record)
        assert heap.pop() is records[0]
        assert heap.rekeys == 0
        assert heap.pop() is records[11]
        assert heap.rekeys == 10        # the ten in the way, nobody else
        assert [heap.pop().frame_no for _ in range(48)] == (
            list(range(12, 50)) + list(range(1, 11)))
        assert heap.rekeys == 10 and heap.heappushes == 50

    def test_a_lowered_key_is_filed_again(self):
        """A frame released and re-installed without a ``remove`` starts
        again at −inf: the entry filed under the old page's key would
        surface too late."""
        heap = clean_heap()
        records = make_records(3)
        for record, access in zip(records, (5.0, 6.0, 7.0)):
            record.prev_access = access
            heap.push(record)
        records[2].prev_access = float("-inf")
        heap.push(records[2])
        assert (len(heap), heap.live_count, heap.heappushes) == (4, 3, 4)
        heap.check_invariants()
        assert [heap.pop() for _ in range(4)] == [
            records[2], records[0], records[1], None]

    def test_an_access_alone_moves_its_record(self):
        """An access stamps the record and pushes nothing; the entry
        takes it in, as one re-key, when it surfaces."""
        clock = count(1).__next__
        heap = clean_heap(clock)
        records = make_records(3)
        for record in records:
            record.record_access(1.0, clock())
            heap.push(record)
        records[0].record_access(2.0, clock())  # key 1.0 -> 1.0, but later
        assert (len(heap), heap.heappushes, heap.rekeys) == (3, 3, 0)
        assert [heap.pop() for _ in range(4)] == [
            records[1], records[2], records[0], None]
        assert heap.rekeys == 1

    def test_a_non_members_access_is_not_taken_in(self):
        """A record filed in the dirty heap and cleaned since: its
        accesses as a clean page are the clean heap's, and the stale
        entry leaves where it was filed."""
        clock = count(1).__next__
        dirty = LazyMinHeap(key=attrgetter("prev_access"),
                            member=lambda r: r.valid and r.dirty,
                            clock=clock, touched=True)
        records = make_records(2)
        for record in records:
            record.dirty = True
            dirty.push(record)
        records[0].dirty = False
        records[0].record_access(5.0, clock())
        assert dirty.pop() is records[1]
        assert dirty.rekeys == 0 and dirty.live_count == 0

    @pytest.mark.parametrize("access", [
        lambda manager, page: manager.start_read(page),
        lambda manager, page: manager.on_evict_clean(Frame(page, 0))],
        ids=["read", "clean-eviction"])
    def test_an_ssd_access_reranks_its_record(self, access):
        """Two clean pages at one key: an access to the first at the
        same instant keeps its key and moves it behind the second, so
        the second is the replacement victim."""
        manager = MiniSystem(design="CW", ssd_frames=2).ssd_manager
        for page in (1, 2):
            record = manager.table.take_free()
            manager.table.install(record, page, 0, False, now=0.0)
            manager._file(record)
        for page in (1, 2, 1):
            access(manager, page)
        assert manager.table.lookup(1).prev_access == 0.0
        manager._evict_for_space()
        assert manager.table.lookup(2) is None
        assert manager.table.lookup_valid(1) is not None

    def test_removes_alone_cannot_pile_up_garbage(self):
        heap = clean_heap()
        records = make_records(300)
        for record in records:
            heap.push(record)
        for record in records[:-1]:
            heap.remove(record)
            assert len(heap) <= heap.live_count + slack(heap.live_count)
        assert heap.compactions > 0
        assert heap.pop() is records[-1]


class TestInvariants:
    def heap(self):
        heap = clean_heap()
        for record in make_records(4):
            record.prev_access = float(record.frame_no)
            heap.push(record)
        heap.check_invariants()
        return heap

    def test_a_live_frame_without_its_entry_is_caught(self):
        heap = self.heap()
        heap._heap.pop()
        with pytest.raises(AssertionError, match="4 live frames tallied"):
            heap.check_invariants()

    def test_a_frame_filed_twice_is_caught(self):
        heap = self.heap()
        heap._heap.append(heap._heap[-1])
        with pytest.raises(AssertionError, match="4 live frames tallied"):
            heap.check_invariants()

    def test_a_miscounted_live_tally_is_caught(self):
        heap = self.heap()
        heap._live += 1
        with pytest.raises(AssertionError, match="5 live frames tallied"):
            heap.check_invariants()

    def test_an_entry_filed_after_its_push_is_caught(self):
        heap = self.heap()
        heap._keys[2] = 1.5     # as if the key had fallen with no new entry
        with pytest.raises(AssertionError, match=r"filed in time \[0, 1, 3\]"):
            heap.check_invariants()

    def test_unshed_garbage_is_caught(self):
        heap = self.heap()
        garbage = (0.0, 0, heap._heap[0][2])
        heap._heap.extend([garbage] * (slack(4) + 1))
        with pytest.raises(AssertionError, match="4 live frames"):
            heap.check_invariants()


@pytest.mark.xfail(strict=True, reason=(
    "peek is pop + push: the coldest record is stamped anew and moves "
    "behind the records of equal key (TAC's admission check)"))
def test_peek_leaves_the_next_pop_unchanged_among_equal_keys():
    heap = LazyMinHeap(key=attrgetter("prev_access"),
                       member=lambda r: r.occupied, clock=count(1).__next__)
    records = make_records(3)
    for record in records:
        heap.push(record)
    peeked = heap.peek()
    assert heap.pop() is peeked
