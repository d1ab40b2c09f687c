"""``LazyMinHeap`` against the eager heap it replaced.

Which record a ``pop`` or a ``peek`` hands out is the SSD replacement
victim (clean heap), the page the cleaner writes back next (dirty heap)
or the page TAC displaces (temperature heap): every simulated number
downstream hangs on it.  ``tests/core/reference_heap.py`` is the heap
that defined those answers — a real ``heappush`` per ``push`` — and the
state machine below drives it and ``repro.core.heaps.LazyMinHeap`` with
the same random script over the same few records, three heaps a side
keyed as the managers key them, and demands the same record out of
every ``pop`` and ``peek`` and the same ``live_count`` after every step
(DESIGN.md §13).

The script does what the managers do and what they merely could: a
record is pushed into a heap it is no member of, its key moves with and
without a push (an access alone, a temperature bump), it flips between
the clean and the dirty heap with and without being filed in the other
one, its frame is released and re-installed without either heap being
told (the key starts again at −inf), a key is lowered behind the heap's
back.  Access times move in a few steps and often not at all, and
temperatures come from a handful of values, so equal keys — where only
the stamp a push was given decides — are the rule, not the exception.

An access (``record_access``) stamps the record and tells no heap; in
the reference it is a push into each LRU-2 heap that holds the record
as a member, which is what every access once was.  A change the heaps
are not told of comes after they took in the record's accesses
(``LazyMinHeap.take_in``), as ``_mark_clean`` makes sure before a dirty
page turns clean: a heap reads an access's stamp later, so the record
must still be what it was at the access.
"""

from itertools import count
from operator import attrgetter

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.heaps import LazyMinHeap
from repro.core.ssd_buffer_table import SsdRecord
from tests.core.reference_heap import EagerMinHeap

NRECORDS = 6
EXTENT = 2      # pages per temperature extent: records share a key

RECORDS = st.integers(min_value=0, max_value=NRECORDS - 1)
HEAPS = st.sampled_from(("clean", "dirty", "temp"))
#: How far the clock moves before an access or an install: often not
#: at all, so that records share keys.
DELAYS = st.sampled_from((0.0, 0.0, 1.0, 2.0, 3.0))
PAGES = st.integers(min_value=0, max_value=2 * NRECORDS - 1)


class HeapsAgainstTheirReference(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.records = [SsdRecord(i) for i in range(NRECORDS)]
        #: The table's clock: accesses and the tested heaps' pushes.
        self.clock = count(1).__next__
        self.temperatures = {}
        keyed = {
            "clean": (attrgetter("prev_access"),
                      lambda r: r.valid and not r.dirty),
            "dirty": (attrgetter("prev_access"),
                      lambda r: r.valid and r.dirty),
            "temp": (self._temperature, lambda r: r.occupied),
        }
        #: name -> (heap under test, reference), over the same records.
        self.heaps = {name: (LazyMinHeap(key, member, self.clock,
                                         touched=name != "temp"),
                             EagerMinHeap(key, member))
                      for name, (key, member) in keyed.items()}
        # The SSD starts full of clean pages, each read once since it
        # was cached (keys 0.0 .. 5.0, distinct and finite) and filed
        # where its manager would have filed it.
        for record in self.records:
            self._install(record, record.frame_no, dirty=False,
                          now=float(record.frame_no))
            self._access(record, record.frame_no + 1.0)
            self._push("clean", record)
            self._push("temp", record)
        #: Virtual time: it never runs backwards, so neither does an
        #: access time, and an access never lowers a record's key.
        self.now = float(NRECORDS)

    def _temperature(self, record):
        """TAC's key: external to the record and free to move."""
        if record.page_id is None:
            return float("-inf")
        return self.temperatures.get(record.page_id // EXTENT, 0.0)

    @staticmethod
    def _install(record, page, dirty, now):
        """What ``SsdBufferTable.release`` + ``install`` do to a record."""
        record.reset()
        record.page_id = page
        record.version = 0
        record.valid = True
        record.dirty = dirty
        record.last_access = now

    def _push(self, name, record):
        for heap in self.heaps[name]:
            heap.push(record)

    def _tick(self, delay):
        self.now += delay
        return self.now

    def _access(self, record, now):
        """An SSD access: the record is stamped; the reference re-files
        it in each LRU-2 heap it is a member of."""
        record.record_access(now, self.clock())
        for name in ("clean", "dirty"):
            reference = self.heaps[name][1]
            if (record.frame_no in reference._stamps
                    and reference._member(record)):
                reference.push(record)

    def _behind_the_backs(self, record):
        """Before a change no heap is told of: the heaps under test
        take in the record's accesses."""
        for heap, _ in self.heaps.values():
            heap.take_in(record)

    # -- what the managers tell a heap ---------------------------------

    @rule(index=RECORDS, name=HEAPS)
    def push(self, index, name):
        self._push(name, self.records[index])

    @rule(index=RECORDS, delay=DELAYS, name=HEAPS)
    def access_and_push(self, index, delay, name):
        self._access(self.records[index], self._tick(delay))
        self._push(name, self.records[index])

    @rule(index=RECORDS, name=HEAPS)
    def remove(self, index, name):
        for heap in self.heaps[name]:
            heap.remove(self.records[index])

    @rule(name=HEAPS)
    def pop(self, name):
        heap, reference = self.heaps[name]
        assert heap.pop() is reference.pop()

    @rule(name=HEAPS)
    def peek(self, name):
        heap, reference = self.heaps[name]
        assert heap.peek() is reference.peek()

    @rule(name=HEAPS)
    def clear(self, name):
        for heap in self.heaps[name]:
            heap.clear()

    @rule(index=RECORDS, delay=DELAYS)
    def access_alone(self, index, delay):
        """An access that stamps without pushing."""
        self._access(self.records[index], self._tick(delay))

    # -- what happens to a record behind a heap's back -----------------

    @rule(index=RECORDS, file_it=st.booleans())
    def flip_dirty(self, index, file_it):
        record = self.records[index]
        self._behind_the_backs(record)
        record.dirty = not record.dirty
        if file_it:
            self._push("dirty" if record.dirty else "clean", record)

    @rule(index=RECORDS, page=PAGES, dirty=st.booleans(), delay=DELAYS)
    def release_and_reinstall(self, index, page, dirty, delay):
        """The frame changes hands; no heap hears of it (no ``remove``),
        and the new page's key starts again at −inf."""
        self._behind_the_backs(self.records[index])
        self._install(self.records[index], page, dirty, self._tick(delay))

    @rule(index=RECORDS)
    def release(self, index):
        self._behind_the_backs(self.records[index])
        self.records[index].reset()

    @rule(index=RECORDS)
    def invalidate_logically(self, index):
        self._behind_the_backs(self.records[index])
        self.records[index].valid = False
        self.records[index].dirty = False

    @rule(index=RECORDS,
          to=st.sampled_from((float("-inf"), 0.0, 1.0, 2.0, 3.0)))
    def lower_key(self, index, to):
        record = self.records[index]
        self._behind_the_backs(record)
        record.prev_access = min(record.prev_access, to)

    @rule(extent=st.integers(min_value=0, max_value=NRECORDS - 1),
          by=st.sampled_from((1.0, 2.0, -1.0)))
    def move_temperature(self, extent, by):
        self.temperatures[extent] = self.temperatures.get(extent, 0.0) + by

    # -- what must agree ------------------------------------------------

    @invariant()
    def same_live_count(self):
        for heap, reference in self.heaps.values():
            assert heap.live_count == reference.live_count

    def teardown(self):
        """Whatever is left comes out in the reference's order."""
        for heap, reference in self.heaps.values():
            expected = reference.pop()
            while expected is not None:
                assert heap.pop() is expected
                expected = reference.pop()
            assert heap.pop() is None


# max_examples is left to the profile: 100 scripts in tier-1, 1,000
# under ``--hypothesis-profile=thorough`` (CI).
HeapsAgainstTheirReference.TestCase.settings = settings(
    stateful_step_count=60, deadline=None)
TestHeapsAgainstTheirReference = HeapsAgainstTheirReference.TestCase
