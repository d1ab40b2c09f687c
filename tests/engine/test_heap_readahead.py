"""Unit tests for heap files, scans, and the classifiers."""

import pytest

from repro.engine.heap_file import HeapFile
from repro.engine.readahead import ReadAhead, ReadAheadAccuracy, WindowClassifier
from tests.conftest import MiniSystem, drive


class TestHeapFile:
    def test_page_of_wraps_uniformly(self):
        # Record slot s lives on page first_page + s % npages.
        table = HeapFile("t", first_page=100, npages=10)
        assert [table.first_page + slot % table.npages
                for slot in (0, 10, 13)] == [100, 100, 103]

    def test_end_page(self):
        assert HeapFile("t", 100, 10).end_page == 110

    def test_validates_size(self):
        with pytest.raises(ValueError):
            HeapFile("t", 0, 0)


class TestScan:
    def make(self, npages=64, bp_pages=128):
        sys_ = MiniSystem(design="noSSD", db_pages=500, bp_pages=bp_pages)
        table = HeapFile("t", first_page=100, npages=npages)
        return sys_, table

    def test_scan_touches_every_page(self):
        sys_, table = self.make()
        scanned = drive(sys_.env, table.scan(sys_.bp))
        assert scanned == 64

    def test_scan_range_validation(self):
        sys_, table = self.make()
        with pytest.raises(ValueError):
            drive(sys_.env, table.scan(sys_.bp, start=90, npages=4))

    def test_trigger_pages_are_random_rest_sequential(self):
        sys_, table = self.make()
        accuracy = ReadAheadAccuracy()
        drive(sys_.env, table.scan(sys_.bp, accuracy=accuracy))
        # Only the trigger pages are misclassified.
        trigger = sys_.bp.readahead.trigger_pages
        assert accuracy.total == 64
        assert accuracy.correct == 64 - trigger

    def test_partial_scan(self):
        sys_, table = self.make()
        scanned = drive(sys_.env, table.scan(sys_.bp, start=110, npages=20))
        assert scanned == 20

    def test_scan_faster_than_random_reads(self):
        sys_, table = self.make()
        drive(sys_.env, table.scan(sys_.bp))
        scan_time = sys_.env.now

        sys2 = MiniSystem(design="noSSD", db_pages=500, bp_pages=128)

        def random_reads():
            for pid in range(100, 164):
                frame = yield from sys2.bp.fetch((pid * 37) % 500)
                sys2.bp.unpin(frame)

        drive(sys2.env, random_reads())
        assert scan_time < sys2.env.now / 3


class TestReadAheadConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ReadAhead(batch_pages=0)
        with pytest.raises(ValueError):
            ReadAhead(trigger_pages=-1)
        with pytest.raises(ValueError):
            ReadAhead(depth=0)


class TestWindowClassifier:
    def test_adjacent_reads_classified_sequential(self):
        classifier = WindowClassifier(window=64)
        classifier.classify(100)
        assert classifier.classify(101) is True

    def test_distant_reads_classified_random(self):
        classifier = WindowClassifier(window=64)
        classifier.classify(100)
        assert classifier.classify(100_000) is False

    def test_first_read_is_random(self):
        assert WindowClassifier().classify(5) is False

    def test_accuracy_scoring(self):
        classifier = WindowClassifier(window=64)
        classifier.classify(0, truth_sequential=False)      # correct
        classifier.classify(1, truth_sequential=True)       # correct
        classifier.classify(2, truth_sequential=False)      # wrong
        assert classifier.total == 3
        assert classifier.accuracy == pytest.approx(2 / 3)

    def test_interleaved_streams_confuse_it(self):
        """The paper's point: interleaving breaks the window heuristic."""
        classifier = WindowClassifier(window=64)
        correct = 0
        # Two interleaved sequential scans far apart: every read looks
        # random to the window method even though all are sequential.
        for i in range(50):
            correct += classifier.classify(i, truth_sequential=True)
            correct += classifier.classify(100_000 + i, truth_sequential=True)
        assert classifier.accuracy < 0.2
