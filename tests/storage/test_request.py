"""Unit tests for I/O request descriptors."""

import pickle

import pytest

from repro.storage.request import IoKind, IORequest, PAGE_SIZE_BYTES


class TestIoKind:
    def test_four_classes(self):
        assert len(list(IoKind)) == 4

    def test_direction_flags(self):
        assert IoKind.RANDOM_READ.is_read
        assert not IoKind.RANDOM_READ.is_write
        assert IoKind.SEQUENTIAL_WRITE.is_write

    def test_random_flags(self):
        assert IoKind.RANDOM_READ.random
        assert not IoKind.SEQUENTIAL_READ.random

    def test_of_builds_all_combinations(self):
        assert IoKind.of("read", True) is IoKind.RANDOM_READ
        assert IoKind.of("read", False) is IoKind.SEQUENTIAL_READ
        assert IoKind.of("write", True) is IoKind.RANDOM_WRITE
        assert IoKind.of("write", False) is IoKind.SEQUENTIAL_WRITE

    def test_keys_dicts_by_identity_and_survives_pickling(self):
        """The hash is the C-level identity one (hot per-kind lookups);
        members are singletons, so a round trip finds the same key."""
        assert IoKind.__hash__ is object.__hash__
        table = {kind: kind.name for kind in IoKind}
        for kind in IoKind:
            assert table[pickle.loads(pickle.dumps(kind))] == kind.name

    def test_of_rejects_unknown_direction(self):
        with pytest.raises(ValueError):
            IoKind.of("erase", True)


class TestIORequest:
    def test_byte_size(self):
        request = IORequest(IoKind.RANDOM_READ, 0, npages=3)
        assert request.nbytes == 3 * PAGE_SIZE_BYTES

    def test_rejects_zero_pages(self):
        with pytest.raises(ValueError):
            IORequest(IoKind.RANDOM_READ, 0, npages=0)

    def test_rejects_negative_address(self):
        with pytest.raises(ValueError):
            IORequest(IoKind.RANDOM_READ, -1)

    def test_latency_requires_completion(self):
        request = IORequest(IoKind.RANDOM_READ, 0)
        with pytest.raises(ValueError):
            request.latency

    def test_latency_after_completion(self):
        request = IORequest(IoKind.RANDOM_READ, 0)
        request.submitted_at = 1.0
        request.completed_at = 1.5
        assert request.latency == pytest.approx(0.5)
