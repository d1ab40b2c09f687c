"""Unit tests for I/O request descriptors."""

import pickle

import pytest

from repro.storage.request import IoKind, IORequest


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

    def test_keys_dicts_by_identity_and_survives_pickling(self):
        """The hash is the C-level identity one (hot per-kind lookups);
        members are singletons, so a round trip finds the same key."""
        assert IoKind.__hash__ is object.__hash__
        table = {kind: kind.name for kind in IoKind}
        for kind in IoKind:
            assert table[pickle.loads(pickle.dumps(kind))] == kind.name


class TestIORequest:
    def test_rejects_zero_pages(self):
        with pytest.raises(ValueError):
            IORequest(IoKind.RANDOM_READ, 0, npages=0)

    def test_rejects_negative_address(self):
        with pytest.raises(ValueError):
            IORequest(IoKind.RANDOM_READ, -1)

    @pytest.mark.parametrize("npages", [float("nan"), 1.5, 2.0, True])
    def test_rejects_a_page_count_that_is_not_an_int(self, npages):
        # nan passes both ``< 1`` and ``< 0``.
        with pytest.raises(ValueError, match="npages must be an int"):
            IORequest(IoKind.RANDOM_READ, 0, npages=npages)

    @pytest.mark.parametrize("address", [float("nan"), 0.5, 3.0])
    def test_rejects_an_address_that_is_not_an_int(self, address):
        with pytest.raises(ValueError, match="address must be an int"):
            IORequest(IoKind.RANDOM_READ, address)
