"""Unit and property tests for the access distributions."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.distributions import ZipfGenerator, scramble


class TestZipf:
    def test_samples_in_range(self):
        zipf = ZipfGenerator(500, theta=0.8)
        rng = random.Random(4)
        assert all(0 <= zipf.sample(rng) < 500 for _ in range(1_000))

    def test_paper_skew_75_20(self):
        """The paper's TPC-C skew: ~75% of accesses to ~20% of pages."""
        zipf = ZipfGenerator(1_000, theta=0.85)
        rng = random.Random(5)
        counts = Counter(zipf.sample(rng) for _ in range(50_000))
        hot = sum(counts.get(rank, 0) for rank in range(200))  # top 20%
        assert 0.6 < hot / 50_000 < 0.95

    def test_lower_theta_is_flatter(self):
        rng1, rng2 = random.Random(6), random.Random(6)
        sharp = ZipfGenerator(1_000, theta=0.95)
        flat = ZipfGenerator(1_000, theta=0.3)
        sharp_hot = sum(1 for _ in range(10_000)
                        if sharp.sample(rng1) < 100)
        flat_hot = sum(1 for _ in range(10_000) if flat.sample(rng2) < 100)
        assert sharp_hot > flat_hot

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfGenerator(0)
        with pytest.raises(ValueError):
            ZipfGenerator(10, theta=0)


class TestScramble:
    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(min_value=1, max_value=5_000))
    def test_is_a_bijection(self, n):
        mapped = {scramble(value, n) for value in range(n)}
        assert len(mapped) == n
        assert all(0 <= m < n for m in mapped)

    def test_separates_adjacent_ranks(self):
        n = 1_000
        positions = [scramble(rank, n) for rank in range(10)]
        gaps = [abs(a - b) for a, b in zip(positions, positions[1:])]
        assert min(gaps) > 10  # hot ranks are not physically adjacent

    def test_degenerate_sizes(self):
        assert scramble(5, 1) == 0
