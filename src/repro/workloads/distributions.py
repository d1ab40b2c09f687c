"""Skewed access distributions used by the workload generators."""

from __future__ import annotations

import bisect
import random
from typing import List


class ZipfGenerator:
    """Zipf-distributed ranks over [0, n) via inverse-CDF sampling."""

    def __init__(self, n: int, theta: float = 0.8):
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if theta <= 0:
            raise ValueError(f"theta must be > 0, got {theta}")
        self.n = n
        self.theta = theta
        weights = [1.0 / (rank ** theta) for rank in range(1, n + 1)]
        total = 0.0
        self._cdf: List[float] = []
        for weight in weights:
            total += weight
            self._cdf.append(total)
        self._total = total

    def sample(self, rng: random.Random) -> int:
        point = rng.random() * self._total
        return bisect.bisect_left(self._cdf, point)


def scramble(value: int, n: int) -> int:
    """Deterministically scatter ``value`` across [0, n).

    Zipf ranks are hottest at 0; scrambling spreads the hot set across
    the page space so hot pages are not physically adjacent (which would
    unrealistically favour sequential I/O and extent-level policies).
    """
    if n <= 1:
        return 0
    # Multiplicative hashing with a large odd constant.
    return (value * 2_654_435_761) % n
