"""The host-speed reference: a fixed pure-Python loop, timed in slices.

This box's speed moves by +-15 % within seconds (same process, same
work), so raw CPU seconds cannot hold a 10 % bound.  Every child
therefore times this loop *while* it measures - a simulated process
wakes at fixed simulated intervals and runs one slice - and reports its
host times divided by ``slowdown`` = mean slice time over
``REFERENCE_SLICE_S``.  The loop never changes, so a change to ``src/``
cannot move the reference it is measured against.
"""

from __future__ import annotations

import statistics
from time import process_time
from typing import Dict, List

SLICE_ITERATIONS = 100_000
#: One slice on the box the README's numbers come from, at its usual
#: speed; host times are reported as if every slice took this long.
REFERENCE_SLICE_S = 0.005


def calib_loop() -> float:
    """CPU seconds for one slice of the fixed loop."""
    started = process_time()
    acc = 0
    for i in range(SLICE_ITERATIONS):
        acc += i * i % 7
    elapsed = process_time() - started
    assert acc == 199_999, acc
    return elapsed


class Ticker:
    """Runs a calibration slice every ``period`` simulated seconds.

    It only ever yields timeouts, so it moves no simulated result; its
    own CPU time is kept in ``spent_s`` so the caller can subtract it.
    """

    def __init__(self) -> None:
        self.slices: List[float] = []
        self.spent_s = 0.0

    def take(self, count: int = 1) -> None:
        started = process_time()
        for _ in range(count):
            self.slices.append(calib_loop())
        self.spent_s += process_time() - started

    def process(self, env, period: float):
        """Process step: one slice per ``period``, for as long as it runs."""
        while True:
            yield env.timeout(period)
            self.take()

    def summary(self) -> Dict[str, float]:
        """Mean slice, its quartile spread, and the resulting slowdown."""
        mean = statistics.mean(self.slices)
        spread = 0.0
        if len(self.slices) >= 2:
            q1, _, q3 = statistics.quantiles(self.slices, n=4)
            spread = (q3 - q1) / statistics.median(self.slices)
        return {"slice_s": mean, "spread": spread,
                "slowdown": mean / REFERENCE_SLICE_S}
