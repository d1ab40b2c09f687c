"""The heap-only kernel that the same-instant lane replaced.

Before the lane every schedule went onto the heap: a trigger
(``Event.succeed`` / ``fail``), a process or batch start and a device's
zero-delay hop queued ``(now, seq, event)`` by the ``_near`` rule, as a
timer does, and the loop popped the heap alone.
:class:`ReferenceEnvironment` is that kernel: the schedule sites are the
product's (they append to ``env._lane``), but its ``_lane`` is a
:class:`HeapLane`, which files each entry on the queue by the old rule
and is never non-empty, and its ``run`` and ``wipe`` are the old ones.  :class:`ReferenceWheelEnvironment` wires the same kernel to a
timer wheel, as ``WheelEnvironment`` does.  ``test_lane_equivalence.py``
holds the product kernels to them.
"""

import gc
from heapq import heappop, heappush

from repro.sim.environment import Environment
from repro.sim.events import Event, SimulationError
from repro.sim.wheel import TimerWheel


class HeapLane:
    """Stands where the lane does: what is appended goes onto the queue,
    by the rule every timer follows, so the lane itself stays empty."""

    __slots__ = ("_env",)

    def __init__(self, env):
        self._env = env

    def append(self, entry):
        env = self._env
        if entry[0] < env._near:
            heappush(env._current, entry)
        else:
            env._push(entry)

    def __bool__(self):
        return False

    def __len__(self):
        return 0

    def clear(self):
        pass


class ReferenceEnvironment(Environment):
    """The kernel with one queue: every entry on the heap."""

    __slots__ = ()

    def __init__(self, initial_time=0.0):
        super().__init__(initial_time)
        self._lane = HeapLane(self)

    def run(self, until=None):
        if until is None:
            stop_at, stop_event = float("inf"), None
        elif isinstance(until, Event):
            stop_at, stop_event = float("inf"), until
            if until.processed:
                if not until.ok:
                    raise until.value
                return until.value
        else:
            stop_at, stop_event = float(until), None
            if not stop_at >= self._now:
                raise ValueError(
                    f"until must not be before now ({self._now}), got "
                    f"{until}")
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            current = self._current
            advance = self._advance
            while current or advance():
                if stop_event is not None and stop_event.callbacks is None:
                    break
                if current[0][0] > stop_at:
                    self._now = stop_at
                    return None
                when, _, event = heappop(current)
                self._now = when
                callbacks, event.callbacks = event.callbacks, None
                for callback in callbacks:
                    callback(event)
                    if self._crash is not None:
                        del callback, callbacks, event
                        raise self._take_crash()
        finally:
            if gc_was_enabled:
                gc.enable()
        if stop_event is not None:
            if not stop_event.processed:
                raise SimulationError(
                    "run() finished with the target event still pending")
            if not stop_event.ok:
                raise stop_event.value
            return stop_event.value
        if stop_at != float("inf"):
            self._now = stop_at
        return None

    def wipe(self):
        self._queue.clear()
        for _ in range(16):
            gc.collect()
            if not self._queue:
                break
            self._queue.clear()
        self._crash = None


class ReferenceWheelEnvironment(ReferenceEnvironment):
    """The heap-only kernel over a timer wheel (``WheelEnvironment``'s
    wiring, its default geometry)."""

    __slots__ = ()

    def __init__(self, initial_time=0.0):
        super().__init__(initial_time)
        wheel = TimerWheel(self, origin=initial_time)
        self._queue = wheel
        self._push = wheel.push
        self._current = wheel._current
        self._advance = wheel._advance


#: kernel name -> the reference that kernel is held to.
REFERENCES = {"heap": ReferenceEnvironment,
              "wheel": ReferenceWheelEnvironment}
