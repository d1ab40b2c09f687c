"""Hierarchical timer wheel: an alternative event queue for the kernel.

The heap scheduler in :mod:`repro.sim.environment` pays ``O(log n)`` per
event.  That is fine for tens of closed-loop clients, but the open-loop
traffic layer (:mod:`repro.workloads.traffic`) keeps *hundreds of
thousands* of homogeneous timer events pending — arrival ticks, client
think times — where a timer wheel's ``O(1)`` bucket insert wins.

:class:`TimerWheel` is a queue, not a second kernel: it takes
``(when, seq, event)`` entries and hands them back in exactly
``(when, seq)`` order, and :class:`WheelEnvironment` only points the
environment's ``_push``, ``_current`` and ``_advance`` at it and lets it
keep ``_near``, so the one loop of
:class:`~repro.sim.environment.Environment` drains it.  It is a
three-tier hierarchy:

* **current** — a real heap holding entries of the slot being drained,
  zero-delay timers included, which the environment pushes onto
  directly (the environment's ``_near``);
* **near** — per-slot buckets (``tick`` seconds wide) for the next
  ``near_slots`` slots: one dict append per push, one ``heapify`` per
  slot drained;
* **mid** — coarse buckets ``near_slots`` slots wide, cascaded into
  *near* one bucket at a time as the cursor approaches;
* **far** — a plain heap for everything beyond the mid horizon.

Entries never compare their :class:`~repro.sim.events.Event` payloads:
the ``seq`` tie-break is unique per environment, so sorting bucket
contents reproduces heap order exactly.  A seeded run on
:class:`WheelEnvironment` is therefore event-for-event identical to the
same run on :class:`~repro.sim.environment.Environment` — the
equivalence tests assert byte-identical traces.

Virtual time must be non-negative (slot indexing truncates toward
zero); the environment enforces this at construction.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import inf, nextafter
from typing import Dict, List, Tuple

from repro.sim.environment import Environment
from repro.sim.events import Event

#: One scheduled entry, exactly as the heap scheduler stores it.
Entry = Tuple[float, int, Event]


def _slot_end(slot: int, tick: float) -> float:
    """The least float ``t`` with ``int(t / tick) > slot``: exactly
    where ``push`` stops filing an entry into ``slot``.  ``(slot + 1) *
    tick`` is within a few ulps of it either way, at any magnitude."""
    t = (slot + 1) * tick
    while int(t / tick) > slot:
        t = nextafter(t, -inf)
    while int(t / tick) <= slot:
        t = nextafter(t, inf)
    return t


class TimerWheel:
    """Pending-event queue with O(1) inserts for near-future timers.

    The environment schedules through :meth:`push`, pops ``_current``
    and calls ``_advance`` when that runs dry, and wipes with
    :meth:`clear`.  Entries come out in the heap's ``(when, seq)``
    order.

    The wheel keeps its environment's ``_near`` at the first instant
    past the slot being drained, so the environment files an entry of
    that slot (or of an earlier one) onto ``_current`` itself:
    :meth:`push` only ever sees an entry of a later slot.
    """

    __slots__ = ("tick", "_near_width", "_span", "_cursor", "_current",
                 "_near", "_near_slots", "_mid", "_mid_buckets", "_far",
                 "_env")

    def __init__(self, env: Environment, tick: float = 1e-3,
                 near_slots: int = 256, mid_buckets: int = 64,
                 origin: float = 0.0) -> None:
        if tick <= 0.0:
            raise ValueError(f"tick must be > 0, got {tick}")
        if near_slots < 2 or mid_buckets < 2:
            raise ValueError("near_slots and mid_buckets must be >= 2")
        self.tick = tick
        self._near_width = near_slots
        self._span = near_slots * mid_buckets
        #: Slot currently being drained; every bucketed entry has a
        #: strictly greater slot, every *current* entry an equal-or-
        #: smaller one.
        self._cursor = int(origin / tick)
        #: The environment's ``_current``, under the aliasing contract
        #: :class:`~repro.sim.environment.Environment` states.
        self._current: List[Entry] = []
        self._near: Dict[int, List[Entry]] = {}
        self._near_slots: List[int] = []
        self._mid: Dict[int, List[Entry]] = {}
        self._mid_buckets: List[int] = []
        self._far: List[Entry] = []
        self._env = env
        env._near = _slot_end(self._cursor, tick)

    def __bool__(self) -> bool:
        # _near_slots/_mid_buckets are non-empty iff their dicts are.
        return bool(self._current or self._near_slots
                    or self._mid_buckets or self._far)

    def push(self, entry: Entry) -> None:
        """Insert one ``(when, seq, event)`` entry of a slot past the
        cursor."""
        slot = int(entry[0] / self.tick)
        distance = slot - self._cursor
        if distance < self._near_width:
            bucket = self._near.get(slot)
            if bucket is None:
                self._near[slot] = bucket = []
                heappush(self._near_slots, slot)
            bucket.append(entry)
        elif distance < self._span:
            index = slot // self._near_width
            bucket = self._mid.get(index)
            if bucket is None:
                self._mid[index] = bucket = []
                heappush(self._mid_buckets, index)
            bucket.append(entry)
        else:
            heappush(self._far, entry)

    def clear(self) -> None:
        """Drop every entry (the environment's crash wipe).

        The cursor is kept: it only ever trails the clock, so events
        scheduled after the wipe still land at or ahead of it.
        """
        self._current.clear()
        self._near.clear()
        self._near_slots.clear()
        self._mid.clear()
        self._mid_buckets.clear()
        self._far.clear()

    # ------------------------------------------------------------------
    # Cursor advancement
    # ------------------------------------------------------------------

    def _advance(self) -> bool:
        """Refill ``_current`` with the next slot's entries.

        Cascades any coarser tier whose lower bound could precede the
        next near slot, so by the time a slot is drained it holds every
        entry belonging to it.  Returns False when the wheel is empty.
        """
        near_slots = self._near_slots
        mid_buckets = self._mid_buckets
        far = self._far
        tick = self.tick
        width = self._near_width
        while True:
            near_bound = near_slots[0] if near_slots else None
            if far:
                far_bound = int(far[0][0] / tick)
                if ((near_bound is None or far_bound <= near_bound)
                        and (not mid_buckets
                             or far_bound <= mid_buckets[0] * width)):
                    self._refill_from_far(far_bound)
                    continue
            if mid_buckets and (near_bound is None
                                or mid_buckets[0] * width <= near_bound):
                self._cascade_mid()
                continue
            if near_bound is None:
                return False
            slot = heappop(near_slots)
            entries = self._near.pop(slot)
            heapify(entries)
            self._current[:] = entries  # in place: never rebind
            self._cursor = slot
            self._env._near = _slot_end(slot, tick)
            return True

    def _place_near(self, entry: Entry) -> None:
        slot = int(entry[0] / self.tick)
        bucket = self._near.get(slot)
        if bucket is None:
            self._near[slot] = bucket = []
            heappush(self._near_slots, slot)
        bucket.append(entry)

    def _refill_from_far(self, first_slot: int) -> None:
        """Pull one near-window worth of entries out of the far heap."""
        far = self._far
        limit = (first_slot + self._near_width) * self.tick
        while far and far[0][0] < limit:
            self._place_near(heappop(far))

    def _cascade_mid(self) -> None:
        """Re-bucket the frontmost mid bucket into per-slot near buckets."""
        index = heappop(self._mid_buckets)
        for entry in self._mid.pop(index):
            self._place_near(entry)


class WheelEnvironment(Environment):
    """An :class:`~repro.sim.environment.Environment` scheduled by a
    :class:`TimerWheel` instead of a binary heap.

    Only the queue differs: ``run`` is the base class's, so seeded
    runs are event-for-event identical to the heap kernel and only the
    scheduling cost model differs.  Only ``SystemConfig(kernel="wheel")``
    selects it, which no run option sets: ``perf/``'s ``traffic_open``
    cell does, to time it.
    """

    __slots__ = ()

    def __init__(self, initial_time: float = 0.0,
                 tick: float = 1e-3, near_slots: int = 256,
                 mid_buckets: int = 64) -> None:
        if initial_time < 0.0:
            raise ValueError(
                f"wheel kernel needs initial_time >= 0, got {initial_time}")
        super().__init__(initial_time)
        wheel = TimerWheel(self, tick=tick, near_slots=near_slots,
                           mid_buckets=mid_buckets, origin=initial_time)
        self._queue = wheel  # type: ignore[assignment]
        self._push = wheel.push
        self._current = wheel._current
        self._advance = wheel._advance


__all__ = ["Entry", "TimerWheel", "WheelEnvironment"]
