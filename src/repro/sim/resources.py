"""Shared-resource primitives: the FIFO item store."""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque

from repro.sim.events import Event

if TYPE_CHECKING:
    from repro.sim.environment import Environment


class Store:
    """An unbounded FIFO queue of items with blocking ``get``.

    Used as a message queue between processes (e.g. the buffer manager
    handing eviction work to the lazy-cleaning thread).
    """

    __slots__ = ("env", "items", "_getters")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def put(self, item: Any) -> None:
        """Add ``item``; wakes the oldest blocked getter, if any.

        The store is unbounded, so a put never waits and schedules
        nothing of its own.
        """
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self.items.append(item)

    def get(self) -> Event:
        """Event that triggers with the next item (FIFO order)."""
        event = Event(self.env)
        if self.items:
            event.succeed(self.items.popleft())
        else:
            self._getters.append(event)
        return event

    def __len__(self) -> int:
        return len(self.items)
