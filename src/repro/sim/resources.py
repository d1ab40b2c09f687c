"""Shared-resource primitives: FIFO server pools and item stores."""

from __future__ import annotations

from collections import deque
from types import TracebackType
from typing import TYPE_CHECKING, Any, Deque, List, Optional, Type

from repro.sim.events import Event

if TYPE_CHECKING:
    from repro.sim.environment import Environment


class Request(Event):
    """A pending claim on one unit of a :class:`Resource`.

    Usable as a context manager so the unit is always released::

        with resource.request() as req:
            yield req
            ... hold the resource ...
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource
        resource._request(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type: Optional[Type[BaseException]],
                 exc_val: Optional[BaseException],
                 exc_tb: Optional[TracebackType]) -> None:
        self.resource.release(self)


class Resource:
    """A pool of ``capacity`` identical servers with a FIFO wait queue.

    Used to model device channels, worker slots, and latches.  The current
    queue length (:attr:`queue_len`) is exposed because the paper's SSD
    throttle-control optimization (§3.3.2) gates admission on the number of
    pending SSD I/Os.
    """

    __slots__ = ("env", "capacity", "_users", "_waiting")

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._users: List[Request] = []
        self._waiting: Deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of units currently held."""
        return len(self._users)

    @property
    def queue_len(self) -> int:
        """Number of requests waiting for a unit."""
        return len(self._waiting)

    @property
    def in_flight(self) -> int:
        """Held units plus waiting requests (total pending work)."""
        return len(self._users) + len(self._waiting)

    def request(self) -> Request:
        """Claim one unit; the returned event triggers when granted."""
        return Request(self)

    def _request(self, req: Request) -> None:
        if len(self._users) < self.capacity:
            self._users.append(req)
            req.succeed()
        else:
            self._waiting.append(req)

    def release(self, req: Request) -> None:
        """Return a unit to the pool, waking the next waiter if any.

        Releasing an ungranted (still-waiting) request cancels it.
        Releasing twice is a no-op, which makes the context-manager form
        safe even if the holder released early.
        """
        try:
            self._users.remove(req)
        except ValueError:
            try:
                self._waiting.remove(req)
            except ValueError:
                pass
            return
        while self._waiting and len(self._users) < self.capacity:
            nxt = self._waiting.popleft()
            self._users.append(nxt)
            nxt.succeed()


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
