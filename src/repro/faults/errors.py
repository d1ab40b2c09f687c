"""Fault exceptions and the one retry step.

These live in their own leaf module so that every layer that needs to
catch an injected fault (``storage``, ``engine``, ``core``) can import
them without pulling in the plan/injector machinery — and without any
import cycles, since this module depends on nothing else in the package
(:func:`retry_io` sleeps by yielding its backoff as a delay).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Optional, Union

if TYPE_CHECKING:
    from repro.sim import Event


class IoFault(Exception):
    """An injected I/O failure (base class; transient unless subclassed)."""


class TransientIoError(IoFault):
    """A single I/O failed; retrying the same request may succeed."""


class DeviceDeadError(IoFault):
    """The device has failed permanently; no retry can succeed."""


#: The retry policy :func:`retry_io` applies: up to ``RETRY_LIMIT``
#: retries with exponential backoff starting at ``RETRY_BASE_DELAY``
#: seconds, capped at ``RETRY_MAX_DELAY``.
RETRY_LIMIT = 4
RETRY_BASE_DELAY = 0.002
RETRY_MAX_DELAY = 0.05


def retry_io(fault: IoFault, resubmit: Callable[[], "Event"], must: bool,
             note: Callable[[int], None],
             ) -> Generator[Union["Event", float], Any, Optional[IoFault]]:
    """Process step: retry an I/O whose first attempt failed with
    ``fault``; returns None once a retry lands, else the fault that
    ended it.

    ``resubmit`` submits the request again and returns the device's
    event; ``note(attempt)`` counts and traces each failed attempt that
    was not a death.  Device death ends it at once — no retry can
    succeed.  An optional I/O ends with the failure of its
    ``RETRY_LIMIT``-th retry; a *must* I/O (the only newest copy of a
    page is behind it) retries transients without bound.  What the
    returned fault means is the caller's business: the data volume and
    the log have no fallback and raise it, the SSD manager detaches or
    falls back to disk.
    """
    delay = RETRY_BASE_DELAY
    attempt = 0
    while not isinstance(fault, DeviceDeadError):
        attempt += 1
        note(attempt)
        if not must and attempt > RETRY_LIMIT:
            break
        yield delay
        delay = min(delay * 2, RETRY_MAX_DELAY)
        try:
            yield resubmit()
            return None
        except IoFault as failure:
            fault = failure
    return fault
