"""The three retry loops of commit 17647e1, kept as the reference.

``repro.faults.errors.retry_io`` is the one step that sleeps between the
attempts of an I/O; these are the loops it replaced, verbatim but for
living here as plain functions of the component they were methods of:
``DiskManager._submit``, ``WriteAheadLog._flush_with_retry`` and
``SsdManagerBase._ssd_io``.  ``tests/storage/test_retry_equivalence.py``
scripts an injector against both and demands the same retries at the same
instants with the same outcome.
"""

from repro.faults.errors import (RETRY_BASE_DELAY, RETRY_LIMIT,
                                 RETRY_MAX_DELAY, DeviceDeadError, IoFault)


def disk_submit(self, request):
    """Process step: submit with bounded retry + exponential backoff.

    Transient faults are retried up to ``RETRY_LIMIT`` times; a dead
    device (or an exhausted budget) re-raises to the caller — the
    data volume has no fallback, so that is a hard error.
    """
    delay = RETRY_BASE_DELAY
    attempt = 0
    while True:
        try:
            yield self.device.submit(request)
            return
        except DeviceDeadError:
            raise
        except IoFault:
            self.retries += 1
            if self._tracer.enabled:
                self._tracer.instant(
                    "io_retry", "fault", "faults",
                    {"device": self.device.name, "attempt": attempt + 1,
                     "address": request.address})
            if attempt >= RETRY_LIMIT:
                raise
            attempt += 1
            yield self.env.timeout(delay)
            delay *= 2


def log_flush_with_retry(self, request):
    """Process step: one log write with bounded retry + backoff.

    A dead log device (or an exhausted retry budget) re-raises: with
    the log gone no transaction can commit durably, so the flusher —
    and every forcer waiting on it — must fail loudly rather than
    pretend records became durable.
    """
    delay = RETRY_BASE_DELAY
    attempt = 0
    while True:
        try:
            yield self.device.submit(request)
            return
        except DeviceDeadError:
            raise
        except IoFault:
            self.flush_retries += 1
            if self._tracer.enabled:
                self._tracer.instant(
                    "io_retry", "fault", "faults",
                    {"device": self.device.name, "attempt": attempt + 1})
            if attempt >= RETRY_LIMIT:
                raise
            attempt += 1
            yield self.env.timeout(delay)
            delay *= 2


def ssd_io(self, submit, must=False, fault=None):
    """Process step: one SSD I/O with bounded retry + backoff.

    ``submit`` is a zero-argument callable returning a fresh device
    event; ``fault`` is what a first attempt the caller already made
    failed with.  Returns True on success, and says why it gave up:
    None when the device died, False when an optional I/O
    (``must=False``) ran out of retries.  A *must* I/O guards the
    only newest copy of a page: it retries transients without bound
    (capped backoff) because falling back to disk would surface
    stale data; only device death stops it, and then degradation
    redo restores the page from the log.
    """
    delay = RETRY_BASE_DELAY
    attempt = 0
    while True:
        if fault is None:
            try:
                yield submit()
                return True
            except IoFault as failure:
                fault = failure
        if isinstance(fault, DeviceDeadError):
            self._note_device_dead()
            return None
        fault = None
        self.stats.io_retries += 1
        if self._tracer.enabled:
            self._tracer.instant(
                "io_retry", "fault", "faults",
                {"device": self.device.name, "attempt": attempt + 1})
        if not must and attempt >= RETRY_LIMIT:
            self.stats.io_failures += 1
            return False
        attempt += 1
        yield self.env.timeout(delay)
        delay = min(delay * 2, RETRY_MAX_DELAY)
