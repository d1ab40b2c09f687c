"""LS group-commit admission: a batch closes when its flush starts.

The first admission opens a batch and spawns its flush; the flush closes
the batch at its first step, in the same instant, and a later admission
opens the next batch (DESIGN.md §10).  Random scripts interleave clean
and dirty admissions across instants, supersedes (a dirty page admitted
again at a newer version), sharp checkpoints and SSD writes that fail
past their retries.  A page is admitted again only once its last
admission resumed: the buffer pool holds an evicted frame until its
write-out lands, so no page has two admissions in flight.  Every
admission is watched from its call to its resumption, every flush from
its first step to its end.  At quiescence:

* every admission that staged waited on one event, its batch's, and
  resumed with that batch's outcome, which the ``batches`` and
  ``batch_pages`` tallies count exactly when it is a success;
* no batch is left staged or in flight;
* every entry of a batch was staged in the instant its flush started:
  nothing waits for a later instant (a timer, a hint) to close it;
* ``check_invariants`` holds.
"""

import contextlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ls import LogStructuredManager
from repro.faults.errors import RETRY_LIMIT
from repro.storage import IoKind
from tests.conftest import MiniSystem, settle
from tests.core.test_ssd_manager import ScriptedFaults

#: Pages admitted clean (never written, so their version is the disk's)
#: and pages admitted dirty, each admission a newer version.
CLEAN_PAGES = range(0, 24)
DIRTY_PAGES = range(24, 48)

#: One instant of a script: the pages admitted in it, whether a sharp
#: checkpoint starts in it, how many SSD write completions fail from it
#: on (a batch's write is striped into pieces, and one that fails past
#: ``RETRY_LIMIT`` retries gives up), and the gap to the next instant —
#: mostly shorter than a write, so batches overlap.
INSTANTS = st.tuples(
    st.lists(st.sampled_from(list(CLEAN_PAGES) + list(DIRTY_PAGES)),
             max_size=10),
    st.booleans(),
    st.sampled_from([0, 1, 2 * (RETRY_LIMIT + 1), 4 * (RETRY_LIMIT + 1)]),
    st.sampled_from([1e-5, 1e-4, 5e-4, 3e-3]))


class FailedWrites(ScriptedFaults):
    """Fails the next ``failures`` SSD write completions."""

    def on_complete(self, request):
        if request.kind is IoKind.SEQUENTIAL_WRITE:
            return super().on_complete(request)
        return None


@contextlib.contextmanager
def watched_flushes():
    """Log each flush's batch and the instant of its first step."""
    flush = LogStructuredManager._flush_batch
    started = {}

    def watched(self, batch):
        started[batch] = self.env.now
        return (yield from flush(self, batch))

    LogStructuredManager._flush_batch = watched
    try:
        yield started
    finally:
        LogStructuredManager._flush_batch = flush


def admission(system, page_id, version, dirty, log, in_flight):
    """Process: one admission, logged as (staged at, the event it
    waited on, what it resumed with); the event is None when the page
    was settled at the call.  It takes ``page_id`` out of ``in_flight``
    as it resumes."""
    env = system.env
    staged_at = env.now
    step = system.ssd_manager._cache_page(page_id, version, dirty,
                                          rec_lsn=1)
    try:
        waited = next(step)
    except StopIteration as settled:
        log.append((staged_at, None, settled.value))
        in_flight.discard(page_id)
        return
    resumed = yield waited
    in_flight.discard(page_id)
    try:
        step.send(resumed)
    except StopIteration as done:
        log.append((staged_at, waited, done.value))
    else:
        raise AssertionError("an admission waits on one event, its batch's")


# 10 scripts in tier-1 (about 2 s), 1,000 under
# ``--hypothesis-profile=thorough`` (CI's chaos smoke).
@settings(deadline=None, max_examples=(
    10 if settings.default.max_examples < 1000 else 1000))
@given(script=st.lists(INSTANTS, min_size=1, max_size=12),
       batch_pages=st.integers(min_value=1, max_value=8))
def test_every_batch_closes_in_the_instant_it_opened(script, batch_pages):
    system = MiniSystem(design="LS", db_pages=400, bp_pages=16,
                        ssd_frames=32, ls_segment_pages=8,
                        ls_batch_pages=batch_pages)
    env, manager, disk = system.env, system.ssd_manager, system.disk
    faults = FailedWrites(system.ssd_device)
    versions = {}
    log = []
    in_flight = set()
    admitted = 0
    with watched_flushes() as started:
        for pages, checkpoint, failures, gap in script:
            for page in pages:
                if page in in_flight:
                    continue
                admitted += 1
                in_flight.add(page)
                dirty = page in DIRTY_PAGES
                if dirty:
                    versions[page] = max(versions.get(page, 0),
                                         disk.disk_version(page)) + 1
                version = versions[page] if dirty else disk.disk_version(page)
                env.process(admission(system, page, version, dirty, log,
                                      in_flight))
            if checkpoint:
                env.process(system.checkpointer.checkpoint())
            faults.failures += failures
            env.run(until=env.now + gap)
        settle(env, 5.0)
        faults.failures = 0
        settle(env, 5.0)
    batches = {batch.done: batch for batch in started}
    staged = [(at, batches[waited], resumed)
              for at, waited, resumed in log if waited is not None]
    assert len(log) == admitted
    for at, batch, resumed in staged:
        assert batch.done.processed and resumed is batch.done.value
        assert isinstance(resumed, bool)
        assert at == started[batch]
    landed = [batch for batch in started if batch.done.value]
    assert manager.batches == len(landed)
    assert manager.batch_pages == sum(len(b.entries) for b in landed)
    assert manager._batch is None and not manager._pending_batches
    manager.check_invariants()
