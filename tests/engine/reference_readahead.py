"""The per-page read-ahead members of commit 2a65514, kept as a reference.

``BufferPool.prefetch`` reads a read-ahead's SSD pages through one call
member, which starts every read and installs each page from its
completion; a page that must wait is forked off as a member of its own.
This is the form it replaced, verbatim but for the class, the
docstrings and how a waiting page goes on: one call member per planned
SSD page — a ``GatherMember`` and a ``partial`` for each — whose page,
when it must wait, is forked off as a member of its own and the call
member finished, which schedules what going on as a generator did.
Which events a read-ahead schedules, in which order, and which
version each page is installed with are defined by this class;
``tests/engine/test_readahead_equivalence.py`` runs random prefetch
scripts against both and demands the same run.
"""

from __future__ import annotations

from functools import partial

from repro.engine.buffer_pool import BufferPool
from repro.engine.page import PageId
from repro.sim import Event
from repro.sim.process import GatherMember


class ReferenceReadAheadPool(BufferPool):
    """A ``BufferPool`` whose read-ahead gives each planned SSD page its
    own call member.  Swap it in with ``system.bp.__class__ = ...``."""

    __slots__ = ()

    def prefetch(self, start: PageId, npages: int, ctx=None):
        wanted = [
            pid for pid in range(start, start + npages)
            if pid not in self.frames and pid not in self._inflight
        ]
        if not wanted:
            return
        done = self.env.event()
        for pid in wanted:
            self._inflight[pid] = done
        self._reserved += len(wanted)
        try:
            yield from self._ensure_free_frames(ctx)
            plan = self.ssd.trim_plan(wanted)
            ios = []
            if plan.disk_count > 0:
                ios.append(self._disk_run(
                    plan.disk_start, plan.disk_count, plan.skip_in_run,
                    done))
            for pid in plan.ssd_pages:
                ios.append((self._read_ahead_ssd, pid))
            if ios:
                started = self.env._now
                yield self.env.gather(ios)
                if self._tracer.enabled:
                    self._tracer.complete("prefetch_wait", started,
                                          self.env.now, "bp", "buffer_pool",
                                          {"pages": len(wanted)}, ctx=ctx)
        finally:
            self._reserved = max(0, self._reserved - len(wanted))
            for pid in wanted:
                if self._inflight.get(pid) is done:
                    del self._inflight[pid]
            if done.callbacks:
                done.succeed()
            else:
                done.settle()

    def _read_ahead_ssd(self, page_id: PageId,
                        member: GatherMember) -> None:
        read = self.ssd.start_read(page_id)
        if read is None:
            self._go_on(member, self._read_ahead_rest(page_id))
        else:
            read.event.callbacks.append(
                partial(self._read_ahead_landed, read, member))

    def _read_ahead_landed(self, read, member: GatherMember,
                           event: Event) -> None:
        if not event._ok:
            self._go_on(member, self._read_ahead_rest(read.page_id, read,
                                                      event._value))
            return
        version = self.ssd.read_landed(read)
        if version is None:  # a detach, waited out
            self._go_on(member, self._read_ahead_rest(read.page_id))
            return
        self._install_read_ahead(read.page_id, version, True)
        member.succeed()

    @staticmethod
    def _go_on(member: GatherMember, rest) -> None:
        """The page must wait: ``rest`` becomes a member of its own, and
        the call member, which is then never the last to finish, retires
        without an event of its own."""
        member.fork(rest)
        member.succeed()
