"""A paged B+-tree index.

Lookups walk root→leaf through the buffer pool, so a cold lookup costs one
random I/O per uncached level — the "non-clustered index lookup" access
pattern that the SSD admission policy is designed to capture.  Inserts can
split leaves, creating pages "on the fly" that were never read from disk —
the case (§4.2) that TAC fails to cache but DW/LC handle naturally.

Node *contents* (keys and fan-out pointers) live in a side map owned by
the tree; the buffer pool governs page residency, I/O, and dirtiness.
This mirrors how the reproduction models page payloads as versions.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Sequence

from repro.engine.buffer_pool import BufferPool


class _Node:
    """One B+-tree node, stored in page ``page_id``."""

    __slots__ = ("page_id", "keys", "children", "values", "next_leaf", "parent")

    def __init__(self, page_id: int, leaf: bool):
        self.page_id = page_id
        self.keys: List[int] = []
        self.children: Optional[List[int]] = None if leaf else []
        self.values: Optional[List[int]] = [] if leaf else None
        self.next_leaf: Optional[int] = None
        self.parent: Optional[int] = None

    @property
    def is_leaf(self) -> bool:
        return self.children is None

    def value_of(self, key: int) -> Optional[int]:
        """The value stored under ``key`` in this leaf, or None."""
        keys = self.keys
        index = bisect.bisect_left(keys, key)
        found = index < len(keys) and keys[index] == key
        return self.values[index] if found else None


class BPlusTree:
    """A B+-tree over integer keys with page-granular I/O accounting."""

    def __init__(self, name: str, allocator, fanout: int = 64,
                 leaf_capacity: int = None):
        if fanout < 4:
            raise ValueError(f"fanout must be >= 4, got {fanout}")
        self.name = name
        self.fanout = fanout
        #: Keys per leaf page.  Defaults to fanout-1 (a classic B+-tree).
        #: The workloads use page-granular keys (one key per data page)
        #: and set this to 1 so that N keys occupy N leaf pages.
        self.leaf_capacity = fanout - 1 if leaf_capacity is None else leaf_capacity
        if self.leaf_capacity < 1:
            raise ValueError(
                f"leaf_capacity must be >= 1, got {self.leaf_capacity}")
        self._allocate = allocator  # callable: npages -> first page id
        self.nodes: Dict[int, _Node] = {}
        self.root_page: Optional[int] = None
        self.height = 0
        self.splits = 0

    # ------------------------------------------------------------------
    # Bulk load
    # ------------------------------------------------------------------

    def bulk_load(self, keys: Sequence[int]) -> None:
        """Build the tree bottom-up from sorted unique ``keys``.

        Leaves are allocated contiguously (so leaf ranges are sequential
        on disk, as a clustered rebuild would leave them), then each upper
        level contiguously above.
        """
        keys = list(keys)
        if any(keys[i] >= keys[i + 1] for i in range(len(keys) - 1)):
            raise ValueError("bulk_load requires strictly increasing keys")
        per_leaf = self.leaf_capacity
        nleaves = max(1, -(-len(keys) // per_leaf))
        first_leaf = self._allocate(nleaves)
        level: List[_Node] = []
        for i in range(nleaves):
            node = _Node(first_leaf + i, leaf=True)
            chunk = keys[i * per_leaf:(i + 1) * per_leaf]
            node.keys = list(chunk)
            node.values = list(chunk)
            if i + 1 < nleaves:
                node.next_leaf = first_leaf + i + 1
            self.nodes[node.page_id] = node
            level.append(node)
        self.height = 1
        # Separator keys must be subtree *minima*, not a child's first
        # separator, so thread each node's minimum key up the build.
        minima = [node.keys[0] for node in level]
        while len(level) > 1:
            per_node = self.fanout
            nnodes = -(-len(level) // per_node)
            first = self._allocate(nnodes)
            upper: List[_Node] = []
            upper_minima: List[int] = []
            for i in range(nnodes):
                node = _Node(first + i, leaf=False)
                group = level[i * per_node:(i + 1) * per_node]
                group_minima = minima[i * per_node:(i + 1) * per_node]
                node.children = [child.page_id for child in group]
                node.keys = group_minima[1:]
                for child in group:
                    child.parent = node.page_id
                self.nodes[node.page_id] = node
                upper.append(node)
                upper_minima.append(group_minima[0])
            level = upper
            minima = upper_minima
            self.height += 1
        self.root_page = level[0].page_id

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------

    def lookup(self, bp: BufferPool, key: int, ctx=None):
        """Process step: point lookup; returns the value or None.  The
        step is the descent itself, which finishes in :func:`_looked_up`."""
        return self._fetch_leaf_frame(bp, key, ctx, _looked_up)

    def insert(self, bp: BufferPool, key: int, ctx=None):
        """Process step: insert ``key`` (idempotent), splitting if needed."""
        frame, leaf = yield from self._fetch_leaf_frame(bp, key, ctx=ctx)
        index = bisect.bisect_left(leaf.keys, key)
        if index < len(leaf.keys) and leaf.keys[index] == key:
            bp.unpin(frame)
            return False
        leaf.keys.insert(index, key)
        leaf.values.insert(index, key)
        bp.mark_dirty(frame)
        bp.unpin(frame)
        if len(leaf.keys) > self.leaf_capacity:
            yield from self._split(bp, leaf, ctx=ctx)
        return True

    def _fetch_leaf_frame(self, bp: BufferPool, key: int, ctx=None,
                          then=None):
        """Process step: descend to ``key``'s leaf and pin its frame.

        Returns ``(frame, leaf)``, or ``then(frame, leaf, key)`` when
        ``then`` is given: a caller that would only finish the access
        returns this generator itself instead of wrapping it in one of
        its own.
        """
        # The descent is the single hottest loop in an OLTP run: the
        # inner-node pins are pure hits after warm-up, so the pin-hit
        # fast path (the body of ``BufferPool.pin_hit``) is inlined per
        # level and the ``fetch`` generator taken only on a miss or a
        # busy frame.  A modeled partition latch is one delay per level,
        # yielded here.  The inline unpin releases a pin this loop
        # itself took a few lines up (validation would be tautological).
        pid = self.root_page
        nodes = self.nodes
        bisect_right = bisect.bisect_right
        latched = bp._latch_s > 0.0
        env = bp.env
        frames = bp.frames
        stats = bp.stats
        while True:
            if latched:
                yield bp.latch(pid, ctx)
            frame = frames.get(pid)
            if frame is not None and frame.io_busy is None:
                frame.pin_count += 1
                frame.prev_access = frame.last_access
                frame.last_access = env._now
                bp._stamp = stamp = bp._stamp + 1
                frame.lru_stamp = stamp
                stats.hits += 1
            else:
                frame = yield from bp.fetch(pid, ctx=ctx, latched=True)
            node = nodes[pid]
            children = node.children
            if children is None:
                if then is None:
                    return frame, node
                return then(frame, node, key)
            frame.pin_count -= 1
            pid = children[bisect_right(node.keys, key)]

    # ------------------------------------------------------------------
    # Splits
    # ------------------------------------------------------------------

    def _split(self, bp: BufferPool, node: _Node, ctx=None):
        """Process step: split an overfull node, recursing up the tree."""
        self.splits += 1
        new_pid = self._allocate(1)
        sibling = _Node(new_pid, leaf=node.is_leaf)
        mid = len(node.keys) // 2
        if node.is_leaf:
            sibling.keys = node.keys[mid:]
            sibling.values = node.values[mid:]
            node.keys = node.keys[:mid]
            node.values = node.values[:mid]
            sibling.next_leaf, node.next_leaf = node.next_leaf, new_pid
            separator = sibling.keys[0]
        else:
            separator = node.keys[mid]
            sibling.keys = node.keys[mid + 1:]
            sibling.children = node.children[mid + 1:]
            node.keys = node.keys[:mid]
            node.children = node.children[:mid + 1]
            for child_pid in sibling.children:
                self.nodes[child_pid].parent = new_pid
        sibling.parent = node.parent
        self.nodes[new_pid] = sibling

        # The new page is created in memory, dirty, never read from disk.
        new_frame = yield from bp.new_page(new_pid, ctx=ctx)
        bp.unpin(new_frame)

        if node.parent is None:
            root_pid = self._allocate(1)
            root = _Node(root_pid, leaf=False)
            root.keys = [separator]
            root.children = [node.page_id, new_pid]
            node.parent = sibling.parent = root_pid
            self.nodes[root_pid] = root
            self.root_page = root_pid
            self.height += 1
            root_frame = yield from bp.new_page(root_pid, ctx=ctx)
            bp.unpin(root_frame)
            return

        parent = self.nodes[node.parent]
        frame = yield from bp.fetch(parent.page_id, ctx=ctx)
        index = bisect.bisect_right(parent.keys, separator)
        parent.keys.insert(index, separator)
        parent.children.insert(index + 1, new_pid)
        bp.mark_dirty(frame)
        bp.unpin(frame)
        if len(parent.keys) > self.fanout - 1:
            yield from self._split(bp, parent, ctx=ctx)


def _looked_up(frame, leaf: _Node, key: int) -> Optional[int]:
    """A point lookup's end: unpin the leaf, read ``key``'s value."""
    frame.pin_count -= 1
    return leaf.value_of(key)
