"""Catalog and page allocation.

A :class:`Database` owns the page address space of the disk volume and
hands out contiguous ranges to heap files and B+-trees.  A slack region at
the end of the volume absorbs pages allocated at run time (B+-tree splits).
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.engine.btree import BPlusTree
from repro.engine.heap_file import HeapFile


class Database:
    """The catalog: named tables and indexes over one disk volume."""

    def __init__(self, npages: int):
        if npages < 1:
            raise ValueError(f"npages must be >= 1, got {npages}")
        self.npages = npages
        self._next_page = 0
        self.tables: Dict[str, HeapFile] = {}
        self.indexes: Dict[str, BPlusTree] = {}

    @property
    def free_pages(self) -> int:
        """Pages still available for allocation."""
        return self.npages - self._next_page

    def allocate(self, npages: int) -> int:
        """Reserve a contiguous page range; returns its first page id."""
        if npages < 1:
            raise ValueError(f"npages must be >= 1, got {npages}")
        if self._next_page + npages > self.npages:
            raise RuntimeError(
                f"database full: need {npages} pages, have {self.free_pages}")
        start = self._next_page
        self._next_page += npages
        return start

    def create_table(self, name: str, npages: int) -> HeapFile:
        """Create a heap file of ``npages`` contiguous pages."""
        if name in self.tables:
            raise ValueError(f"table {name!r} already exists")
        table = HeapFile(name, self.allocate(npages), npages)
        self.tables[name] = table
        return table

    def create_index(self, name: str, keys: Sequence[int],
                     fanout: int = 64,
                     leaf_capacity: int = 1) -> BPlusTree:
        """Create and bulk-load a B+-tree index over sorted ``keys``.

        The default ``leaf_capacity`` of 1 gives *page-granular* keys:
        key k occupies the k-th leaf page, so N keys model an N-page
        clustered table whose row-level detail is abstracted away.  Pass
        ``fanout - 1`` for a classic B+-tree.
        """
        if name in self.indexes:
            raise ValueError(f"index {name!r} already exists")
        tree = BPlusTree(name, self.allocate, fanout=fanout,
                         leaf_capacity=leaf_capacity)
        tree.bulk_load(keys)
        self.indexes[name] = tree
        return tree
