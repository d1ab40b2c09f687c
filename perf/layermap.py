"""Which layer a source file's host time is charged to.

A layer is a module (or a named group of modules) under ``src/repro``.
The rules are explicit on purpose: ``engine/`` and the top-level files
are listed one by one, so a new module there matches no rule and
``perf/tests/test_selfcheck.py`` fails until someone decides where its
time belongs.  First match wins, which is how ``storage/ftl/`` is split
off ``storage/``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PERF = ROOT / "perf"

LAYERS = ("sim", "storage", "ftl", "engine.pool", "engine.btree",
          "engine.wal", "engine.ckpt", "core", "workloads", "harness",
          "telemetry", "other")

#: (path prefix relative to ``src/repro``, layer).  A prefix ending in
#: ``/`` covers a directory; anything else names one file.
RULES = (
    ("sim/", "sim"),
    ("storage/ftl/", "ftl"),
    ("storage/", "storage"),
    ("engine/__init__.py", "engine.pool"),
    ("engine/buffer_pool.py", "engine.pool"),
    ("engine/page.py", "engine.pool"),
    ("engine/readahead.py", "engine.pool"),
    ("engine/disk_manager.py", "engine.pool"),
    ("engine/database.py", "engine.pool"),
    ("engine/btree.py", "engine.btree"),
    ("engine/heap_file.py", "engine.btree"),
    ("engine/wal.py", "engine.wal"),
    ("engine/checkpoint.py", "engine.ckpt"),
    ("engine/recovery.py", "engine.ckpt"),
    ("core/", "core"),
    ("workloads/", "workloads"),
    ("harness/", "harness"),
    ("telemetry/", "telemetry"),
    ("faults/", "other"),
    ("runstore/", "other"),
    ("statics/", "other"),
    ("cli.py", "other"),
    ("__init__.py", "other"),
    ("__main__.py", "other"),
)


def repro_layer(relative: str) -> Optional[str]:
    """Layer of a path relative to ``src/repro``; None if no rule names it."""
    for prefix, layer in RULES:
        if relative == prefix or (prefix.endswith("/")
                                  and relative.startswith(prefix)):
            return layer
    return None


def layer_of(filename: str) -> str:
    """Layer a profiled code object's file belongs to.

    The benchmark's own driver code counts as ``harness`` (it stands in
    for ``repro.harness.experiments``); the standard library and
    anything unmatched is ``other``.
    """
    path = Path(filename)
    try:
        relative = path.relative_to(SRC / "repro").as_posix()
    except ValueError:
        return "harness" if PERF in path.parents else "other"
    return repro_layer(relative) or "other"
