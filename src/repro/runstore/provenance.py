"""Provenance capture: which code, on which machine, produced a run.

Every recorded run (and every ``run_meta`` trace instant) is stamped
with the git commit/branch and dirty flag of the working tree, the
source hash (:func:`code_version`, a hash of every simulator source
file), and host identity.  Provenance is what turns a pile of runs into
*trajectories*: "all LC runs at scale 1000 across the last 50 commits"
is a provenance query.  The source hash is also half of a run's reuse
key: the run store serves a recorded run again only to the code that
produced it.

Capture is best-effort: outside a git checkout (or with git missing)
the git fields are ``None`` and everything else still records.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional

#: ``src/repro``: the tree :func:`code_version` hashes.
PACKAGE = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Provenance:
    """Identity of the code and machine behind one run."""

    git_commit: Optional[str] = None
    git_branch: Optional[str] = None
    git_dirty: Optional[bool] = None
    source_hash: Optional[str] = None
    host: Optional[str] = None
    python: Optional[str] = None


_code_version: Optional[str] = None


def code_version() -> str:
    """Hash of every simulator source file (computed once per process).

    A recorded run is reused only for the code that produced it: any
    source change, ``to_dict`` included, moves this hash, so a checkout
    change becomes a miss instead of a stale result.
    """
    global _code_version
    if _code_version is None:
        digest = hashlib.sha256()
        for path in sorted(PACKAGE.rglob("*.py")):
            digest.update(str(path.relative_to(PACKAGE)).encode())
            digest.update(path.read_bytes())
        _code_version = digest.hexdigest()[:16]
    return _code_version


def _git(args: list, cwd: Optional[str] = None) -> Optional[str]:
    """One git query; None when git or the repository is unavailable."""
    try:
        out = subprocess.run(
            ["git", *args], cwd=cwd, capture_output=True, text=True,
            timeout=10.0, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip()


_cached: Optional[Provenance] = None


def capture(cwd: Optional[str] = None, cached: bool = True) -> Provenance:
    """Capture provenance for the current checkout and host.

    The result is cached per process (git subprocesses and the source
    hash are not free, and neither changes mid-run); pass
    ``cached=False`` to force a re-read, e.g. from a long-lived server.
    """
    global _cached
    if cached and cwd is None and _cached is not None:
        return _cached

    commit = _git(["rev-parse", "HEAD"], cwd)
    branch = _git(["rev-parse", "--abbrev-ref", "HEAD"], cwd)
    status = _git(["status", "--porcelain"], cwd)
    dirty: Optional[bool] = bool(status) if status is not None else None

    prov = Provenance(
        git_commit=commit,
        git_branch=branch,
        git_dirty=dirty,
        source_hash=code_version(),
        host=platform.node() or os.environ.get("HOSTNAME"),
        python=platform.python_version(),
    )
    if cached and cwd is None:
        _cached = prov
    return prov


def provenance_args(cwd: Optional[str] = None) -> Dict[str, Any]:
    """The provenance fields stamped onto ``run_meta`` trace instants.

    Kept to the queryable subset (commit/branch/dirty/source hash) so
    trace files answer "which code produced this?" without carrying
    host noise that would break byte-stable trace comparisons across
    machines.
    """
    prov = capture(cwd)
    return {
        "git_commit": prov.git_commit,
        "git_branch": prov.git_branch,
        "git_dirty": prov.git_dirty,
        "source_hash": prov.source_hash,
    }
