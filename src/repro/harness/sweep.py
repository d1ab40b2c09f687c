"""Parallel sweep runner with an on-disk run cache.

The paper's figures are grids of independent deterministic runs (design ×
scale × λ × checkpoint interval).  Each run is CPU-bound single-threaded
simulation, so a sweep parallelises perfectly across worker processes —
and because every run is a pure function of its configuration and the
code, its results can be cached on disk and reused across bench sessions.

Three layers:

``RunSpec``
    The frozen, JSON-serialisable description of one run
    (``repro.harness.experiments``).  Its canonical JSON form, salted
    with a hash of the simulator sources, is the cache key: change any
    config field *or any source file* and the key moves.

``RunResult.to_dict`` / ``from_dict``
    The run record is plain data (``repro.harness.runner``), so the
    cache stores ``result.to_dict()`` and a hit restores a real
    ``RunResult``/``TpchResult`` with every recorded field and no live
    ``system``.

``run_sweep``
    Consults the cache, fans the misses across a ``multiprocessing``
    pool (spawn context — workers re-import the package, so specs and
    records travel as plain dicts), and reports progress/ETA as runs
    complete.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Set, TextIO, Tuple)

if TYPE_CHECKING:  # recording is optional; avoid a module-load cycle
    from repro.runstore.provenance import Provenance
    from repro.runstore.store import RunStore

from repro.harness.experiments import RunSpec, run

#: Default cache directory, overridable with ``REPRO_CACHE_DIR``.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Bump to invalidate every cached run without touching the sources.
#: v3: the cached document is ``RunResult.to_dict()`` / ``TpchResult
#: .to_dict()`` itself; v2 snapshots miss instead of mis-restoring.
SNAPSHOT_VERSION = 3


# ----------------------------------------------------------------------
# Cache keys
# ----------------------------------------------------------------------

_code_version_cache: Optional[str] = None


def code_version(root: Optional[Path] = None) -> str:
    """Hash of every simulator source file, for cache invalidation.

    A cached run is only valid for the code that produced it; salting
    the cache key with the source tree means a checkout change silently
    becomes a cache miss instead of a stale result.
    """
    global _code_version_cache
    if root is None:
        if _code_version_cache is not None:
            return _code_version_cache
        root = Path(__file__).resolve().parent.parent  # src/repro
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    version = digest.hexdigest()[:16]
    if root == Path(__file__).resolve().parent.parent:
        _code_version_cache = version
    return version


def spec_key(spec: RunSpec) -> str:
    """The cache key: hash of (canonical spec JSON, code version)."""
    payload = json.dumps(
        {"spec": spec.to_dict(), "code": code_version(),
         "snapshot_version": SNAPSHOT_VERSION},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def cache_dir() -> Path:
    """Resolve the cache directory (``REPRO_CACHE_DIR`` or CWD-relative)."""
    return Path(os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR))


# ----------------------------------------------------------------------
# On-disk cache
# ----------------------------------------------------------------------

def cache_load(spec: RunSpec, directory: Optional[Path] = None) -> Any:
    """The cached result of ``spec`` restored from disk, or None.

    Any unreadable, truncated, or structurally wrong cache file is
    treated as a miss (the run is recomputed), never as an error.
    """
    directory = directory or cache_dir()
    path = directory / f"{spec_key(spec)}.json"
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return spec.result_type.from_dict(json.load(handle)["record"])
    except (OSError, ValueError, KeyError, TypeError):
        return None


def cache_store(spec: RunSpec, record: Dict[str, Any],
                directory: Optional[Path] = None) -> Path:
    """Atomically write ``result.to_dict()`` for ``spec``; returns the
    file path.

    Write-to-temp + rename means a concurrent reader (or a killed
    writer) can never observe a half-written file.
    """
    directory = directory or cache_dir()
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{spec_key(spec)}.json"
    payload = {"spec": spec.to_dict(), "record": record}
    tmp = path.with_suffix(f".tmp.{os.getpid()}")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, separators=(",", ":"))
    os.replace(tmp, path)
    return path


# ----------------------------------------------------------------------
# Executing specs
# ----------------------------------------------------------------------

def _compute(spec: RunSpec, directory: Optional[Path]) -> Any:
    """Run ``spec`` live, storing its record when ``directory`` is set."""
    result = run(spec)
    if directory is not None:
        cache_store(spec, result.to_dict(), directory)
    return result


def run_cached(spec: RunSpec, directory: Optional[Path] = None,
               use_cache: bool = True) -> Any:
    """Cache-aware single run.

    On a hit, returns the restored record; on a miss, runs live, stores
    the record, and returns the *live* result (callers keep access to
    the full simulator state on first computation).
    """
    if not use_cache:
        return run(spec)
    directory = directory or cache_dir()
    hit = cache_load(spec, directory)
    return hit if hit is not None else _compute(spec, directory)


def _worker(payload: Tuple[Dict[str, Any], Optional[str]]) -> Tuple[
        Dict[str, Any], Dict[str, Any]]:
    """Pool worker: compute one cache miss in a child process.

    Module-level by necessity — the spawn context pickles the function
    by reference.  Returns (spec dict, ``result.to_dict()``).
    """
    spec_dict, directory = payload
    spec = RunSpec.from_dict(spec_dict)
    record: Dict[str, Any] = run(spec).to_dict()
    if directory is not None:
        cache_store(spec, record, Path(directory))
    return spec_dict, record


@dataclass
class SweepReport:
    """Outcome of one :func:`run_sweep` call."""

    results: Dict[RunSpec, Any] = field(default_factory=dict)
    cached: int = 0
    computed: int = 0
    recorded: int = 0
    elapsed: float = 0.0


class _Recorder:
    """Best-effort run-store recording for a sweep.

    All recording happens in the parent process (workers ship plain
    records back), so one sweep is one writer; the store's own
    ``BEGIN IMMEDIATE`` guard covers *concurrent sweeps* sharing a
    database.  The first failed write disables recording for the rest
    of the sweep — a broken database never costs completed runs.
    """

    def __init__(self, store: Optional["RunStore"],
                 say: Callable[[str], None]) -> None:
        self.store = store
        self.recorded = 0
        self._say = say
        self._provenance: Optional["Provenance"] = None

    def record(self, spec: RunSpec, result: Any) -> None:
        if self.store is None:
            return
        if self._provenance is None:
            from repro.runstore.provenance import capture
            self._provenance = capture()
        from repro.runstore.store import StoreError
        try:
            self.store.record_result(spec, result,
                                     provenance=self._provenance)
            self.recorded += 1
        except StoreError as exc:
            self._say(f"runstore: {exc}; remaining runs will not be "
                      f"recorded (JSON output is unaffected)")
            self.store = None


def run_sweep(specs: List[RunSpec], workers: int = 1,
              directory: Optional[Path] = None, use_cache: bool = True,
              progress: Optional[Callable[[str], None]] = None,
              store: Optional["RunStore"] = None,
              ) -> SweepReport:
    """Run a grid of independent specs, in parallel, through the cache.

    ``workers=1`` runs in-process (no pool overhead, easiest to debug);
    ``workers>1`` fans out over a spawn-context pool.  Each run is
    deterministic in isolation, so the schedule does not affect results.
    Duplicate specs are collapsed before dispatch.

    ``store`` (a :class:`repro.runstore.RunStore`) records every run —
    cache hits included, so replayed sweeps still build history — with
    provenance captured once per sweep.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    say = progress if progress is not None else (lambda message: None)
    directory = (directory or cache_dir()) if use_cache else None
    recorder = _Recorder(store, say)

    unique: List[RunSpec] = []
    seen: Set[RunSpec] = set()
    for spec in specs:
        if spec not in seen:
            seen.add(spec)
            unique.append(spec)

    report = SweepReport()
    started = time.monotonic()
    total = len(unique)
    done = 0

    def finish(spec: RunSpec, result: Any, was_cached: bool) -> None:
        nonlocal done
        report.results[spec] = result
        recorder.record(spec, result)
        done += 1
        if was_cached:
            report.cached += 1
        else:
            report.computed += 1
        elapsed = time.monotonic() - started
        eta = elapsed / done * (total - done) if done else 0.0
        say(f"[{done}/{total}] {spec.label} "
            f"{'cached' if was_cached else f'{elapsed:6.1f}s'} "
            f"(eta {eta:5.1f}s)")

    pending: List[RunSpec] = []
    for spec in unique:
        hit = cache_load(spec, directory) if directory is not None else None
        if hit is not None:
            finish(spec, hit, True)
        else:
            pending.append(spec)

    if workers == 1 or len(pending) <= 1:
        for spec in pending:
            finish(spec, _compute(spec, directory), False)
    else:
        import multiprocessing

        context = multiprocessing.get_context("spawn")
        payloads = [(spec.to_dict(), str(directory) if directory else None)
                    for spec in pending]
        with context.Pool(min(workers, len(pending))) as pool:
            for spec_dict, record in pool.imap_unordered(_worker, payloads):
                spec = RunSpec.from_dict(spec_dict)
                finish(spec, spec.result_type.from_dict(record), False)

    report.recorded = recorder.recorded
    report.elapsed = time.monotonic() - started
    return report


def summarize(report: SweepReport) -> List[Dict[str, Any]]:
    """One plain-dict row per run: the sweep's merged metric table."""
    rows: List[Dict[str, Any]] = []
    for spec, result in sorted(report.results.items(),
                               key=lambda item: (item[0].benchmark,
                                                 item[0].scale,
                                                 item[0].design)):
        row: Dict[str, Any] = {"spec": spec.to_dict(),
                               "metric": result.metric_name}
        if spec.kind == "tpch":
            row.update(value=result.qphh, power=result.power,
                       throughput=result.throughput)
        else:
            row.update(value=result.steady_state_throughput(),
                       total_txns=result.total_metric_txns)
            if result.waf is not None:
                row["waf"] = result.waf
        rows.append(row)
    return rows


def progress_printer(stream: Optional[TextIO] = None
                     ) -> Callable[[str], None]:
    """A progress callback that writes one line per completed run."""
    stream = stream or sys.stderr

    def say(message: str) -> None:
        print(message, file=stream, flush=True)

    return say
