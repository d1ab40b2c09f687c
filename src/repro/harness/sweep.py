"""Parallel sweep runner that reuses recorded runs.

The paper's figures are grids of independent deterministic runs (design ×
scale × λ × checkpoint interval).  Each run is CPU-bound single-threaded
simulation, so a sweep parallelises perfectly across worker processes —
and because every run is a pure function of its configuration and the
code, a run recorded once can be served again instead of recomputed.

Three layers:

``RunSpec``
    The frozen, JSON-serialisable description of one run
    (``repro.harness.experiments``).  Its canonical JSON form and the
    hash of the simulator sources (``runstore.provenance.code_version``)
    are the reuse key: change any config field *or any source file* and
    the run is a miss.

``RunResult.to_dict`` / ``from_dict``
    The run record is plain data (``repro.harness.runner``), so the run
    store keeps ``result.to_dict()`` beside the run's row and a hit
    restores a real ``RunResult``/``TpchResult`` with every recorded
    field and no live ``system``.

``run_sweep``
    Looks every spec up through its
    :class:`~repro.runstore.store.Recorder`, fans the misses across a
    ``multiprocessing`` pool (spawn context — workers re-import the
    package, so specs and records travel as plain dicts), records each
    run, and reports progress/ETA as runs complete.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Set, TextIO, Tuple)

if TYPE_CHECKING:  # recording is optional; avoid a module-load cycle
    from repro.runstore.store import Recorder

from repro.harness.experiments import RunSpec, run


def _worker(spec_dict: Dict[str, Any]) -> Tuple[
        Dict[str, Any], Dict[str, Any]]:
    """Pool worker: compute one miss in a child process.

    Module-level by necessity — the spawn context pickles the function
    by reference.  Returns (spec dict, ``result.to_dict()``); the parent
    records it.
    """
    return spec_dict, run(RunSpec.from_dict(spec_dict)).to_dict()


@dataclass
class SweepReport:
    """Outcome of one :func:`run_sweep` call."""

    results: Dict[RunSpec, Any] = field(default_factory=dict)
    cached: int = 0
    computed: int = 0
    elapsed: float = 0.0


def run_sweep(specs: List[RunSpec], workers: int = 1,
              use_cache: bool = True,
              progress: Optional[Callable[[str], None]] = None,
              recorder: Optional["Recorder"] = None) -> SweepReport:
    """Run a grid of independent specs, in parallel, reusing recorded
    runs.

    ``workers=1`` runs in-process (no pool overhead, easiest to debug);
    ``workers>1`` fans out over a spawn-context pool.  Each run is
    deterministic in isolation, so the schedule does not affect results.
    Duplicate specs are collapsed before dispatch.

    ``recorder`` (a :class:`repro.runstore.store.Recorder`) is where
    runs are reused from and recorded to: each spec is first looked up
    (unless ``use_cache`` is False), and every run is recorded — a live
    one with its record, a reused one as a history row only.  With no
    recorder, or one without a usable store, every spec runs live.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    say = progress if progress is not None else (lambda message: None)

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

    def finish(spec: RunSpec, result: Any,
               record: Optional[Dict[str, Any]]) -> None:
        """Take one run: ``record`` is a live run's ``to_dict()``, None
        for a reused one."""
        nonlocal done
        report.results[spec] = result
        if recorder is not None:
            recorder.record(spec, result, record=record)
        done += 1
        was_cached = record is None
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
        hit = (recorder.reuse(spec)
               if recorder is not None and use_cache else None)
        if hit is not None:
            finish(spec, hit, None)
        else:
            pending.append(spec)

    if workers == 1 or len(pending) <= 1:
        for spec in pending:
            result = run(spec)
            finish(spec, result, result.to_dict())
    else:
        import multiprocessing

        context = multiprocessing.get_context("spawn")
        with context.Pool(min(workers, len(pending))) as pool:
            for spec_dict, record in pool.imap_unordered(
                    _worker, [spec.to_dict() for spec in pending]):
                spec = RunSpec.from_dict(spec_dict)
                finish(spec, spec.result_type.from_dict(record), record)

    report.elapsed = time.monotonic() - started
    return report


def summarize(report: SweepReport) -> List[Dict[str, Any]]:
    """One plain-dict row per run: its spec, its metric's name and the
    ``result.metrics()`` the run store records."""
    return [{"spec": spec.to_dict(), "metric": result.metric_name,
             **result.metrics()}
            for spec, result in sorted(
                report.results.items(),
                key=lambda item: (item[0].benchmark, item[0].scale,
                                  item[0].design))]


def progress_printer(stream: Optional[TextIO] = None
                     ) -> Callable[[str], None]:
    """A progress callback that writes one line per completed run."""
    stream = stream or sys.stderr

    def say(message: str) -> None:
        print(message, file=stream, flush=True)

    return say
