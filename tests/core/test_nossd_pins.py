"""What the unmodified engine does, built however it is built.

``noSSD`` is the engine with no SSD frames.  A system built through the
harness gets ``ssd_frames=0``; one built directly as
``System(SystemConfig(design="noSSD"))`` carries the default 14,000-frame
:class:`~repro.core.SsdDesignConfig` and must still find nothing, admit
nothing and write every dirty page to disk.  The digests pin the trace,
each device's books, the SSD manager's counters and the run record of
one such run; ``ssd_dirty_limit_frames`` (λ·S) is left out of the
record, because it reads the configured S.  ``--ftl`` builds no FTL
device for ``noSSD``: there are no frames to map.  The record's digest
was re-pinned (was 9d170033…) when ``SsdStats`` lost its
``heap_reseeds`` counter; with that key dropped the old record hashes
to the new digest.
"""

import hashlib
import json

from repro.harness.experiments import (SCALE_PROFILES, RunSpec,
                                       make_workload, run)
from repro.harness.runner import WorkloadRunner
from repro.harness.system import System, SystemConfig
from repro.telemetry import Telemetry
from tests.conftest import meta_free_trace_md5

TINY = SCALE_PROFILES["tiny"]


def _md5(value):
    return hashlib.md5(
        json.dumps(value, sort_keys=True).encode()).hexdigest()


def _books(device):
    stats = device.stats
    return [device.name, stats.busy_time,
            {kind.name: n for kind, n in stats.by_kind.items()},
            {kind.name: n for kind, n in stats.pages_by_kind.items()},
            {kind.name: n for kind, n in device.requests_by_kind.items()}]


def test_a_directly_built_nossd_system_caches_nothing():
    # Scale 100 overflows the tiny pool: clean and dirty pages leave it.
    workload = make_workload("tpcc", 100, TINY)
    db_pages = workload.db_pages()
    telemetry = Telemetry()
    system = System(SystemConfig(design="noSSD", db_pages=db_pages,
                                 bp_pages=TINY.bp_pages,
                                 slack_pages=max(256, db_pages // 20)),
                    telemetry=telemetry)
    assert system.config.ssd.ssd_frames == 14_000
    result = WorkloadRunner(system, workload, nworkers=8).run(4.0)
    record = result.to_dict()
    del record["ssd_dirty_limit_frames"]
    stats = result.bp_stats
    assert stats.evictions_clean > 0 and stats.evictions_dirty > 0
    assert result.steady_state_throughput() == 118_860.0
    assert system.ssd_manager.stats.as_dict() == {
        name: 0 for name in system.ssd_manager.stats.as_dict()}
    assert system.ssd_device.ftl is None
    assert _md5([_books(device) for device in (
        system.data_device, system.ssd_device, system.wal.device)]) \
        == "a22b308dddb5f55641e85c8d917470c8"
    assert meta_free_trace_md5(telemetry) == "d8607c6ea4776fb40c252eb0c22ebf32"
    assert _md5(record) == "b05b18311499293c50460a873f3f3fe3"


def test_nossd_with_ftl_builds_no_flash_model():
    result = run(RunSpec(kind="oltp", benchmark="tpcc", scale=20,
                         design="noSSD", profile="tiny", duration=2.0,
                         nworkers=2, ftl=True))
    assert result.system.ssd_device.ftl is None
    assert result.ftl_stats is None and result.waf is None
    assert result.ssd_dirty_limit_frames == 0
