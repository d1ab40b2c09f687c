"""What a run imports: only the design, workload, kernel, FTL and fault
modules it uses.

Each spec runs through ``run(RunSpec(...))`` in a fresh interpreter
(the way a ``perf/cells.py`` child, a sweep worker or a ``repro oltp``
call starts), which then reports the ``repro`` modules in
``sys.modules``.  A new design, workload or optional layer joins
``OPTIONAL``, and the ``OWN`` entry of a spec that uses it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]

#: Tiny runs, one per benchmark cell shape: name -> RunSpec fields.
SPECS = {
    "tpcc_lc_heap": dict(kind="oltp", benchmark="tpcc", scale=10,
                         design="LC", profile="tiny", duration=0.2,
                         nworkers=2),
    "tpch_dw": dict(kind="tpch", benchmark="tpch", scale=1, design="DW",
                    profile="tiny"),
    "tpcc_ls_ftl": dict(kind="oltp", benchmark="tpcc", scale=10,
                        design="LS", profile="tiny", duration=0.2,
                        nworkers=2, ftl=True),
    "traffic": dict(kind="traffic", benchmark="tpcc", scale=10,
                    design="LC", profile="tiny", duration=0.2, nworkers=2,
                    tenants="web=poisson:rate=50"),
}

#: Modules a run loads only if it uses them: the designs' (noSSD is
#: ``cw``'s), the workloads', and the optional layers.
OPTIONAL = {f"repro.core.{name}" for name in (
    "cw", "dw", "lc", "ls", "tac", "rotating", "exclusive")} | {
    f"repro.workloads.{name}" for name in (
        "tpcc", "tpce", "tpch", "traffic")} | {
    "repro.sim.wheel", "repro.storage.ftl.model", "repro.storage.iometer",
    "repro.faults.plan", "repro.faults.injector", "repro.faults.clauses",
    "repro.harness.crashpoints", "repro.harness.report",
    "repro.harness.sweep", "repro.telemetry.analysis",
    "repro.telemetry.htmlreport", "repro.runstore", "repro.cli"}

#: The optional modules each spec does use.
OWN = {
    "tpcc_lc_heap": {"repro.core.lc", "repro.workloads.tpcc"},
    "tpch_dw": {"repro.core.dw", "repro.workloads.tpch"},
    "tpcc_ls_ftl": {"repro.core.ls", "repro.workloads.tpcc",
                    "repro.storage.ftl.model"},
    # No run picks the timer wheel: only perf's open-loop cell loads it.
    "traffic": {"repro.core.lc", "repro.workloads.tpcc",
                "repro.workloads.traffic", "repro.faults.clauses"},
}

CHILD = """
import json, sys
from repro.harness.experiments import RunSpec, run
run(RunSpec(**json.loads(sys.argv[1])))
print(json.dumps(sorted(m for m in sys.modules if m.startswith("repro"))))
"""


def imported_by(spec):
    """The ``repro`` modules a fresh interpreter holds after one run."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", CHILD, json.dumps(spec)],
                          capture_output=True, text=True, env=env,
                          check=True, timeout=120)
    return set(json.loads(done.stdout.splitlines()[-1]))


def optional_in(modules):
    """``modules``' optional ones; a package stands for its modules."""
    return {name for name in OPTIONAL
            if any(module == name or module.startswith(name + ".")
                   for module in modules)}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_a_run_imports_only_what_it_uses(name):
    assert optional_in(imported_by(SPECS[name])) == OWN[name]

