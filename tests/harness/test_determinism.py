"""A run does not depend on the interpreter's hash seed.

The run store serves a recorded run as if it were the run, keyed by
its spec and the source hash only: so two fresh interpreters with
different ``PYTHONHASHSEED`` values must produce the same record, down
to every latency.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

CHILD = """
import json
from repro.harness.experiments import RunSpec, run
spec = RunSpec(kind="oltp", benchmark="tpcc", scale=10, design="LC",
               profile="tiny", duration=2.0)
print(json.dumps(run(spec).to_dict(), sort_keys=True))
"""


def test_a_run_is_the_same_at_two_hash_seeds():
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    children = [subprocess.Popen(
        [sys.executable, "-c", CHILD], stdout=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed))
        for seed in ("0", "5")]
    records = [child.communicate(timeout=120)[0] for child in children]
    assert [child.returncode for child in children] == [0, 0]
    assert records[0] and records[0] == records[1]
