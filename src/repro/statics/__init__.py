"""Repo-specific static analysis: ``repro lint``.

PRs 2–5 established invariants that runtime tests can only catch *after*
a violation ships: tracer call sites must be guarded by
``tracer.enabled`` (zero-cost telemetry off-path), the simulator must
stay deterministic (no wall clocks, no global RNG, no
set-order-dependent scheduling), raw device I/O must reach the
fault-retry machinery, and metric cardinality must be statically known.
This package machine-checks those invariants at lint time, over the AST,
so a refactor that silently reverts one fails CI instead of a benchmark
session.

Each rule has a stable ``RPL0xx`` code; a finding can be suppressed on
its line with ``# repro: noqa[RPL0xx]``.  See DESIGN.md §9 for the
rule-to-PR map and CONTRIBUTING.md for how to add a rule.
"""

from repro.statics.engine import (
    Finding,
    ModuleInfo,
    Rule,
    check_paths,
    check_source,
    format_findings_text,
)
from repro.statics.rules import RULES

__all__ = [
    "Finding",
    "ModuleInfo",
    "RULES",
    "Rule",
    "check_paths",
    "check_source",
    "format_findings_text",
]
