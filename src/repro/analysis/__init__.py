"""Static invariant analysis for the reproduction's hot paths.

``python -m repro.analysis`` scans a source tree (the installed
``repro`` package by default) and enforces the repo's load-bearing
invariants as AST / call-graph rules:

========  ==========================================================
RA001     patch paths stay *uncharged* (peek-family access only)
RA002     executor writes hold the one executor lock
RA003     every declared query kind has its method (no isinstance ladders)
RA004     cached buffer views are dropped before any resizing patch
RA005     optional deps (numpy) import only via ``repro._optional``
========  ==========================================================

``python -m repro.analysis --explain RA001`` prints a rule's rationale;
``--list`` enumerates the registry.  Exit status: 0 clean, 1 findings,
2 usage error — so CI can gate on it directly.
"""

from repro.analysis.engine import (
    AnalysisError,
    Finding,
    Rule,
    all_rules,
    analyze_path,
    get_rule,
    register_rule,
    run_rules,
)
from repro.analysis.project import Project

__all__ = [
    "AnalysisError",
    "Finding",
    "Project",
    "Rule",
    "all_rules",
    "analyze_path",
    "get_rule",
    "register_rule",
    "run_rules",
]
