"""``repro.analysis.lint`` — domain static analysis (``repro-lint``).

AST-level checkers for the invariants generic linters cannot see:

========  ==========================  =========================================
Code      Rule                        Protects
========  ==========================  =========================================
RPL101    host-clock-in-sim           virtual-time purity of simulation layers
RPL102    host-clock-off-allowlist    the audited harness host-clock scope
RPL201    unseeded-randomness         run reproducibility, cache addressing
RPL202    unordered-set-iteration     byte-identity under PYTHONHASHSEED
RPL301    undeclared-event-kind       the telemetry event contract
RPL302    undeclared-metric-name      the metrics-registry contract
RPL401    frozen-config-mutation      content-addressed result storage
RPL501    float-equality-in-codec     the exact repr float codec
========  ==========================  =========================================

See DESIGN.md §12 for the catalogue and rationale; run ``repro-lint
--list-codes`` for the fix-it hints.
"""

from repro.analysis.lint.cli import ALL_CHECKERS, build_checkers, main
from repro.analysis.lint.framework import (
    Checker,
    Finding,
    LintContext,
    LintReport,
    collect_files,
    lint_file,
    lint_paths,
    module_name_for,
)

__all__ = [
    "ALL_CHECKERS",
    "Checker",
    "Finding",
    "LintContext",
    "LintReport",
    "build_checkers",
    "collect_files",
    "lint_file",
    "lint_paths",
    "main",
    "module_name_for",
]
