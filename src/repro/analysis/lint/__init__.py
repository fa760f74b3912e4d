"""``repro.analysis.lint`` — domain static analysis (``repro-lint``).

AST-level checkers for invariants neither generic linters nor the tier-1
suite can see:

========  ==========================  =========================================
Code      Rule                        Protects
========  ==========================  =========================================
RPL101    host-clock-in-sim           virtual-time purity of simulation layers
RPL102    host-clock-off-allowlist    the audited harness host-clock scope
RPL202    unordered-set-iteration     byte-identity under PYTHONHASHSEED
RPL501    float-equality-in-codec     the exact repr float codec
RPL601    layer-import                model layers never import analysis
========  ==========================  =========================================

The console script is :func:`repro.analysis.lint.cli.main`; see DESIGN.md
§12 for the catalogue and rationale, and ``repro-lint --list-codes`` for
the fix-it hints.
"""
