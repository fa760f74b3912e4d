"""The acceptance gate: the repository's own tree is repro-lint clean.

This is the enforcement point for the domain invariants — any host-clock
read in the simulation layers or off the harness allowlist, set iteration
feeding an ordered sink, float equality in codec code, or a model layer
importing repro.analysis fails the tier-1 suite, not just the CI lint
job."""

from __future__ import annotations

from pathlib import Path

from repro.analysis.lint.cli import build_checkers
from repro.analysis.lint.framework import lint_paths

REPO = Path(__file__).resolve().parents[2]


def test_repo_tree_is_lint_clean():
    report = lint_paths(
        [REPO / "src", REPO / "tests", REPO / "examples"],
        build_checkers(),
    )
    rendered = "\n".join(f.render() for f in report.findings)
    assert report.parse_errors == [], report.parse_errors
    assert not report.findings, f"repro-lint violations:\n{rendered}"
    assert report.n_files > 50
