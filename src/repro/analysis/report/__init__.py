"""Statistical report service over multi-seed experiment sweeps.

This subpackage turns the deterministic single-seed experiment suite
(:mod:`repro.harness.experiments`) into a *statistical* reproduction:
:class:`~repro.analysis.report.experiment_results.ExperimentResults`
runs each artifact's sweep once per workload seed (independent
replications of the synthetic database) and folds the sweeps'
``series`` into per-cell replicates (:mod:`.samples`), summarised with
seeded-bootstrap confidence intervals and rank tests
(:mod:`.stat_tests`); :mod:`.rendering` regenerates Figures 3-5 and
Tables 2-4 as markdown and self-contained HTML with error bars, and
:mod:`.diff` gates the ``dataclasses.asdict`` payload against a
committed baseline (``repro-bench diff``) with tolerance bands and
significance-aware verdicts.

Everything here is a pure function of ``(scale, seeds)``: no host
clocks, no unseeded randomness, no set-iteration ordering — the same
warm :class:`~repro.runtime.store.ResultStore` renders byte-identical
reports without re-executing a single scenario.

Deliberately *not* re-exported from :mod:`repro.analysis`:
``repro.harness`` imports ``repro.analysis`` at package import time,
and this subpackage imports ``repro.harness`` — keeping the report
layer out of the parent ``__init__`` breaks the cycle.
"""

from repro.analysis.report.diff import (
    EXIT_DRIFT,
    EXIT_PASS,
    EXIT_REGRESSION,
    DiffPolicy,
    DiffReport,
    compare_payloads,
)
from repro.analysis.report.experiment_results import (
    REPORT_FORMAT,
    ExperimentResults,
)
from repro.analysis.report.rendering import render_html, render_markdown
from repro.analysis.report.samples import ArtifactStats, CellStats, Comparison
from repro.analysis.report.stat_tests import (
    RankTest,
    Summary,
    bootstrap_ci,
    mann_whitney_u,
    permutation_test,
    summarize,
)

__all__ = [
    "ArtifactStats",
    "CellStats",
    "Comparison",
    "DiffPolicy",
    "DiffReport",
    "EXIT_DRIFT",
    "EXIT_PASS",
    "EXIT_REGRESSION",
    "ExperimentResults",
    "RankTest",
    "REPORT_FORMAT",
    "Summary",
    "bootstrap_ci",
    "compare_payloads",
    "mann_whitney_u",
    "permutation_test",
    "render_html",
    "render_markdown",
    "summarize",
]
