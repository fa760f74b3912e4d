"""One fill of every sweep's report per scale, shared by ``tests/harness``.

``sweep_reports(scale)`` walks all of ``ALL_SWEEPS`` at the scale's
first two replication seeds through ``run_sweep_outcome`` — the one
walk from a sweep to its report — into one result store, once per
session.  The paper claims ask for the scale ``REPRO_BENCH_SCALE``
selects; the report-form tests and the warm-render test always ask for
``tiny``, so nothing under ``tests/harness`` re-runs a sweep privately.
"""

import functools
from types import SimpleNamespace

import pytest

from repro.analysis.report.experiment_results import default_seeds
from repro.harness.experiments import ALL_SWEEPS
from repro.harness.scales import SCALES
from repro.harness.sweep import run_sweep_outcome
from repro.runtime import clear_cache, result_store_session


def claim_seeds(scale):
    """The replication seeds every claim is judged at."""
    return default_seeds(scale, 2)


@pytest.fixture(scope="session")
def sweep_reports(tmp_path_factory):
    """``scale -> (store=path, reports={(sweep name, seed): report})``."""

    @functools.cache
    def fill(scale):
        path = tmp_path_factory.mktemp(f"sweeps-{scale}")
        # A cell an earlier test left in the memory tier would be served
        # from there and never reach the store.
        clear_cache()
        with result_store_session(path):
            # The scale's own seed is "no override", as in
            # ``ExperimentResults._outcome``: default-seed cells.
            reports = {
                (name, seed): run_sweep_outcome(
                    sweep, scale,
                    seed=None if seed == SCALES[scale].seed else seed,
                ).report
                for seed in claim_seeds(scale)
                for name, sweep in ALL_SWEEPS.items()
            }
        return SimpleNamespace(store=path, reports=reports)

    return fill
