"""The declarative sweep engine behind every paper experiment.

An experiment is no longer a hand-written loop of driver runs: it is a
:class:`~repro.harness.sweep.spec.Sweep` — a named grid of
:class:`~repro.runtime.scenarios.Scenario` variations plus a report
builder — executed by
:func:`~repro.harness.sweep.engine.run_sweep_outcome`.  The engine resolves every grid cell through the shared cache tiers
(in-memory :class:`~repro.runtime.scenarios.ScenarioCache`, then the
persistent :class:`~repro.runtime.store.ResultStore`); with ``jobs > 1``
it runs the misses in a local process pool, and assembles results in
grid order so the report is byte-identical regardless of process count
or completion order.

:mod:`~repro.harness.sweep.docs` regenerates ``EXPERIMENTS.md`` from
the sweep definitions.
"""

from repro.harness.sweep.spec import ExperimentReport, Sweep
from repro.harness.sweep.engine import (
    RunRecord,
    SweepOutcome,
    run_sweep_outcome,
    shutdown_pools,
)

__all__ = [
    "ExperimentReport",
    "Sweep",
    "RunRecord",
    "SweepOutcome",
    "run_sweep_outcome",
    "shutdown_pools",
]
