"""The declarative sweep engine behind every paper experiment.

An experiment is no longer a hand-written loop of driver runs: it is a
:class:`~repro.harness.sweep.spec.Sweep` — a named grid of
:class:`~repro.runtime.scenarios.Scenario` variations plus a report
builder — executed by
:func:`~repro.harness.sweep.engine.run_sweep_outcome`.  The engine resolves every grid cell through the shared cache tiers
(in-memory :class:`~repro.runtime.scenarios.ScenarioCache`, then the
persistent :class:`~repro.runtime.store.ResultStore`); with ``jobs > 1``
it enqueues the misses on a lease-based work queue over the store
(:mod:`~repro.harness.sweep.queue`), drained by independent worker
processes (:mod:`~repro.harness.sweep.worker`, ``repro-bench --worker``)
on one or many hosts, and assembles results in grid order so the report
is byte-identical regardless of worker count or completion order.

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
from repro.harness.sweep.queue import (
    Lease,
    LeaseLost,
    WorkQueue,
    default_worker_id,
    store_gc,
)
from repro.harness.sweep.worker import WorkerOptions, worker_loop

__all__ = [
    "ExperimentReport",
    "Sweep",
    "RunRecord",
    "SweepOutcome",
    "run_sweep_outcome",
    "shutdown_pools",
    "Lease",
    "LeaseLost",
    "WorkQueue",
    "default_worker_id",
    "store_gc",
    "WorkerOptions",
    "worker_loop",
]
