"""The sweep scheduler: cache-tier resolution + a local process pool.

Executing a sweep means resolving every grid cell to a
:class:`~repro.runtime.results.RunResult`:

1. probe the shared cache tiers once (:func:`~repro.runtime.scenarios.lookup_scenario`:
   in-memory first, then the ambient persistent store);
2. resolve the misses — in-process when ``jobs == 1``; with ``jobs > 1``
   each unique content address is submitted to one lingering
   ``ProcessPoolExecutor`` of ``jobs`` spawned processes, and the parent
   installs every result into both cache tiers as it completes (the
   parent is the only store writer, so a killed ``--resume`` run loses
   only the cells in flight);
3. reassemble in grid-key order, never completion order — so a parallel
   sweep's report is byte-for-byte identical to a serial one (results
   ship through the store's exact JSON codec).

Failure model: if a pool process dies, the pool breaks; the parent
discards it and executes every still-missing cell in-process, so
``run_sweep_outcome`` always terminates.  The next ``jobs > 1`` sweep
starts a fresh pool.

Per-cell progress and wall-clock timing are published on the ambient
telemetry bus (``sweep-start`` / ``sweep-run`` / ``sweep-done``), which
the metrics updater folds into ``sweep_runs`` counters and histograms.
"""

from __future__ import annotations

import atexit
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.errors import HarnessError
from repro.harness.sweep.spec import ExperimentReport, Sweep
from repro.obs import emit_ambient
from repro.runtime.scenarios import (
    Scenario,
    execute_and_install,
    install_result,
    lookup_scenario,
)
from repro.runtime.store import ResultStore, result_from_dict, result_to_dict

if TYPE_CHECKING:  # pragma: no cover - typing only
    from concurrent.futures import ProcessPoolExecutor

    from repro.runtime.results import RunResult

__all__ = [
    "RunRecord",
    "SweepOutcome",
    "run_sweep_outcome",
    "shutdown_pools",
]


@dataclass(frozen=True)
class RunRecord:
    """How one grid cell was resolved."""

    key: str
    #: ``cached`` (either tier), ``executed`` (in-process), or
    #: ``worker`` (executed by a pool process).
    source: str
    #: Host wall-clock of the resolution (pool-process time for
    #: ``worker`` cells).
    wall_s: float


@dataclass
class SweepOutcome:
    """One sweep execution: the report plus its execution accounting."""

    report: ExperimentReport
    records: list[RunRecord]

    @property
    def n_cached(self) -> int:
        return sum(1 for r in self.records if r.source == "cached")

    @property
    def n_executed(self) -> int:
        return len(self.records) - self.n_cached


# The pool lingers across sweeps (so a suite run amortises workload
# preparation over its dozen sweeps) and is closed by shutdown_pools() —
# registered atexit, and called from the CLIs' ``finally`` blocks.
_POOL: "Optional[ProcessPoolExecutor]" = None
_POOL_JOBS = 0


def _pool(jobs: int) -> "ProcessPoolExecutor":
    """The module's process pool, (re)created at ``jobs`` processes."""
    global _POOL, _POOL_JOBS
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    if _POOL is None or _POOL_JOBS != jobs:
        shutdown_pools()
        _POOL = ProcessPoolExecutor(
            jobs, mp_context=multiprocessing.get_context("spawn")
        )
        _POOL_JOBS = jobs
    return _POOL


def shutdown_pools() -> None:
    """Close the sweep process pool, if one is running.  Tests and
    benchmark phases also use it to force fresh processes."""
    global _POOL
    if _POOL is not None:
        pool, _POOL = _POOL, None
        pool.shutdown(wait=True, cancel_futures=True)


atexit.register(shutdown_pools)


def _execute_cell(scenario: dict) -> "tuple[float, dict]":
    """One pool task: run a scenario uncached and return its wall-clock
    and its result in the store's codec."""
    start = time.perf_counter()
    result = Scenario.from_dict(scenario).execute()
    return time.perf_counter() - start, result_to_dict(result)


def _resolve(
    sweep: Sweep,
    cells: "dict[str, Scenario]",
    jobs: int,
    records: "list[RunRecord]",
) -> "dict[str, RunResult]":
    """Resolve ``cells`` to results, in grid-key order."""
    results: "dict[str, RunResult]" = {}

    if jobs <= 1:
        for key, scenario in cells.items():
            start = time.perf_counter()
            found = lookup_scenario(scenario)
            source = "cached" if found is not None else "executed"
            if found is None:
                found = execute_and_install(scenario)
            record = RunRecord(key, source, time.perf_counter() - start)
            results[key] = found
            records.append(record)
            emit_ambient("sweep-run", sweep=sweep.name, cell=key,
                         source=record.source, wall_s=record.wall_s)
        return results

    # Parallel path: probe the cache tiers up front and submit each
    # *unique* pending content address (grids may alias cells — e.g.
    # the same baseline under two labels) exactly once.  The pool
    # machinery is imported here so serial sweeps never load it.
    from concurrent.futures import BrokenExecutor, as_completed

    pending: "dict[str, Scenario]" = {}
    cached: "dict[str, RunResult]" = {}
    for key, scenario in cells.items():
        found = lookup_scenario(scenario)
        if found is not None:
            cached[key] = found
        else:
            pending.setdefault(ResultStore.key_for(scenario), scenario)

    resolved: "dict[str, RunResult]" = {}
    timings: "dict[str, float]" = {}
    inline: "set[str]" = set()
    if pending:
        pool = _pool(jobs)
        try:
            futures = {
                pool.submit(_execute_cell, scenario.to_dict()): ck
                for ck, scenario in pending.items()
            }
            for future in as_completed(futures):
                ck = futures[future]
                timings[ck], payload = future.result()
                resolved[ck] = result_from_dict(payload)
                install_result(pending[ck], resolved[ck])
        except BrokenExecutor:
            # A pool process died: finish the remainder in-process so
            # the sweep always terminates.
            shutdown_pools()
        for ck, scenario in pending.items():
            if ck not in resolved:
                start = time.perf_counter()
                resolved[ck] = execute_and_install(scenario)
                timings[ck] = time.perf_counter() - start
                inline.add(ck)

    for key, scenario in cells.items():
        if key in cached:
            record = RunRecord(key, "cached", 0.0)
            results[key] = cached[key]
        else:
            ck = ResultStore.key_for(scenario)
            source = "executed" if ck in inline else "worker"
            record = RunRecord(key, source, timings[ck])
            results[key] = resolved[ck]
        records.append(record)
        emit_ambient("sweep-run", sweep=sweep.name, cell=key,
                     source=record.source, wall_s=record.wall_s)
    return results


def run_sweep_outcome(
    sweep: Sweep,
    scale: str = "small",
    *,
    jobs: int = 1,
    seed: "int | None" = None,
) -> SweepOutcome:
    """Execute ``sweep`` at ``scale`` with ``jobs`` processes.

    ``jobs <= 1`` runs everything in-process; with ``jobs > 1`` the
    misses run in a local process pool.  Persistence comes from the
    ambient result store when a
    :func:`~repro.runtime.store.result_store_session` is active.
    ``seed`` re-seeds every grid (and follow-up) cell and is handed to
    the report builder, giving one independent replication of the whole
    sweep per seed — the axis the ``repro-report`` multi-seed aggregates
    are built on.  This is the only walk from a sweep to its report.
    """
    start = time.perf_counter()
    cells = sweep.scenarios(scale, seed)
    emit_ambient("sweep-start", sweep=sweep.name, scale=scale,
                 n_cells=len(cells), jobs=jobs)
    records: "list[RunRecord]" = []
    results = _resolve(sweep, cells, jobs, records)
    if sweep.followups is not None:
        extra = sweep.followups(scale, results)
        if seed is not None:
            extra = {k: s.with_seed(seed) for k, s in extra.items()}
        collisions = set(extra) & set(results)
        if collisions:
            raise HarnessError(
                f"sweep {sweep.name!r}: follow-up keys collide with the "
                f"grid: {sorted(collisions)}"
            )
        results.update(_resolve(sweep, extra, jobs, records))
    report = sweep.report(scale, results, seed)
    emit_ambient("sweep-done", sweep=sweep.name, scale=scale,
                 n_cells=len(records), wall_s=time.perf_counter() - start)
    return SweepOutcome(report=report, records=records)
