"""The sweep scheduler: cache-tier resolution + a local process pool.

Executing a sweep means resolving every grid cell to a
:class:`~repro.runtime.results.RunResult`:

1. group the cells by content address and probe the shared cache tiers
   once per address (:func:`~repro.runtime.scenarios.lookup_scenario`:
   in-memory first, then the ambient persistent store);
2. execute each missed address once — in-process when ``jobs == 1``;
   with ``jobs > 1`` in one lingering ``ProcessPoolExecutor`` of
   ``jobs`` spawned processes, the parent installing every result into
   both cache tiers as it completes (it is the only store writer, so a
   killed run against a store loses only the cells in flight) — and
   record every later cell of an address as ``cached``;
3. reassemble in grid-key order, never completion order — so a parallel
   sweep's report is byte-for-byte identical to a serial one (results
   ship through the store's exact JSON codec).

Failure model: if a pool process dies, the pool breaks; the parent
discards it and executes every still-missing cell in-process, so
``run_sweep_outcome`` always terminates.  The next ``jobs > 1`` sweep
starts a fresh pool.

Per-cell progress and wall-clock timing are published on the ambient
telemetry bus (``sweep-start`` / ``sweep-run`` / ``sweep-done``); the
metrics fold at export turns them into ``sweep_runs`` counters and
``sweep_run_wall_s`` histograms.
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
    #: ``cached`` (either tier, or an earlier cell of the same content
    #: address), ``executed`` (in-process), or ``worker`` (executed by a
    #: pool process).
    source: str
    #: Host wall-clock of the resolution (pool-process time for
    #: ``worker`` cells, 0.0 for a repeated address).
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


def _probe(scenario: Scenario) -> "tuple[str, float, Optional[RunResult]]":
    """Probe the cache tiers once: ``("cached", wall, result or None)``."""
    start = time.perf_counter()
    found = lookup_scenario(scenario)
    return "cached", time.perf_counter() - start, found


def _run_pool(
    firsts: "dict[str, Scenario]", jobs: int
) -> "dict[str, tuple[str, float, Optional[RunResult]]]":
    """Probe every address and run the misses in the pool, installing
    each result as it completes.  A miss the pool lost (a process died)
    keeps its ``None`` result, for the caller to execute in-process.
    The pool machinery is imported here so serial sweeps never load it."""
    from concurrent.futures import BrokenExecutor, as_completed

    ahead = {ck: _probe(scenario) for ck, scenario in firsts.items()}
    misses = {ck: firsts[ck] for ck, (_, _, found) in ahead.items() if found is None}
    if not misses:
        return ahead
    pool = _pool(jobs)
    try:
        futures = {
            pool.submit(_execute_cell, scenario.to_dict()): ck
            for ck, scenario in misses.items()
        }
        for future in as_completed(futures):
            ck = futures[future]
            wall, payload = future.result()
            result = result_from_dict(payload)
            install_result(misses[ck], result)
            ahead[ck] = ("worker", wall, result)
    except BrokenExecutor:
        shutdown_pools()
    return ahead


def _resolve(
    sweep: Sweep,
    cells: "dict[str, Scenario]",
    jobs: int,
    records: "list[RunRecord]",
) -> "dict[str, RunResult]":
    """Resolve ``cells`` to results, in grid-key order.

    One path for every ``jobs``: cells group by content address in grid
    order (grids may alias cells — the same baseline under two labels),
    each address is probed once and each miss executed once, counting
    one memory-tier miss.  With ``jobs > 1`` the misses run in the pool
    up front; otherwise, and for a broken pool's remainder, a miss runs
    in-process when its first cell comes up.  Every later cell of an
    address is recorded ``cached``.
    """
    addresses = {key: ResultStore.key_for(scenario) for key, scenario in cells.items()}
    firsts: "dict[str, Scenario]" = {}
    for key, ck in addresses.items():
        firsts.setdefault(ck, cells[key])
    ahead = _run_pool(firsts, jobs) if jobs > 1 else {}

    by_address: "dict[str, RunResult]" = {}
    results: "dict[str, RunResult]" = {}
    for key, scenario in cells.items():
        ck = addresses[key]
        if ck not in by_address:
            source, wall, found = ahead[ck] if ck in ahead else _probe(scenario)
            if found is None:
                start = time.perf_counter()
                found = execute_and_install(scenario)
                source, wall = "executed", wall + time.perf_counter() - start
            by_address[ck] = found
        else:
            source, wall, found = "cached", 0.0, by_address[ck]
        results[key] = found
        records.append(RunRecord(key, source, wall))
        emit_ambient("sweep-run", sweep=sweep.name, cell=key,
                     source=source, wall_s=wall)
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
    ``seed`` re-seeds every grid (and follow-up) cell, giving one
    independent replication of the whole sweep per seed — the axis the
    ``repro-bench report`` multi-seed aggregates are built on.  The report
    builder sees only the resolved cells.  This is the only walk from a
    sweep to its report.
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
    text, data = sweep.report(scale, results)
    report = ExperimentReport(
        exp_id=sweep.exp_id, title=sweep.title, text=text, data=data,
        paper_shape=sweep.shape,
    )
    emit_ambient("sweep-done", sweep=sweep.name, scale=scale,
                 n_cells=len(records), wall_s=time.perf_counter() - start)
    return SweepOutcome(report=report, records=records)
