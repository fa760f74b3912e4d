"""The sweep scheduler: cache-tier resolution + queue-based fan-out.

Executing a sweep means resolving every grid cell to a
:class:`~repro.runtime.results.RunResult`:

1. probe the shared cache tiers once (:func:`~repro.runtime.scenarios.lookup_scenario`:
   in-memory first, then the ambient persistent store);
2. resolve the misses — in-process when ``jobs == 1``; with ``jobs > 1``
   the scheduler *enqueues* each unique content address on the store's
   lease-based work queue (:mod:`repro.harness.sweep.queue`), spawns
   ``jobs`` local worker processes (``repro-bench --worker`` — the same
   loop remote workers run against a shared store directory), and awaits
   the results appearing in the :class:`~repro.runtime.store.ResultStore`;
3. reassemble in grid-key order, never completion order — so a
   distributed sweep's report is byte-for-byte identical to a serial
   one (results ship through the store's exact JSON codec).

Failure model: a worker killed mid-cell stops renewing its lease, so
the cell is reclaimed — by a surviving worker or by the scheduler's own
await loop — and re-executed; no cell is lost, and duplicated
executions converge through the store's idempotent atomic writes.  If
every local worker exits with work outstanding, the scheduler finishes
the remainder in-process, so ``run_sweep_outcome`` always terminates.

Per-cell progress and wall-clock timing are published on the ambient
telemetry bus (``sweep-start`` / ``sweep-run`` / ``sweep-done``, plus
the queue's ``queue-enqueue`` / ``lease-*`` kinds), which the metrics
updater folds into ``sweep_runs`` counters and histograms.
"""

from __future__ import annotations

import atexit
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.errors import HarnessError
from repro.harness.sweep.queue import WorkQueue
from repro.harness.sweep.spec import ExperimentReport, Sweep
from repro.obs import emit_ambient
from repro.runtime.scenarios import (
    Scenario,
    execute_and_install,
    install_result,
    lookup_scenario,
    run_scenario,
)
from repro.runtime.store import ResultStore, current_result_store

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.results import RunResult

__all__ = [
    "RunRecord",
    "SweepOutcome",
    "run_sweep_outcome",
    "shutdown_pools",
]

#: Default lease duration for scheduler-spawned local workers; also the
#: worst-case delay before a killed worker's cell is reclaimed.
DEFAULT_LEASE_TTL_S = 30.0

#: Scheduler/worker poll interval while awaiting queue progress.
POLL_S = 0.05


@dataclass(frozen=True)
class RunRecord:
    """How one grid cell was resolved."""

    key: str
    #: ``cached`` (either tier), ``executed`` (in-process), or
    #: ``worker`` (executed by a queue worker process).
    source: str
    #: Host wall-clock of the resolution (worker-side time for queue
    #: runs, from the queue's completion records).
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


# Locally-spawned worker processes, keyed by the resolved store path
# they drain.  Workers linger briefly when their queue empties (so a
# suite run reuses them across its dozen sweeps) and are terminated by
# shutdown_pools() — registered atexit, and called from the CLI's
# error paths, so an interrupted --jobs run leaks no processes.
_LOCAL_WORKERS: "dict[str, list[subprocess.Popen]]" = {}

#: Lazily-created queue/result store used by distributed resolution
#: when no ambient store session is active (results still enter the
#: in-memory cache; the directory is temporary).
_FALLBACK_STORE: "Optional[tempfile.TemporaryDirectory]" = None


def _queue_store() -> ResultStore:
    """The store backing the work queue: the ambient one, else a
    process-wide temporary store (cleaned up by :func:`shutdown_pools`)."""
    global _FALLBACK_STORE
    store = current_result_store()
    if store is not None:
        return store
    if _FALLBACK_STORE is None:
        _FALLBACK_STORE = tempfile.TemporaryDirectory(
            prefix="repro-sweep-queue-"
        )
    return ResultStore(_FALLBACK_STORE.name)


def _spawn_worker(store: ResultStore, index: int, lease_ttl_s: float) -> subprocess.Popen:
    """Start one local worker subprocess against ``store`` — the exact
    process remote hosts run via ``repro-bench --worker``."""
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.harness.cli",
            "--worker",
            "--store", str(store.path),
            "--worker-id", f"local-{index}",
            "--lease-ttl", str(lease_ttl_s),
            # Outlive a crashed peer's lease so the survivor reclaims
            # its cell instead of exiting first.
            "--idle-exit", str(lease_ttl_s + 5.0),
        ],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _ensure_local_workers(
    store: ResultStore, jobs: int, lease_ttl_s: float
) -> "list[subprocess.Popen]":
    """Top the store's local worker pool up to ``jobs`` live processes
    (dead ones are pruned; surviving ones are reused across sweeps)."""
    key = str(store.path.resolve())
    alive = [p for p in _LOCAL_WORKERS.get(key, []) if p.poll() is None]
    index = len(alive)
    while len(alive) < jobs:
        alive.append(_spawn_worker(store, index, lease_ttl_s))
        index += 1
    _LOCAL_WORKERS[key] = alive
    return alive


def _live_local_workers(store: ResultStore) -> "list[subprocess.Popen]":
    key = str(store.path.resolve())
    return [p for p in _LOCAL_WORKERS.get(key, []) if p.poll() is None]


def shutdown_pools() -> None:
    """Terminate every locally-spawned sweep worker and drop the
    fallback queue store.  Registered via ``atexit`` and called from
    the CLI's completion/error paths, so interrupted ``--jobs`` runs
    don't leak worker processes; tests and benchmark phases also use it
    to force fresh workers."""
    global _FALLBACK_STORE
    procs = [p for workers in _LOCAL_WORKERS.values() for p in workers]
    _LOCAL_WORKERS.clear()
    for proc in procs:
        if proc.poll() is None:
            proc.terminate()
    for proc in procs:
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:  # pragma: no cover - stuck worker
            proc.kill()
            proc.wait()
    if _FALLBACK_STORE is not None:
        try:
            _FALLBACK_STORE.cleanup()
        except OSError:  # pragma: no cover - racing worker teardown
            pass
        _FALLBACK_STORE = None


atexit.register(shutdown_pools)


def _await_store(
    store: ResultStore,
    queue: WorkQueue,
    pending: "dict[str, Scenario]",
    *,
    spawn_workers: bool,
    lease_ttl_s: float,
) -> "tuple[dict[str, RunResult], dict[str, float], set[str]]":
    """Await every ``pending`` content address appearing in ``store``.

    Returns ``(results, wall_by_key, inline_keys)`` where ``inline_keys``
    are the cells the scheduler had to execute in-process itself (its
    liveness fallback when no worker survives).
    """
    from repro.harness.sweep.worker import WorkerOptions, worker_loop

    resolved: "dict[str, RunResult]" = {}
    inline: "set[str]" = set()
    scheduler_wall: "dict[str, float]" = {}
    while True:
        for key, scenario in pending.items():
            if key in resolved:
                continue
            if store.path_for_key(key).exists():
                result = store.get(scenario)
                if result is not None:
                    resolved[key] = result
        if len(resolved) == len(pending):
            break
        queue.reclaim_stale()
        if spawn_workers:
            if not _live_local_workers(store):
                # Every local worker exited (or crashed) with work
                # outstanding: finish the remainder in-process so the
                # sweep always terminates.
                for key, scenario in pending.items():
                    if key in resolved:
                        continue
                    queue.discard(key)
                    start = time.perf_counter()
                    resolved[key] = run_scenario(scenario)
                    scheduler_wall[key] = time.perf_counter() - start
                    inline.add(key)
                break
            time.sleep(POLL_S)
        else:
            # External-worker mode: the scheduler participates as one
            # more worker, draining whatever the attached workers have
            # not leased — progress never depends on them surviving.
            worker_loop(store, WorkerOptions(
                worker_id="scheduler",
                lease_ttl_s=lease_ttl_s,
                poll_s=POLL_S,
                idle_exit_s=4 * POLL_S,
                exit_when_empty=True,
            ))
            time.sleep(POLL_S)
    timings = dict(scheduler_wall)
    for key, record in queue.done_records().items():
        if key in pending and key not in timings:
            timings[key] = float(record.get("wall_s", 0.0))
    return resolved, timings, inline


def _resolve(
    sweep: Sweep,
    cells: "dict[str, Scenario]",
    jobs: int,
    records: "list[RunRecord]",
    *,
    spawn_workers: bool = True,
    lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
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

    # Distributed path: probe the cache tiers up front, enqueue each
    # *unique* pending content address (grids may alias cells — e.g.
    # the same baseline under two labels) exactly once, and let the
    # worker processes race for the leases.
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
        store = _queue_store()
        queue = WorkQueue(store)
        for scenario in pending.values():
            queue.enqueue(scenario)
        if spawn_workers:
            _ensure_local_workers(store, jobs, lease_ttl_s)
        resolved, timings, inline = _await_store(
            store, queue, pending,
            spawn_workers=spawn_workers, lease_ttl_s=lease_ttl_s,
        )
        for key, scenario in pending.items():
            install_result(scenario, resolved[key])

    for key, scenario in cells.items():
        if key in cached:
            record = RunRecord(key, "cached", 0.0)
            results[key] = cached[key]
        else:
            ck = ResultStore.key_for(scenario)
            source = "executed" if ck in inline else "worker"
            record = RunRecord(key, source, timings.get(ck, 0.0))
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
    spawn_workers: bool = True,
    lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
) -> SweepOutcome:
    """Execute ``sweep`` at ``scale`` with ``jobs`` worker processes.

    ``jobs <= 1`` runs everything in-process.  With ``jobs > 1`` the
    misses go through the store-backed work queue; ``spawn_workers``
    controls whether the scheduler launches its own local worker
    processes (``False`` relies on externally-attached ``repro-bench
    --worker`` processes, with the scheduler itself draining whatever
    they don't lease).  Persistence comes from the ambient result store
    when a :func:`~repro.runtime.store.result_store_session` is active.
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
    results = _resolve(
        sweep, cells, jobs, records,
        spawn_workers=spawn_workers, lease_ttl_s=lease_ttl_s,
    )
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
        results.update(_resolve(
            sweep, extra, jobs, records,
            spawn_workers=spawn_workers, lease_ttl_s=lease_ttl_s,
        ))
    report = sweep.report(scale, results, seed)
    emit_ambient("sweep-done", sweep=sweep.name, scale=scale,
                 n_cells=len(records), wall_s=time.perf_counter() - start)
    return SweepOutcome(report=report, records=records)
