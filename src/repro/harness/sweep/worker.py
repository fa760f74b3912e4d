"""The sweep worker: lease → execute → store → release, in a loop.

``repro-bench --worker --store DIR`` runs this loop in its own process;
N of them — on one host or many sharing the store directory — drain the
scheduler's queue cooperatively.  The in-process ``--jobs N`` sweep path
is the same mechanism: :mod:`repro.harness.sweep.engine` spawns N of
these as local subprocesses, so there is exactly one execution path.

Liveness and crash-safety come from the lease protocol
(:mod:`repro.harness.sweep.queue`): while a cell executes, a background
daemon thread renews the lease every ``ttl/3`` seconds, so only a dead
worker's lease ever expires; when one does, the next ``lease()`` call —
any worker's, or the scheduler's — reclaims the cell.  Results travel
exclusively through the content-addressed
:class:`~repro.runtime.store.ResultStore` (atomic, idempotent writes),
so a duplicated execution after a reclaim converges to one valid entry.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.harness.sweep.queue import (
    Lease,
    LeaseLost,
    WorkQueue,
    default_worker_id,
)
from repro.obs import emit_ambient
from repro.runtime.scenarios import run_scenario
from repro.runtime.store import ResultStore, result_store_session

__all__ = ["WorkerOptions", "worker_loop"]


@dataclass
class WorkerOptions:
    """Knobs of one worker loop."""

    worker_id: str = field(default_factory=default_worker_id)
    #: Lease duration; also the upper bound on how long a crashed
    #: worker's cell stays unavailable before reclamation.
    lease_ttl_s: float = 30.0
    #: Sleep between lease attempts when nothing is leasable.
    poll_s: float = 0.05
    #: Exit after this long without acquiring a lease (a worker waiting
    #: on a peer's lease keeps polling — the peer may crash and its
    #: cell become reclaimable — so this should exceed ``lease_ttl_s``
    #: when crash recovery matters).
    idle_exit_s: float = 10.0
    #: Exit as soon as the queue is completely empty (one-shot drain)
    #: instead of lingering ``idle_exit_s`` for late-arriving work.
    exit_when_empty: bool = False


def _execute_leased(
    store: ResultStore, queue: WorkQueue, lease: Lease, ttl_s: float
) -> "tuple[bool, float]":
    """Run one leased cell, renewing the lease from a daemon thread
    while the simulation executes.  Returns ``(released, wall_s)`` —
    ``released`` is ``False`` when the lease was lost mid-run (the
    result still reached the store; the winner's accounting stands)."""
    state = {"lease": lease, "lost": False}
    stop = threading.Event()

    def _renew_loop() -> None:
        while not stop.wait(ttl_s / 3.0):
            try:
                state["lease"] = queue.renew(state["lease"], ttl_s)
            except LeaseLost:
                state["lost"] = True
                return

    renewer = threading.Thread(target=_renew_loop, daemon=True)
    renewer.start()
    start = time.perf_counter()
    try:
        with result_store_session(store):
            run_scenario(lease.scenario)
    finally:
        stop.set()
        renewer.join()
    wall_s = time.perf_counter() - start
    if state["lost"]:
        return False, wall_s
    return queue.release(state["lease"], wall_s=wall_s), wall_s


def worker_loop(
    store: ResultStore, options: Optional[WorkerOptions] = None
) -> dict:
    """Drain ``store``'s work queue until idle; returns accounting.

    The returned dict is JSON-safe: cells completed, cells whose lease
    was lost mid-run, total busy wall-clock, and why the loop exited
    (``drained`` or ``idle``).
    """
    if options is None:
        options = WorkerOptions()
    queue = WorkQueue(store)
    emit_ambient("worker-start", worker=options.worker_id, store=str(store.path))
    cells = 0
    lost = 0
    busy_wall_s = 0.0
    reason = "idle"
    idle_since = time.time()
    while True:
        lease = queue.lease(options.worker_id, options.lease_ttl_s)
        if lease is None:
            counts = queue.counts()
            if (
                options.exit_when_empty
                and counts["pending"] == 0
                and counts["leased"] == 0
            ):
                reason = "drained"
                break
            if time.time() - idle_since >= options.idle_exit_s:
                reason = "idle"
                break
            time.sleep(options.poll_s)
            continue
        released, wall_s = _execute_leased(
            store, queue, lease, options.lease_ttl_s
        )
        busy_wall_s += wall_s
        if released:
            cells += 1
        else:
            lost += 1
        idle_since = time.time()
    stats = {
        "worker": options.worker_id,
        "cells": cells,
        "lost_leases": lost,
        "busy_wall_s": busy_wall_s,
        "exit": reason,
        "store": str(store.path),
    }
    emit_ambient("worker-exit", worker=options.worker_id, cells=cells, exit=reason)
    return stats
