"""Lease-based work queue over the result store directory.

This is the coordination half of the scheduler/worker split: the
scheduler enqueues the content addresses of the scenarios a sweep still
needs (:meth:`WorkQueue.enqueue`), any number of worker processes — on
this host or on others sharing the store directory — lease cells
(:meth:`WorkQueue.lease`), execute them, write the result into the
:class:`~repro.runtime.store.ResultStore`, and release
(:meth:`WorkQueue.release`).  The store itself stays the only result
channel; the queue only ever moves *keys*.

Layout, under ``<store>/queue/``::

    queue.lock        advisory fcntl lock serializing queue mutations
    pending/<key>.json   a task: the scenario dict plus its address
    leased/<key>.json    the task plus {worker, deadline, attempt}
    done/<key>.json      completion accounting: {worker, wall_s, attempt}

Every transition is an atomic rename under the ``queue.lock`` flock, so
two workers can never lease the same cell, and a partially-written task
is never observed.  Leases carry a host wall-clock deadline: a live
worker renews it from a background thread while executing
(:mod:`repro.harness.sweep.worker`), so a lease that *expires* means its
worker died — the next :meth:`lease` call reclaims the cell back to
pending with a bumped attempt counter instead of losing it.  Duplicated
execution after a very late revival is harmless by construction: store
writes are idempotent atomic renames of byte-identical content.

Host-clock reads are confined to this harness-layer module (RPL101):
the runtime store's :meth:`~repro.runtime.store.ResultStore.gc` takes
``now`` as a parameter, and :func:`store_gc` here supplies it.
"""

from __future__ import annotations

import fcntl
import json
import os
import socket
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional

from repro.errors import HarnessError
from repro.obs import current_telemetry, emit_ambient
from repro.runtime.scenarios import Scenario
from repro.runtime.store import ResultStore

__all__ = [
    "Lease",
    "LeaseLost",
    "WorkQueue",
    "default_worker_id",
    "store_gc",
]


class LeaseLost(HarnessError):
    """The lease expired and was reclaimed out from under its holder."""


def default_worker_id() -> str:
    """Host-qualified default worker identity (unique per process)."""
    return f"{socket.gethostname()}-{os.getpid()}"


@dataclass(frozen=True)
class Lease:
    """One worker's exclusive claim on one queued cell."""

    #: Content address (the store entry this cell will become).
    key: str
    scenario: Scenario
    worker: str
    #: Host wall-clock time after which the claim may be reclaimed.
    deadline: float
    #: 1 on first lease; +1 every time an expired lease is reclaimed.
    attempt: int


class WorkQueue:
    """Concurrency-safe queue of scenario content addresses.

    All mutations run under an exclusive ``flock`` on ``queue.lock``
    and move task files between ``pending/``, ``leased/``, and ``done/``
    via atomic rename — execution itself happens outside the lock, so
    the critical sections are a few stat/rename calls long.
    """

    def __init__(self, store: ResultStore) -> None:
        self.store = store
        self.path = store.queue_path
        self.pending_path = self.path / "pending"
        self.leased_path = self.path / "leased"
        self.done_path = self.path / "done"
        for directory in (
            self.path, self.pending_path, self.leased_path, self.done_path,
        ):
            directory.mkdir(parents=True, exist_ok=True)
        self._lock_path = self.path / "queue.lock"

    # -- locking -----------------------------------------------------------

    @contextmanager
    def _locked(self) -> Iterator[None]:
        """Exclusive advisory lock serializing queue mutations across
        processes (and hosts sharing the directory)."""
        fd = os.open(self._lock_path, os.O_CREAT | os.O_RDWR)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            fcntl.flock(fd, fcntl.LOCK_UN)
            os.close(fd)

    def _write(self, path: Path, payload: dict) -> None:
        """Atomic write: temp file in the queue dir, then rename."""
        tmp = self.path / f".tmp-{os.getpid()}-{path.name}"
        tmp.write_text(json.dumps(payload, indent=2, sort_keys=True))
        os.replace(tmp, path)

    @staticmethod
    def _read(path: Path) -> Optional[dict]:
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        return payload if isinstance(payload, dict) else None

    # -- scheduler side ----------------------------------------------------

    def enqueue(self, scenario: Scenario) -> bool:
        """Queue ``scenario`` unless it is already pending, leased, or
        resolved (its result entry exists in the store).  Returns
        whether a task was actually added — enqueueing is idempotent,
        so schedulers and resumed sweeps can enqueue unconditionally."""
        key = self.store.key_for(scenario)
        with self._locked():
            if self.store.path_for_key(key).exists():
                return False
            if (self.pending_path / f"{key}.json").exists():
                return False
            if (self.leased_path / f"{key}.json").exists():
                return False
            self._write(
                self.pending_path / f"{key}.json",
                {"key": key, "scenario": scenario.to_dict()},
            )
        emit_ambient("queue-enqueue", key=key)
        return True

    def discard(self, key: str) -> bool:
        """Drop a task wherever it sits (scheduler-side cleanup when a
        cell was resolved outside the queue).  Returns whether anything
        was removed."""
        removed = False
        with self._locked():
            for directory in (self.pending_path, self.leased_path):
                task = directory / f"{key}.json"
                if task.exists():
                    task.unlink()
                    removed = True
        return removed

    # -- worker side -------------------------------------------------------

    def lease(
        self,
        worker: str,
        ttl_s: float,
        now: Optional[float] = None,
    ) -> Optional[Lease]:
        """Claim the first available cell for ``ttl_s`` seconds, or
        ``None`` when nothing is leasable.  Expired leases are reclaimed
        first, so a crashed worker's cell is re-leased — not lost."""
        if now is None:
            now = time.time()
        with self._locked():
            reclaimed = self._reclaim_stale_locked(now)
            candidates = sorted(self.pending_path.glob("*.json"))
            for candidate in candidates:
                task = self._read(candidate)
                if task is None:
                    continue
                key = task["key"]
                if self.store.path_for_key(key).exists():
                    # Resolved out-of-band (another queue, a serial
                    # run against the same store): nothing to execute.
                    candidate.unlink()
                    continue
                attempt = int(task.get("attempt", 0)) + 1
                task["attempt"] = attempt
                task["lease"] = {
                    "worker": worker,
                    "deadline": now + ttl_s,
                }
                self._write(self.leased_path / f"{key}.json", task)
                candidate.unlink()
                lease = Lease(
                    key=key,
                    scenario=Scenario.from_dict(task["scenario"]),
                    worker=worker,
                    deadline=now + ttl_s,
                    attempt=attempt,
                )
                break
            else:
                lease = None
        for key, stale_worker, attempt in reclaimed:
            emit_ambient("lease-reclaim", key=key, worker=stale_worker,
                         attempt=attempt)
        if lease is not None:
            emit_ambient("lease-acquire", key=lease.key, worker=worker,
                         attempt=lease.attempt)
        return lease

    def renew(
        self,
        lease: Lease,
        ttl_s: float,
        now: Optional[float] = None,
    ) -> Lease:
        """Extend a held lease by ``ttl_s`` from now.  Raises
        :class:`LeaseLost` when the lease expired and was reclaimed (or
        completed) by someone else in the meantime."""
        if now is None:
            now = time.time()
        with self._locked():
            task = self._read(self.leased_path / f"{lease.key}.json")
            if task is None or not self._owned(task, lease):
                raise LeaseLost(
                    f"lease on {lease.key} lost by {lease.worker} "
                    f"(attempt {lease.attempt})"
                )
            task["lease"]["deadline"] = now + ttl_s
            self._write(self.leased_path / f"{lease.key}.json", task)
        emit_ambient("lease-renew", key=lease.key, worker=lease.worker)
        return Lease(
            key=lease.key,
            scenario=lease.scenario,
            worker=lease.worker,
            deadline=now + ttl_s,
            attempt=lease.attempt,
        )

    def release(self, lease: Lease, wall_s: float = 0.0) -> bool:
        """Complete a held lease: record the worker-side wall-clock in a
        ``done/`` record (scheduler accounting — never part of the store
        entry, which stays a pure function of config) and drop the
        task.  Returns ``False`` when the lease was already lost; the
        result is in the store either way."""
        with self._locked():
            task = self._read(self.leased_path / f"{lease.key}.json")
            if task is None or not self._owned(task, lease):
                return False
            self._write(
                self.done_path / f"{lease.key}.json",
                {
                    "key": lease.key,
                    "worker": lease.worker,
                    "wall_s": wall_s,
                    "attempt": lease.attempt,
                },
            )
            (self.leased_path / f"{lease.key}.json").unlink()
        emit_ambient("lease-release", key=lease.key, worker=lease.worker,
                     wall_s=wall_s, attempt=lease.attempt)
        return True

    @staticmethod
    def _owned(task: dict, lease: Lease) -> bool:
        holder = task.get("lease", {})
        return (
            holder.get("worker") == lease.worker
            and int(task.get("attempt", 0)) == lease.attempt
        )

    # -- maintenance -------------------------------------------------------

    def _reclaim_stale_locked(self, now: float) -> "list[tuple[str, str, int]]":
        """Move every expired lease back to pending (caller holds the
        lock).  Returns ``(key, stale_worker, attempt)`` triples."""
        reclaimed = []
        for leased in sorted(self.leased_path.glob("*.json")):
            task = self._read(leased)
            if task is None:
                continue
            holder = task.get("lease", {})
            if float(holder.get("deadline", 0.0)) > now:
                continue
            key = task["key"]
            stale_worker = str(holder.get("worker", "?"))
            attempt = int(task.get("attempt", 0))
            if self.store.path_for_key(key).exists():
                # The worker died between the store write and release:
                # the result survived, so the cell is simply done.
                leased.unlink()
                continue
            task.pop("lease", None)
            self._write(self.pending_path / f"{key}.json", task)
            leased.unlink()
            reclaimed.append((key, stale_worker, attempt))
        return reclaimed

    def reclaim_stale(self, now: Optional[float] = None) -> "list[str]":
        """Reclaim expired leases (the scheduler calls this while
        awaiting completion, so recovery does not depend on a second
        worker surviving)."""
        if now is None:
            now = time.time()
        with self._locked():
            reclaimed = self._reclaim_stale_locked(now)
        for key, stale_worker, attempt in reclaimed:
            emit_ambient("lease-reclaim", key=key, worker=stale_worker,
                         attempt=attempt)
        return [key for key, _, _ in reclaimed]

    def counts(self) -> dict:
        """Queue depth: ``{"pending": n, "leased": n, "done": n}``."""
        return {
            "pending": sum(1 for _ in self.pending_path.glob("*.json")),
            "leased": sum(1 for _ in self.leased_path.glob("*.json")),
            "done": sum(1 for _ in self.done_path.glob("*.json")),
        }

    def done_records(self) -> dict:
        """Completion accounting by content address: one
        ``{"worker", "wall_s", "attempt"}`` dict per released cell."""
        records = {}
        for done in sorted(self.done_path.glob("*.json")):
            record = self._read(done)
            if record is not None and "key" in record:
                records[record["key"]] = record
        return records


def store_gc(store: ResultStore, tmp_age_s: float = 3600.0) -> dict:
    """Garbage-collect a store directory and its queue state
    (``repro-bench --store-gc``).

    Drops orphaned temp files and old-:data:`~repro.runtime.store.STORE_FORMAT`
    entries (:meth:`ResultStore.gc`), requeues expired leases, removes
    tasks whose result already exists, and clears completed-cell
    accounting.  Returns the sorted-key summary the CLI prints.
    """
    now = time.time()
    summary = store.gc(now, tmp_age_s=tmp_age_s)
    queue = WorkQueue(store)
    leases_reclaimed = len(queue.reclaim_stale(now))
    tasks_orphaned = 0
    done_cleared = 0
    with queue._locked():
        for directory in (queue.pending_path, queue.leased_path):
            for task_path in sorted(directory.glob("*.json")):
                task = queue._read(task_path)
                if task is None or store.path_for_key(
                    str(task.get("key", ""))
                ).exists():
                    task_path.unlink()
                    tasks_orphaned += 1
        for done in queue.done_path.glob("*.json"):
            done.unlink()
            done_cleared += 1
        for tmp in queue.path.glob(".tmp-*"):
            try:
                if now - tmp.stat().st_mtime >= tmp_age_s:
                    tmp.unlink()
                    summary["tmp_removed"] += 1
            except OSError:
                continue
    summary.update({
        "store": str(store.path),
        "leases_reclaimed": leases_reclaimed,
        "tasks_orphaned": tasks_orphaned,
        "done_cleared": done_cleared,
    })
    removed = (
        summary["entries_removed"] + summary["tmp_removed"]
        + tasks_orphaned + done_cleared
    )
    telemetry = current_telemetry()
    if telemetry is not None and removed:
        telemetry.registry.counter("store_gc_removed").inc(removed)
    return summary
