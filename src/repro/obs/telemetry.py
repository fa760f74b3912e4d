"""The telemetry runtime: one bus and one event log, wired through a run.

:class:`Telemetry` is what a caller holds: it owns an
:class:`~repro.obs.events.EventBus` whose one subscriber appends to the
in-memory event log, and wires itself into any
:class:`~repro.runtime.driver.MiningDriver` run by setting the run's one
bus, ``cluster.network.bus``: every component emits through its node
(:meth:`~repro.cluster.node.Node.emit`), which reads it there.  The
event log is the only thing recorded; metrics are a fold over it
(:func:`~repro.obs.metrics.metrics_of`).

One telemetry object can follow several consecutive runs — each
:meth:`attach` rebinds the bus clock to the new run's environment and
tags subsequent events with a fresh run id until :meth:`end_run`
(host-side events between runs carry run id -1), which is how
``repro-bench --trace`` collects a whole experiment sweep into one
trace directory.
"""

from __future__ import annotations

import collections
from typing import Optional

from repro.obs.events import HOST_RUN, EventBus, ObsEvent, host_clock

__all__ = ["Telemetry", "run_meta"]


def run_meta(driver: str, config) -> dict:
    """Manifest entry describing one run's configuration."""
    return {
        "driver": driver,
        "pager": config.pager,
        "n_app_nodes": config.n_app_nodes,
        "n_memory_nodes": config.n_memory_nodes,
        "memory_limit_bytes": config.memory_limit_bytes,
        "replacement": config.replacement,
        "placement": config.placement,
        "churn": config.churn,
        "minsup": config.minsup,
        "seed": config.seed,
    }


class Telemetry:
    """Bus + event log + per-run manifests, in one handle."""

    def __init__(self) -> None:
        self.bus = EventBus()
        self.events: list[ObsEvent] = []
        #: One dict per attached run: configuration meta plus whatever
        #: the driver reports at completion (see :meth:`end_run`).
        self.runs: list[dict] = []
        self.bus.subscribe(self.events.append)

    # -- run lifecycle -----------------------------------------------------

    def attach(self, run, meta: Optional[dict] = None) -> int:
        """Wire this telemetry into one driver run; returns its run id.

        The run's network holds its one bus: every event source (pagers,
        swap managers, monitors, placement, dynamics, the network
        itself) emits through it, so setting it instruments them all.
        """
        run_id = self.begin_run(run.env, meta)
        run.cluster.network.bus = self.bus
        return run_id

    def begin_run(self, env, meta: Optional[dict] = None) -> int:
        """Start a new run segment on this bus (used by :meth:`attach`)."""
        run_id = len(self.runs)
        self.runs.append({"run": run_id, **(meta or {})})
        self.bus.run = run_id
        self.bus.clock = lambda: env.now
        return run_id

    def end_run(self, **extra) -> None:
        """Record completion facts (virtual duration, fault totals, ...)
        into the current run's manifest entry, and put the bus back in
        its host-side state (run id -1, time 0.0) — which also lets the
        finished run's environment go."""
        if self.runs:
            self.runs[-1].update(extra)
        self.bus.run = HOST_RUN
        self.bus.clock = host_clock

    # -- phase / span marks -------------------------------------------------

    def phase_mark(self, name: str, node_id: int = -1) -> None:
        """Point event marking a phase boundary; ``name`` is the
        event's ``detail``."""
        self.bus.emit("phase", node_id, detail=name)

    def span(self, name: str, start: float, end: float, node_id: int = -1) -> None:
        """Record a completed interval on the simulation clock."""
        self.bus.emit(
            "span", node_id, detail=name, start=start, end=end,
            duration_s=end - start,
        )

    # -- queries -------------------------------------------------------------

    def events_of_kind(self, kind: str) -> list[ObsEvent]:
        return [e for e in self.events if e.kind == kind]

    def counts_by_kind(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for e in self.events:
            out[e.kind] = out.get(e.kind, 0) + 1
        return out

    def rate_series(self, kind: str, bucket_s: float) -> list[tuple[float, int]]:
        """(bucket start, event count) series for one kind.

        Buckets are aligned at multiples of ``bucket_s`` from time 0 and
        empty buckets inside the observed span are included, so the
        series plots directly.
        """
        if bucket_s <= 0:
            raise ValueError(f"bucket size must be positive, got {bucket_s}")
        counts = collections.Counter(
            int(e.time // bucket_s) for e in self.events_of_kind(kind)
        )
        if not counts:
            return []
        return [
            (b * bucket_s, counts[b])
            for b in range(min(counts), max(counts) + 1)
        ]
