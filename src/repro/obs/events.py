"""The telemetry event bus.

Every instrumented component publishes :class:`ObsEvent` records through
one :class:`EventBus`; any number of subscribers (the in-memory event
log, the metrics updater, the harness's phase wall clock, ...) receive
each event synchronously.

Emission is cheap when nobody listens: components hold ``bus = None``
until a :class:`~repro.obs.telemetry.Telemetry` attaches, and ``emit``
returns immediately with no subscribers, so uninstrumented runs pay one
attribute check per event site.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

__all__ = [
    "ObsEvent",
    "EventBus",
    "Subscriber",
    "EVENT_KINDS",
    "METRIC_NAMES",
]

#: The canonical telemetry vocabulary: every event kind any component may
#: ``emit``.  The bus itself stays stringly-typed (emission must be cheap
#: and decoupled), so a typo'd kind is not a runtime error — it simply
#: reaches no consumer logic and vanishes from traces.  ``repro-lint``'s
#: RPL301 checker holds every literal ``emit(...)`` site to this set;
#: adding an event kind means declaring it here first.
EVENT_KINDS = frozenset({
    # pager / swap manager (repro.core)
    "fault",            # one pagefault service, with source + duration
    "swap-out",         # one line leaving resident memory
    "swap-cost",        # the transfer/store cost of an eviction
    "make-room",        # an eviction burst freeing space for an insert
    "migration",        # shortage-driven bulk relocation of lines
    # placement / monitors (repro.core)
    "placement",        # a destination chosen for a swapped line
    "placement-reject", # a destination refused (full / no memory)
    "monitor-broadcast",# periodic availability announcement
    "shortage",         # a memory node signalling local pressure
    "shortage-seen",    # an application node learning of a shortage
    "migrate-ahead",    # proactive evacuation of a predicted shortage
    # cluster dynamics (repro.cluster.dynamics)
    "churn-level",      # a background-load trace step applied to a node
    "node-fail",        # a memory node stopped lending mid-pass
    "node-recover",     # a failed memory node resumed lending
    # network (repro.cluster)
    "net-msg",          # one delivered message
    "net-retransmit",   # one lost-and-retransmitted message
    # run structure (repro.obs / drivers)
    "phase",            # point marker at a phase boundary
    "span",             # completed interval on the simulation clock
    # sweep engine (repro.harness.sweep)
    "sweep-start",
    "sweep-run",
    "sweep-done",
    # report service (repro.analysis.report)
    "report-render",    # one markdown/HTML report rendered
    "report-diff",      # one regression-gate comparison completed
})

#: The canonical metric vocabulary: every counter/histogram/gauge name
#: registered on a :class:`~repro.obs.metrics.MetricsRegistry`.  RPL302
#: holds every literal accessor call to this set, for the same reason as
#: :data:`EVENT_KINDS` — an undeclared metric records into a series
#: nothing exports or asserts on.
METRIC_NAMES = frozenset({
    # derived from the event stream (repro.obs.telemetry)
    "pagefaults", "fault_bytes_in", "pagefault_latency_s",
    "swap_outs", "swap_bytes_out", "swap_roundtrip_s",
    "net_messages", "net_wire_bytes", "message_size_bytes",
    "net_retransmissions",
    "migrations", "lines_migrated", "migration_bytes",
    "placements", "placement_rejections",
    "placement_latency_to_shortage_s",
    "migrate_ahead_evacuations",
    "eviction_bursts", "eviction_victims",
    "monitor_available_bytes", "shortages",
    # cluster dynamics (repro.cluster.dynamics)
    "churn_steps", "churn_level_bytes",
    "node_failures", "node_recoveries",
    "span_s",
    "sweep_runs", "sweep_run_wall_s",
    # cache tiers (repro.runtime)
    "scenario_cache_hits", "scenario_cache_misses",
    "result_store_hits", "result_store_misses", "result_store_writes",
    # report service (repro.analysis.report)
    "report_renders", "report_cells", "report_diffs",
})

#: A bus subscriber: any callable accepting one :class:`ObsEvent`.
Subscriber = Callable[["ObsEvent"], None]


@dataclass(frozen=True)
class ObsEvent:
    """One timestamped, structured happening on one node.

    ``fields`` carries every machine-readable value (durations, byte
    counts, line and peer node ids); ``detail`` is the *name* of a
    ``span`` / ``phase`` event (what the phase wall clock, ``repro-trace``
    and the Chrome export key on) and empty on simulation-layer events,
    which never format prose.  ``node_id`` -1 means cluster-wide (phase
    boundaries, spans).  ``run`` distinguishes events from different
    simulation runs sharing one bus (each run's clock restarts at 0).
    """

    time: float
    node_id: int
    kind: str
    detail: str = ""
    run: int = 0
    fields: dict = field(default_factory=dict)


class EventBus:
    """Multi-subscriber synchronous event dispatch.

    The clock is pluggable so one bus can follow several consecutive
    simulation environments (the ``repro-bench --trace`` path runs many
    configurations through one bus, tagging each with a run id).
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self.clock: Callable[[], float] = clock if clock is not None else (lambda: 0.0)
        self.run = 0
        self._subscribers: list[Subscriber] = []

    def subscribe(self, fn: Subscriber) -> Subscriber:
        """Register ``fn`` to receive every subsequent event; returns it
        (handy for later :meth:`unsubscribe`)."""
        self._subscribers.append(fn)
        return fn

    def unsubscribe(self, fn: Subscriber) -> None:
        """Remove a subscriber; unknown subscribers are ignored."""
        try:
            self._subscribers.remove(fn)
        except ValueError:
            pass

    @property
    def n_subscribers(self) -> int:
        return len(self._subscribers)

    def emit(self, kind: str, node_id: int, detail: str = "", **fields) -> None:
        """Publish one event at the current clock time to all subscribers."""
        if not self._subscribers:
            return
        event = ObsEvent(
            time=self.clock(),
            node_id=node_id,
            kind=kind,
            detail=detail,
            run=self.run,
            fields=fields,
        )
        for fn in self._subscribers:
            fn(event)
