"""The telemetry runtime: one bus + one registry, wired through a run.

:class:`Telemetry` is what a caller holds: it owns an
:class:`~repro.obs.events.EventBus` and a
:class:`~repro.obs.metrics.MetricsRegistry`, keeps the in-memory event
log, derives standard metrics from the event stream, and wires itself
into any :class:`~repro.runtime.driver.MiningDriver` run by setting the
run's one bus, ``cluster.network.bus``: every component emits through
its node (:meth:`~repro.cluster.node.Node.emit`), which reads it there.

One telemetry object can follow several consecutive runs — each
:meth:`attach` rebinds the bus clock to the new run's environment and
tags subsequent events with a fresh run id, which is how
``repro-bench --trace`` collects a whole experiment sweep into one
trace directory.
"""

from __future__ import annotations

import collections
from typing import Optional

from repro.obs.events import EventBus, ObsEvent
from repro.obs.metrics import (
    LATENCY_BUCKETS_S,
    MetricsRegistry,
    SIZE_BUCKETS_B,
)

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


class _MetricsUpdater:
    """Bus subscriber folding the event stream into standard metrics.

    This is where the scattered one-off stats (``PagerStats``,
    ``NetworkStats``, ...) gain distributional depth: the same events
    that feed those counters also feed per-node latency and size
    histograms here, without the emitting component knowing about the
    registry.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        #: Last placement time per ``(run, destination node)``, for the
        #: latency-to-shortage histogram: how long after a policy last
        #: routed traffic to a node did that node declare shortage?  A
        #: policy that keeps feeding soon-to-be-hot nodes scores short
        #: latencies here.  Keyed by run too, so a shortage is never
        #: measured from a placement on an earlier run's clock.
        self._last_placement: dict[tuple[int, int], float] = {}
        self._placement_policy: dict[tuple[int, int], str] = {}

    def __call__(self, event: ObsEvent) -> None:
        r = self.registry
        kind, node, f = event.kind, event.node_id, event.fields
        if kind == "fault":
            r.counter("pagefaults", node=node, source=f.get("source", "?")).inc()
            if "bytes" in f:
                r.counter("fault_bytes_in", node=node).inc(f["bytes"])
            if "duration_s" in f:
                r.histogram(
                    "pagefault_latency_s", buckets=LATENCY_BUCKETS_S,
                    node=node, source=f.get("source", "?"),
                ).observe(f["duration_s"])
        elif kind == "swap-out":
            r.counter("swap_outs", node=node, source=f.get("source", "?")).inc()
            if "bytes" in f:
                r.counter("swap_bytes_out", node=node).inc(f["bytes"])
        elif kind == "swap-cost":
            if "duration_s" in f:
                r.histogram(
                    "swap_roundtrip_s", buckets=LATENCY_BUCKETS_S,
                    node=node, source=f.get("source", "?"),
                ).observe(f["duration_s"])
        elif kind == "net-msg":
            r.counter("net_messages", channel=f.get("channel", "?")).inc()
            if "wire_bytes" in f:
                r.counter("net_wire_bytes").inc(f["wire_bytes"])
            if "size_bytes" in f:
                r.histogram(
                    "message_size_bytes", buckets=SIZE_BUCKETS_B,
                    channel=f.get("channel", "?"),
                ).observe(f["size_bytes"])
        elif kind == "net-retransmit":
            r.counter("net_retransmissions").inc()
        elif kind == "migration":
            r.counter("migrations", node=node).inc()
            if "lines" in f:
                r.counter("lines_migrated", node=node).inc(f["lines"])
            if "bytes" in f:
                r.counter("migration_bytes", node=node).inc(f["bytes"])
        elif kind == "placement":
            if "dst" in f:
                r.counter(
                    "placements", dst=f["dst"], policy=f.get("policy", "?")
                ).inc()
                key = (event.run, f["dst"])
                self._last_placement[key] = event.time
                self._placement_policy[key] = f.get("policy", "?")
        elif kind == "placement-reject":
            r.counter(
                "placement_rejections", node=node, policy=f.get("policy", "?")
            ).inc()
        elif kind == "migrate-ahead":
            r.counter("migrate_ahead_evacuations", node=node).inc()
        elif kind == "make-room":
            r.counter("eviction_bursts", node=node).inc()
            if "victims" in f:
                r.counter("eviction_victims", node=node).inc(f["victims"])
        elif kind == "monitor-broadcast":
            if "available_bytes" in f:
                r.gauge("monitor_available_bytes", node=node).set(
                    f["available_bytes"]
                )
        elif kind == "shortage":
            r.counter("shortages", node=node).inc()
            key = (event.run, node)
            placed_at = self._last_placement.get(key)
            if placed_at is not None:
                r.histogram(
                    "placement_latency_to_shortage_s",
                    buckets=LATENCY_BUCKETS_S,
                    policy=self._placement_policy[key],
                ).observe(max(0.0, event.time - placed_at))
        elif kind == "churn-level":
            r.counter("churn_steps", node=node).inc()
            if "level_bytes" in f:
                r.gauge("churn_level_bytes", node=node).set(f["level_bytes"])
        elif kind == "node-fail":
            r.counter("node_failures", node=node).inc()
        elif kind == "node-recover":
            r.counter("node_recoveries", node=node).inc()
        elif kind == "span":
            if "duration_s" in f:
                r.histogram(
                    "span_s", buckets=(0.01, 0.1, 1.0, 10.0, 100.0, 1000.0),
                    span=event.detail,
                ).observe(f["duration_s"])
        elif kind == "sweep-run":
            r.counter(
                "sweep_runs",
                sweep=f.get("sweep", "?"), source=f.get("source", "?"),
            ).inc()
            if "wall_s" in f:
                r.histogram(
                    "sweep_run_wall_s",
                    buckets=(0.01, 0.1, 1.0, 10.0, 100.0, 1000.0),
                    sweep=f.get("sweep", "?"),
                ).observe(f["wall_s"])
        elif kind == "report-render":
            r.counter("report_renders", fmt=f.get("fmt", "?")).inc()
            if "n_cells" in f:
                r.counter("report_cells", fmt=f.get("fmt", "?")).inc(
                    f["n_cells"]
                )
        elif kind == "report-diff":
            r.counter("report_diffs", verdict=f.get("verdict", "?")).inc()


class Telemetry:
    """Bus + registry + event log + per-run manifests, in one handle."""

    def __init__(self) -> None:
        self.bus = EventBus()
        self.registry = MetricsRegistry()
        self.events: list[ObsEvent] = []
        #: One dict per attached run: configuration meta plus whatever
        #: the driver reports at completion (see :meth:`end_run`).
        self.runs: list[dict] = []
        self.bus.subscribe(self.events.append)
        self.bus.subscribe(_MetricsUpdater(self.registry))

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
        into the current run's manifest entry."""
        if self.runs:
            self.runs[-1].update(extra)

    # -- phase / span marks -------------------------------------------------

    def phase_mark(self, name: str, node_id: int = -1) -> None:
        """Point event marking a phase boundary; ``name`` is the
        event's ``detail``."""
        self.bus.emit("phase", node_id, name)

    def span(self, name: str, start: float, end: float, node_id: int = -1) -> None:
        """Record a completed interval on the simulation clock."""
        self.bus.emit(
            "span", node_id, name, start=start, end=end, duration_s=end - start
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
