"""Metrics as a fold over the event log: counters, gauges, histograms.

A run records one thing, its event list.  :func:`metrics_of` derives the
``metrics.json`` payload from that list in one pass, when a trace is
exported or a caller asks; nothing is folded while the simulation runs.
Series are keyed by name plus free-form labels (``node=3``,
``channel="count"``), so per-node and per-component series fall out of
one pass.  A histogram is built once from its finished sample list: it
keeps fixed bucket counts (for ASCII rendering) and the sorted samples
(for exact quantiles — runs are small enough that this is the simpler,
more honest choice).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Optional

from repro.errors import HarnessError
from repro.obs.events import METRIC_NAMES, ObsEvent

__all__ = [
    "Histogram",
    "LATENCY_BUCKETS_S",
    "SIZE_BUCKETS_B",
    "merged_histogram",
    "metrics_of",
]

#: Default buckets for latency histograms (seconds): spans the paper's
#: measured range — ~2.3 ms remote faults, 7.5-13 ms disk faults, RTO
#: stalls in the loss ablation.
LATENCY_BUCKETS_S = (
    0.0005, 0.001, 0.002, 0.003, 0.005, 0.01, 0.02, 0.05, 0.1, 0.5,
)

#: Default buckets for message-size histograms (bytes): centred on the
#: paper's 4 KB message block.
SIZE_BUCKETS_B = (64, 256, 1024, 4096, 16384, 65536)

#: Buckets for phase spans and sweep cells (seconds).
_SPAN_BUCKETS_S = (0.01, 0.1, 1.0, 10.0, 100.0, 1000.0)


class Histogram:
    """Fixed-bucket histogram of a finished sample list, with exact
    quantiles.

    ``buckets`` are upper bounds; one implicit overflow bucket catches
    everything above the last bound.  ``sum`` is accumulated in the
    order the samples were given; :meth:`percentile` interpolates
    linearly between order statistics, the same convention as
    ``numpy.percentile``.
    """

    def __init__(
        self, samples: Iterable[float], buckets: Iterable[float] = LATENCY_BUCKETS_S
    ) -> None:
        self.buckets: tuple[float, ...] = tuple(sorted(buckets))
        if not self.buckets:
            raise HarnessError("histogram needs at least one bucket bound")
        self.bucket_counts: list[int] = [0] * (len(self.buckets) + 1)
        self.sum: float = 0.0
        samples = list(samples)
        for value in samples:
            self.bucket_counts[bisect_left(self.buckets, value)] += 1
            self.sum += value
        self._samples = sorted(samples)

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    @property
    def min(self) -> float:
        return self._samples[0] if self._samples else 0.0

    @property
    def max(self) -> float:
        return self._samples[-1] if self._samples else 0.0

    def percentile(self, p: float) -> float:
        """Exact p-th percentile (0 <= p <= 100) of the samples."""
        if not 0 <= p <= 100:
            raise HarnessError(f"percentile must be in [0, 100], got {p}")
        if not self._samples:
            return 0.0
        idx = (len(self._samples) - 1) * p / 100.0
        lo = int(idx)
        hi = min(lo + 1, len(self._samples) - 1)
        frac = idx - lo
        return self._samples[lo] * (1 - frac) + self._samples[hi] * frac

    def to_dict(self) -> dict:
        return {
            "buckets": list(self.buckets),
            "bucket_counts": list(self.bucket_counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "percentiles": {
                "p50": self.percentile(50),
                "p90": self.percentile(90),
                "p99": self.percentile(99),
            },
        }


#: One series' key: its name and its sorted label items.
_Key = tuple[str, tuple]


def _key(name: str, labels: dict) -> _Key:
    """The series key of ``name``; a name outside
    :data:`~repro.obs.events.METRIC_NAMES` raises."""
    if name not in METRIC_NAMES:
        raise HarnessError(
            f"metric name {name!r} is not declared in repro.obs.events.METRIC_NAMES"
        )
    return name, tuple(sorted(labels.items()))


def _fold(events: Iterable[ObsEvent]) -> tuple[dict, dict, dict]:
    """Every series ``events`` defines, in one pass.

    Returns three dicts keyed by (name, sorted labels): counters to
    ``[labels, value]``, gauges to ``[labels, last value, sets]`` and
    histograms to ``(labels, buckets, samples in emission order)``.
    All state, such as the last placement per ``(run, node)``, lives in
    this call.
    """
    counters: dict[_Key, list] = {}
    gauges: dict[_Key, list] = {}
    histograms: dict[_Key, tuple[dict, tuple, list]] = {}

    def counter(name: str, amount: float = 1, **labels) -> None:
        if amount < 0:
            raise HarnessError(f"counter increment must be >= 0, got {amount}")
        counters.setdefault(_key(name, labels), [labels, 0])[1] += amount

    def gauge(name: str, value: float, **labels) -> None:
        entry = gauges.setdefault(_key(name, labels), [labels, 0, 0])
        entry[1] = value
        entry[2] += 1

    def histogram(name: str, value: float, buckets: tuple, **labels) -> None:
        histograms.setdefault(_key(name, labels), (labels, buckets, []))[2].append(value)

    # Last placement per (run, destination node), for the
    # latency-to-shortage histogram: how long after a policy last routed
    # traffic to a node did that node declare shortage?  A policy that
    # keeps feeding soon-to-be-hot nodes scores short latencies here.
    # Keyed by run too, so a shortage is never measured from a placement
    # on an earlier run's clock.
    last_placement: dict[tuple[int, int], tuple[float, str]] = {}

    for event in events:
        kind, node, f = event.kind, event.node_id, event.fields
        if kind == "fault":
            counter("pagefaults", node=node, source=f.get("source", "?"))
            if "bytes" in f:
                counter("fault_bytes_in", f["bytes"], node=node)
            if "duration_s" in f:
                histogram(
                    "pagefault_latency_s", f["duration_s"], LATENCY_BUCKETS_S,
                    node=node, source=f.get("source", "?"),
                )
        elif kind == "swap-out":
            counter("swap_outs", node=node, source=f.get("source", "?"))
            if "bytes" in f:
                counter("swap_bytes_out", f["bytes"], node=node)
        elif kind == "swap-cost":
            if "duration_s" in f:
                histogram(
                    "swap_roundtrip_s", f["duration_s"], LATENCY_BUCKETS_S,
                    node=node, source=f.get("source", "?"),
                )
        elif kind == "net-msg":
            counter("net_messages", channel=f.get("channel", "?"))
            if "wire_bytes" in f:
                counter("net_wire_bytes", f["wire_bytes"])
            if "size_bytes" in f:
                histogram(
                    "message_size_bytes", f["size_bytes"], SIZE_BUCKETS_B,
                    channel=f.get("channel", "?"),
                )
        elif kind == "net-retransmit":
            counter("net_retransmissions")
        elif kind == "migration":
            counter("migrations", node=node)
            if "lines" in f:
                counter("lines_migrated", f["lines"], node=node)
            if "bytes" in f:
                counter("migration_bytes", f["bytes"], node=node)
        elif kind == "placement":
            if "dst" in f:
                policy = f.get("policy", "?")
                counter("placements", dst=f["dst"], policy=policy)
                last_placement[(event.run, f["dst"])] = (event.time, policy)
        elif kind == "placement-reject":
            counter(
                "placement_rejections", node=node, policy=f.get("policy", "?")
            )
        elif kind == "migrate-ahead":
            counter("migrate_ahead_evacuations", node=node)
        elif kind == "make-room":
            counter("eviction_bursts", node=node)
            if "victims" in f:
                counter("eviction_victims", f["victims"], node=node)
        elif kind == "monitor-broadcast":
            if "available_bytes" in f:
                gauge("monitor_available_bytes", f["available_bytes"], node=node)
        elif kind == "shortage":
            counter("shortages", node=node)
            placed = last_placement.get((event.run, node))
            if placed is not None:
                histogram(
                    "placement_latency_to_shortage_s",
                    max(0.0, event.time - placed[0]), LATENCY_BUCKETS_S,
                    policy=placed[1],
                )
        elif kind == "churn-level":
            counter("churn_steps", node=node)
            if "level_bytes" in f:
                gauge("churn_level_bytes", f["level_bytes"], node=node)
        elif kind == "node-fail":
            counter("node_failures", node=node)
        elif kind == "node-recover":
            counter("node_recoveries", node=node)
        elif kind == "span":
            if "duration_s" in f:
                histogram(
                    "span_s", f["duration_s"], _SPAN_BUCKETS_S, span=event.detail
                )
        elif kind == "sweep-run":
            counter(
                "sweep_runs", sweep=f.get("sweep", "?"), source=f.get("source", "?")
            )
            if "wall_s" in f:
                histogram(
                    "sweep_run_wall_s", f["wall_s"], _SPAN_BUCKETS_S,
                    sweep=f.get("sweep", "?"),
                )
        elif kind == "cache-access":
            tier, outcome = f.get("tier"), f.get("outcome")
            if tier == "scenario" and outcome == "hit":
                counter("scenario_cache_hits")
            elif tier == "scenario" and outcome == "miss":
                counter("scenario_cache_misses")
            elif tier == "store" and outcome == "hit":
                counter("result_store_hits")
            elif tier == "store" and outcome == "miss":
                counter("result_store_misses")
            elif tier == "store" and outcome == "write":
                counter("result_store_writes")
        elif kind == "report-render":
            counter("report_renders", fmt=f.get("fmt", "?"))
            if "n_cells" in f:
                counter("report_cells", f["n_cells"], fmt=f.get("fmt", "?"))
        elif kind == "report-diff":
            counter("report_diffs", verdict=f.get("verdict", "?"))
    return counters, gauges, histograms


def metrics_of(events: Iterable[ObsEvent]) -> dict:
    """The ``metrics.json`` payload of an event list: counters, gauges
    and histograms, each list sorted by (name, labels)."""
    counters, gauges, histograms = _fold(events)
    return {
        "counters": [
            {"name": name, "labels": labels, "value": value}
            for (name, _), (labels, value) in sorted(counters.items())
        ],
        "gauges": [
            {"name": name, "labels": labels, "value": value, "n_sets": n_sets}
            for (name, _), (labels, value, n_sets) in sorted(gauges.items())
        ],
        "histograms": [
            {"name": name, "labels": labels, **Histogram(samples, buckets).to_dict()}
            for (name, _), (labels, buckets, samples) in sorted(histograms.items())
        ],
    }


def merged_histogram(name: str, events: Iterable[ObsEvent]) -> Optional[Histogram]:
    """One histogram folding every label set of ``name`` in ``events``
    together (e.g. cluster-wide pagefault latency from per-node series);
    ``None`` when no event defines it; an undeclared ``name`` raises."""
    _key(name, {})
    parts = [
        (buckets, samples)
        for (series, _), (_, buckets, samples) in sorted(_fold(events)[2].items())
        if series == name
    ]
    if not parts:
        return None
    return Histogram(
        (value for _, samples in parts for value in samples), parts[0][0]
    )
