"""Swap-destination selection among memory-available nodes.

The paper's policy is implicit ("another node is chosen as a swapping
destination"); we default to most-free-memory-first, which follows
directly from the availability table the monitors maintain, and provide
a competitor set for head-to-head comparison under churning availability
(the ``churn`` sweep):

* ``most-available`` — the historical default: raw last-reported bytes.
* ``round-robin`` — spread lines evenly across qualifying nodes.
* ``predictive`` — exponential smoothing over each node's
  :class:`~repro.core.monitor.AvailabilityInfo` broadcast history, with
  staleness decay, so one optimistic stale report does not keep
  attracting traffic.
* ``migrate-ahead`` — predictive choice plus proactive evacuation: when
  a node's smoothed availability trajectory predicts shortage within the
  horizon, its lines are migrated off *before* the shortage broadcast
  arrives, through :meth:`RemoteMemoryPager.migrate_from`.

Every policy is deterministic (ties break toward the lower node id) and
emits one ``placement`` event per successful choice.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Iterable, Optional

from repro.core.monitor import MonitorClient
from repro.errors import NoMemoryAvailable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.remote_pager import RemoteMemoryPager
    from repro.obs.events import EventBus

__all__ = [
    "PlacementPolicy",
    "MostAvailableFirst",
    "RoundRobinPlacement",
    "PredictivePlacement",
    "MigrateAheadPlacement",
    "make_placement",
]

#: Weight of the newest broadcast in predictive placement's exponential
#: smoothing ``s <- alpha * reported + (1 - alpha) * s``.
SMOOTHING_ALPHA = 0.5

#: Time constant of the staleness discount ``exp(-age / tau)`` applied
#: to a smoothed estimate whose node has not broadcast since.
STALENESS_TAU_S = 0.5

#: How far ahead migrate-ahead extrapolates a node's availability
#: trajectory when deciding to evacuate it.
HORIZON_S = 0.05


class PlacementPolicy(ABC):
    """Chooses which memory-available node receives the next swap-out."""

    name: str = "abstract"

    def __init__(self, bus: "Optional[EventBus]" = None) -> None:
        #: Telemetry event bus — an *instance* attribute (historically a
        #: shared class attribute, which let one run's ``Telemetry.attach``
        #: leak its bus into every other policy instance).  Passed by
        #: :func:`make_placement` or assigned by ``Telemetry.attach``.
        self.bus = bus
        #: The pager this policy serves (set by the builder via
        #: :meth:`attach_pager`); only migrate-ahead uses it.
        self.pager: "Optional[RemoteMemoryPager]" = None

    # Build-time wiring: the builder attaches the pager before the
    # simulation starts, so no concurrent accessor exists yet.
    def attach_pager(self, pager: "RemoteMemoryPager") -> None:
        """Give the policy a handle on its pager's migration machinery."""
        self.pager = pager

    @abstractmethod
    def choose(
        self,
        client: MonitorClient,
        needed_bytes: int,
        exclude: Iterable[int] = (),
    ) -> int:
        """Pick a destination with at least ``needed_bytes`` reported free.

        Raises :class:`NoMemoryAvailable` when no candidate qualifies.
        """

    def _chosen(self, client: MonitorClient, dst: int, needed_bytes: int) -> int:
        if self.bus is not None:
            self.bus.emit(
                "placement", client.node.node_id,
                dst=dst, needed_bytes=needed_bytes, policy=self.name,
            )
        return dst


def _candidates(client: MonitorClient, needed_bytes: int, exclude: Iterable[int]) -> list[int]:
    banned = set(exclude)
    out = []
    for node_id, info in client.table.items():
        if node_id in banned or info.shortage:
            continue
        if info.available_bytes >= needed_bytes:
            out.append(node_id)
    return out


def _no_candidates(client: MonitorClient, needed_bytes: int) -> NoMemoryAvailable:
    return NoMemoryAvailable(
        f"no memory-available node can hold {needed_bytes} B "
        f"(known: {sorted(client.table)})"
    )


class MostAvailableFirst(PlacementPolicy):
    """Send the line to the node reporting the most free memory."""

    name = "most-available"

    def choose(
        self, client: MonitorClient, needed_bytes: int, exclude: Iterable[int] = ()
    ) -> int:
        cands = _candidates(client, needed_bytes, exclude)
        if not cands:
            raise _no_candidates(client, needed_bytes)
        dst = max(cands, key=lambda n: (client.table[n].available_bytes, -n))
        return self._chosen(client, dst, needed_bytes)


class RoundRobinPlacement(PlacementPolicy):
    """Cycle through qualifying nodes, spreading lines evenly."""

    name = "round-robin"

    def __init__(self, bus: "Optional[EventBus]" = None) -> None:
        super().__init__(bus)
        self._next = 0

    def choose(
        self, client: MonitorClient, needed_bytes: int, exclude: Iterable[int] = ()
    ) -> int:
        cands = sorted(_candidates(client, needed_bytes, exclude))
        if not cands:
            raise _no_candidates(client, needed_bytes)
        choice = cands[self._next % len(cands)]
        self._next += 1
        return self._chosen(client, choice, needed_bytes)


class PredictivePlacement(PlacementPolicy):
    """Exponentially-smoothed availability with staleness decay.

    Each *new* broadcast (tracked by ``seq``) updates a per-node
    smoothed estimate with :data:`SMOOTHING_ALPHA`; at choice time the
    estimate is discounted by ``exp(-(now - ts) / STALENESS_TAU_S)`` so a
    node that has gone quiet stops looking attractive.  Candidates
    are still pre-filtered by the raw table (which carries the pager's
    own local ``adjust_estimate`` corrections), so the smoothing only
    *ranks* feasible destinations.
    """

    name = "predictive"

    def __init__(self, bus: "Optional[EventBus]" = None) -> None:
        super().__init__(bus)
        self._seen_seq: "dict[int, int]" = {}
        #: node -> (broadcast timestamp, smoothed availability).
        self._last: "dict[int, tuple[float, float]]" = {}
        #: node -> the previous (timestamp, smoothed) point, kept for the
        #: trajectory slope migrate-ahead extrapolates.
        self._prev: "dict[int, tuple[float, float]]" = {}

    def _refresh(self, client: MonitorClient) -> None:
        """Fold any broadcasts that arrived since the last choice into
        the smoothed estimates."""
        for node_id, info in client.table.items():
            seen = self._seen_seq.get(node_id)
            if seen is not None and info.seq <= seen:
                continue
            self._seen_seq[node_id] = info.seq
            last = self._last.get(node_id)
            reported = float(info.available_bytes)
            if last is None:
                smoothed = reported
            else:
                self._prev[node_id] = last
                smoothed = (
                    SMOOTHING_ALPHA * reported + (1.0 - SMOOTHING_ALPHA) * last[1]
                )
            self._last[node_id] = (info.timestamp, smoothed)

    def _score(self, node_id: int, now: float) -> float:
        """The discounted smoothed availability of ``node_id``."""
        last = self._last.get(node_id)
        if last is None:
            return 0.0
        ts, smoothed = last
        age = max(0.0, now - ts)
        return smoothed * math.exp(-age / STALENESS_TAU_S)

    def choose(
        self, client: MonitorClient, needed_bytes: int, exclude: Iterable[int] = ()
    ) -> int:
        self._refresh(client)
        cands = _candidates(client, needed_bytes, exclude)
        if not cands:
            raise _no_candidates(client, needed_bytes)
        now = client.node.env.now
        dst = max(cands, key=lambda n: (self._score(n, now), -n))
        return self._chosen(client, dst, needed_bytes)


class MigrateAheadPlacement(PredictivePlacement):
    """Predictive placement that evacuates *before* the shortage lands.

    On every choice the smoothed trajectory of each known node is
    extrapolated :data:`HORIZON_S` ahead; a node predicted to hit zero
    availability is proactively drained through the attached pager's
    migration machinery (one ``migrate-ahead`` event per trigger) and
    avoided as a destination until its trajectory recovers.  Without an
    attached pager (or before two broadcasts exist) it degrades to plain
    predictive placement.
    """

    name = "migrate-ahead"

    def __init__(self, bus: "Optional[EventBus]" = None) -> None:
        super().__init__(bus)
        #: Nodes already evacuated for their current decline (re-armed
        #: when the trajectory turns back up).
        self._evacuated: "set[int]" = set()

    def _predicted(self, node_id: int) -> "Optional[float]":
        """Smoothed availability extrapolated :data:`HORIZON_S` ahead, or
        ``None`` before two broadcasts exist."""
        last = self._last.get(node_id)
        prev = self._prev.get(node_id)
        if last is None or prev is None:
            return None
        t1, s1 = last
        t0, s0 = prev
        if t1 <= t0:
            return None
        slope = (s1 - s0) / (t1 - t0)
        return s1 + slope * HORIZON_S

    def _maybe_evacuate(self, client: MonitorClient) -> None:
        if self.pager is None:
            return
        for node_id in sorted(client.table):
            info = client.table[node_id]
            if info.shortage:
                # The real shortage broadcast already triggered the
                # client's migration handlers; nothing to pre-empt.
                continue
            predicted = self._predicted(node_id)
            if predicted is None:
                continue
            if predicted > 0.0:
                self._evacuated.discard(node_id)
            elif node_id not in self._evacuated:
                self._evacuated.add(node_id)
                if self.bus is not None:
                    self.bus.emit(
                        "migrate-ahead", client.node.node_id,
                        target=node_id, predicted_bytes=predicted,
                    )
                client.node.env.process(self.pager.migrate_from(node_id))

    def choose(
        self, client: MonitorClient, needed_bytes: int, exclude: Iterable[int] = ()
    ) -> int:
        self._refresh(client)
        self._maybe_evacuate(client)
        banned = set(exclude) | self._evacuated
        cands = _candidates(client, needed_bytes, banned)
        if not cands:
            # Evacuation targets are a preference, not a hard exclusion:
            # if nothing else qualifies, fall back to the full set.
            cands = _candidates(client, needed_bytes, exclude)
        if not cands:
            raise _no_candidates(client, needed_bytes)
        now = client.node.env.now
        dst = max(cands, key=lambda n: (self._score(n, now), -n))
        return self._chosen(client, dst, needed_bytes)


#: Policy registry backing :func:`make_placement` (and the config
#: vocabulary in :data:`repro.runtime.config.PLACEMENT_POLICIES`).
_POLICIES: "dict[str, type[PlacementPolicy]]" = {
    MostAvailableFirst.name: MostAvailableFirst,
    RoundRobinPlacement.name: RoundRobinPlacement,
    PredictivePlacement.name: PredictivePlacement,
    MigrateAheadPlacement.name: MigrateAheadPlacement,
}


def make_placement(name: str, bus: "Optional[EventBus]" = None) -> PlacementPolicy:
    """Factory over the policy registry; ``bus`` is the telemetry event
    bus the instance should emit on (``None`` until one attaches)."""
    try:
        cls = _POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown placement policy {name!r}; have {sorted(_POLICIES)}"
        ) from None
    return cls(bus)
