"""Declarative run configuration for the cluster runtime.

:class:`RunConfig` is the single description of one simulated-cluster
execution — workload-independent knobs only (node counts, pager choice,
memory limit, policies, cost model).  Both mining drivers consume it
(:class:`~repro.mining.hpa.HPAConfig` and
:class:`~repro.mining.npa.NPAConfig` are thin subclasses kept for their
import paths), and :func:`~repro.runtime.builder.build_runtime` turns it
into a fully-wired :class:`~repro.runtime.builder.ClusterRuntime`.

Every contradictory combination is rejected here, at construction time,
with a :class:`~repro.errors.ConfigError` — never mid-simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cluster.costs import ITEMSET_BYTES, PAPER_COSTS, CostModel
from repro.errors import ConfigError

__all__ = [
    "RunConfig",
    "validate_config",
    "PAGERS",
    "REPLACEMENT_POLICIES",
    "PLACEMENT_POLICIES",
]

#: Valid ``pager`` values: the paper's three §5 mechanisms plus "none".
PAGERS = ("none", "disk", "remote", "remote-update")

#: Valid ``replacement`` values (see :func:`repro.core.policies.make_policy`).
REPLACEMENT_POLICIES = ("lru", "fifo", "random")

#: Valid ``placement`` values (see :func:`repro.core.placement.make_placement`).
PLACEMENT_POLICIES = (
    "most-available",
    "round-robin",
    "predictive",
    "migrate-ahead",
)


@dataclass(frozen=True)
class RunConfig:
    """Configuration of one simulated run (paper §5.1 parameters)."""

    minsup: float = 0.01
    n_app_nodes: int = 8
    n_memory_nodes: int = 0
    total_lines: int = 4096
    memory_limit_bytes: Optional[int] = None
    pager: str = "none"  # none | disk | remote | remote-update
    replacement: str = "lru"
    placement: str = "most-available"
    monitor_interval_s: Optional[float] = None
    max_k: int = 0  # 0 = run to termination
    cost: CostModel = PAPER_COSTS
    seed: int = 0
    #: HPA-ELD skew handling (the method the paper cites for treating
    #: partitioning skew): this fraction of candidates with the highest
    #: estimated frequency is *duplicated* on every node and counted
    #: locally, removing their (dominant) share of the itemset traffic.
    #: 0 disables the variant (plain HPA, the paper's configuration).
    eld_fraction: float = 0.0
    #: Extension beyond the paper: when no memory-available node can
    #: accept an eviction, spill to the local swap disk instead of
    #: failing (the paper assumes lenders always have room).
    disk_fallback: bool = False
    #: UBR cell-loss probability per message attempt (companion-study
    #: extension); lost segments are retransmitted after TCP's RTO.
    loss_probability: float = 0.0
    #: Background-load trace driving every memory node's ledger over
    #: simulated time (see :func:`repro.cluster.dynamics.parse_trace`):
    #: ``"none"`` (default, the static pre-dynamics cluster) or a spec
    #: like ``"sawtooth:period=0.04,low=0.1,high=0.9"``.
    churn: str = "none"
    #: Mid-pass node failures: ``(at_s, memory_node_index, down_s)``
    #: triples — at ``at_s`` the node stops lending (shortage signal,
    #: guests migrate off), ``down_s`` later it recovers.
    failures: tuple = ()

    def __post_init__(self) -> None:
        # Normalise JSON round-trip artefacts (lists -> tuples) before
        # validation so configs hash and compare structurally.
        object.__setattr__(
            self, "failures", tuple(tuple(f) for f in self.failures)
        )
        validate_config(self)


def validate_config(config: RunConfig) -> None:
    """Reject out-of-range values and contradictory combinations.

    Raises :class:`~repro.errors.ConfigError` (a
    :class:`~repro.errors.MiningError` subclass) naming the offending
    field(s).  Called by ``RunConfig.__post_init__`` so an invalid
    configuration can never reach :func:`~repro.runtime.builder.build_runtime`.
    """
    if not 0.0 < config.minsup <= 1.0:
        raise ConfigError(f"minsup must be in (0, 1], got {config.minsup}")
    if not 0.0 <= config.eld_fraction <= 1.0:
        raise ConfigError(
            f"eld_fraction must be in [0, 1], got {config.eld_fraction}"
        )
    if config.n_app_nodes <= 0:
        raise ConfigError("need at least one application node")
    if config.n_memory_nodes < 0:
        raise ConfigError(
            f"n_memory_nodes must be >= 0, got {config.n_memory_nodes}"
        )
    if config.total_lines <= 0:
        raise ConfigError(f"total_lines must be positive, got {config.total_lines}")
    if config.max_k < 0:
        raise ConfigError(f"max_k must be >= 0 (0 = unbounded), got {config.max_k}")
    if config.pager not in PAGERS:
        raise ConfigError(f"unknown pager {config.pager!r}; have {PAGERS}")
    if config.replacement not in REPLACEMENT_POLICIES:
        raise ConfigError(
            f"unknown replacement policy {config.replacement!r}; "
            f"have {REPLACEMENT_POLICIES}"
        )
    if config.placement not in PLACEMENT_POLICIES:
        raise ConfigError(
            f"unknown placement policy {config.placement!r}; "
            f"have {PLACEMENT_POLICIES}"
        )
    if config.pager in ("remote", "remote-update") and config.n_memory_nodes <= 0:
        raise ConfigError(f"pager {config.pager!r} needs memory-available nodes")
    if config.memory_limit_bytes is not None:
        if config.pager == "none":
            raise ConfigError("a memory limit requires a pager")
        if config.memory_limit_bytes <= 0:
            raise ConfigError(
                f"memory_limit_bytes must be positive, "
                f"got {config.memory_limit_bytes}"
            )
    if config.disk_fallback and config.pager not in ("remote", "remote-update"):
        raise ConfigError("disk_fallback applies only to remote pagers")
    if config.cost.message_block_bytes < ITEMSET_BYTES:
        raise ConfigError(f"cost.message_block_bytes must hold one "
                          f"{ITEMSET_BYTES}-byte update record, got "
                          f"{config.cost.message_block_bytes}")
    if not 0.0 <= config.loss_probability < 1.0:
        raise ConfigError(
            f"loss_probability must be in [0, 1), got {config.loss_probability}"
        )
    if config.monitor_interval_s is not None:
        if config.monitor_interval_s <= 0:
            raise ConfigError(
                f"monitor_interval_s must be positive, "
                f"got {config.monitor_interval_s}"
            )
        if config.n_memory_nodes <= 0:
            raise ConfigError(
                "monitor_interval_s configures the availability monitors, "
                "which exist only with memory-available nodes "
                "(n_memory_nodes > 0)"
            )
    # Cluster-dynamics axes: churn trace and failures.
    from repro.cluster.dynamics import parse_trace

    trace = parse_trace(config.churn)  # raises ConfigError on a bad spec
    if trace is not None and config.n_memory_nodes <= 0:
        raise ConfigError(
            "a churn trace drives the memory-available nodes' ledgers; "
            "it needs n_memory_nodes > 0"
        )
    for entry in config.failures:
        if len(entry) != 3:
            raise ConfigError(
                f"each failure is (at_s, memory_node_index, down_s), got {entry!r}"
            )
        at_s, node_index, down_s = entry
        if at_s < 0:
            raise ConfigError(f"failure time must be >= 0, got {at_s}")
        if down_s <= 0:
            raise ConfigError(f"failure down-time must be positive, got {down_s}")
        if not (isinstance(node_index, int) and 0 <= node_index < config.n_memory_nodes):
            raise ConfigError(
                f"failure node index {node_index!r} must address one of "
                f"{config.n_memory_nodes} memory nodes"
            )
