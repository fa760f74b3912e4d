"""Result types shared by every mining driver on the cluster runtime.

One run produces a :class:`RunResult` — the mined large itemsets plus a
:class:`PassResult` per Apriori pass.  The mined itemsets (with exact
support counts) are invariant under every pager/limit configuration;
only the virtual clock and the pagefault/message statistics differ.
That invariance is what the integration tests pin against sequential
Apriori, and what the golden-value runtime-equivalence test pins across
refactors.

The historical name ``HPAResult`` remains importable from
:mod:`repro.mining.hpa` as an alias.

Every field here is simulated state: results are pure functions of the
configuration, which is what lets the
:class:`~repro.runtime.store.ResultStore` address them by content.  Host
wall-clock is measured outside the drivers entirely, by subscribing a
:class:`~repro.harness.wallclock.PhaseWallClock` to the telemetry bus —
it must never appear in these dataclasses (``repro-lint`` RPL101 guards
the drivers themselves).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.runtime.config import RunConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mining.itemsets import Itemset

__all__ = ["PassResult", "RunResult"]


@dataclass
class PassResult:
    """Per-pass outcome and timing (one row of Table 2 plus phase times)."""

    k: int
    n_candidates: int
    per_node_candidates: list[int]
    n_large: int
    start_time: float
    end_time: float
    candgen_time_s: float = 0.0
    counting_time_s: float = 0.0
    determine_time_s: float = 0.0
    faults_per_node: list[int] = field(default_factory=list)
    swap_outs_per_node: list[int] = field(default_factory=list)
    update_msgs_per_node: list[int] = field(default_factory=list)
    fault_time_per_node: list[float] = field(default_factory=list)
    n_duplicated: int = 0
    count_messages: int = 0

    @property
    def duration_s(self) -> float:
        """Total virtual time of this pass."""
        return self.end_time - self.start_time

    @property
    def max_faults(self) -> int:
        """Pagefaults at the busiest node (Table 4's ``Max`` column)."""
        return max(self.faults_per_node, default=0)


@dataclass
class RunResult:
    """Outcome of a full mining run on the simulated cluster."""

    config: RunConfig
    large_itemsets: "dict[Itemset, int]"
    passes: list[PassResult]
    total_time_s: float

    def pass_result(self, k: int) -> PassResult:
        """The result row for pass ``k``."""
        for p in self.passes:
            if p.k == k:
                return p
        raise KeyError(f"no pass {k} in this run")

    def table2_rows(self) -> list[tuple[int, Optional[int], int]]:
        """(pass, C_k, L_k) rows in the paper's Table 2 format."""
        return [
            (p.k, None if p.k == 1 else p.n_candidates, p.n_large)
            for p in self.passes
        ]

    def summary(self) -> str:
        """Multi-line human-readable run summary."""
        cfg = self.config
        lines = [
            f"HPA run: {cfg.n_app_nodes} app nodes, "
            f"{cfg.n_memory_nodes} memory nodes, pager={cfg.pager}, "
            f"limit={cfg.memory_limit_bytes or 'none'}",
            f"large itemsets: {len(self.large_itemsets)}; "
            f"total virtual time: {self.total_time_s:.3f}s",
        ]
        for p in self.passes:
            extra = ""
            if p.k >= 2:
                extra = (
                    f"  [{p.duration_s:.3f}s"
                    f", faults<=n:{p.max_faults}"
                    f", swaps<=n:{max(p.swap_outs_per_node, default=0)}"
                    f", msgs:{p.count_messages}]"
                )
            cand = "-" if p.k == 1 else str(p.n_candidates)
            lines.append(f"  pass {p.k}: C={cand} L={p.n_large}{extra}")
        return "\n".join(lines)
