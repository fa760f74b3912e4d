"""Calibrated cost model for the simulated experiments.

Every time constant the simulation charges lives here, so calibration is
one place and ablations can perturb a single field.  Defaults are fitted
to the paper's measured quantities:

- point-to-point RTT ~0.5 ms and effective throughput ~120 Mbps (§5.2),
  carried by the network model itself (:data:`repro.cluster.specs.ATM_155`);
- one pagefault over remote memory ≈ 2.2-2.4 ms, decomposed by the paper
  into round trip (0.5 ms) + 4 KB transmit (0.3 ms) + swapping cost at
  the memory-available node (the remainder, ~1.5 ms) — Table 4, in
  closed form as :meth:`CostModel.remote_fault_time_s`;
- disk pagefault ≥ 13 ms on the 7 200 rpm Barracuda (§5.2);
- message block 4 KB, disk I/O block 64 KB (§5.1);
- per-itemset CPU costs sized so that a scaled-down pass 2 without any
  memory limit lands near the paper's 247 s *when multiplied back by the
  workload scale factor* (Pentium Pro 200 MHz-era costs).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.network import PROTOCOL_OVERHEAD_BYTES
from repro.cluster.specs import NicSpec

__all__ = ["CostModel", "PAPER_COSTS", "ITEMSET_BYTES"]

#: Bytes of one candidate itemset record (paper §5.1), in a hash line and
#: in a remote-update message alike.
ITEMSET_BYTES = 24


@dataclass(frozen=True)
class CostModel:
    """Per-operation virtual-time charges (seconds unless stated)."""

    # -- message framing (paper §5.1) -----------------------------------
    #: Size of one communication block.  A swapped hash line always
    #: travels as one full block ("each pagefault data is contained in
    #: one message block"); it must hold at least one update record.
    message_block_bytes: int = 4096
    #: Disk I/O block for scanning the transaction file.
    disk_io_block_bytes: int = 65536
    #: Size of a pagefault *request* (control message).
    fault_request_bytes: int = 64
    #: Size of one availability broadcast from a memory monitor.
    monitor_message_bytes: int = 64

    # -- memory-available node service times ------------------------------
    #: CPU time at a memory-available node to look up and send back one
    #: swapped-out hash line (the "swapping operations cost" the paper
    #: backs out of Table 4: ~1.5 ms).
    remote_fault_service_s: float = 1.5e-3
    #: CPU time at a memory-available node to accept and store one
    #: swapped-out hash line.
    remote_store_service_s: float = 0.3e-3
    #: Fixed CPU time to apply one remote-update message...
    remote_update_service_base_s: float = 0.2e-3
    #: ...plus this much per itemset update inside the message.
    remote_update_service_per_item_s: float = 2e-6

    # -- application node CPU costs ----------------------------------------
    #: Hash + chain-walk + increment for one received itemset.
    cpu_count_per_itemset_s: float = 12e-6
    #: Generate one k-subset from a transaction, hash it, buffer it.
    cpu_generate_per_itemset_s: float = 10e-6
    #: Generate one candidate during apriori-gen (join+prune share).
    cpu_candgen_per_candidate_s: float = 8e-6
    #: Scan one itemset during the large-itemset determination phase.
    cpu_determine_per_itemset_s: float = 1e-6
    #: Protocol-stack CPU cost per message on each side (TCP over ATM on
    #: a Pentium Pro was not free).
    cpu_per_message_s: float = 80e-6

    # -- monitoring (paper §5.1) --------------------------------------------
    #: CPU cost at the monitor to assemble + send one broadcast message.
    monitor_cpu_per_message_s: float = 150e-6

    def updates_per_message(self) -> int:
        """How many update records fit one message block."""
        return self.message_block_bytes // ITEMSET_BYTES

    def remote_fault_time_s(self, nic: NicSpec) -> float:
        """The paper's analytic decomposition of one remote-memory fault:
        round trip + one 4 KB block transmission + holder service time.
        An idle simulated fault adds ``2 * cpu_per_message_s`` to it."""
        rtt = 2 * nic.one_way_latency_s
        request_tx = nic.transmit_time_s(self.fault_request_bytes + PROTOCOL_OVERHEAD_BYTES)
        data_tx = nic.transmit_time_s(self.message_block_bytes + PROTOCOL_OVERHEAD_BYTES)
        return rtt + request_tx + data_tx + self.remote_fault_service_s


#: The default calibration used by all paper-reproduction benchmarks.
PAPER_COSTS = CostModel()
