"""Tests for the calibrated cost model and its remote-fault closed form."""

from dataclasses import replace

import pytest

from repro.cluster.costs import ITEMSET_BYTES, PAPER_COSTS
from repro.cluster.specs import ATM_155


def test_paper_block_sizes():
    assert PAPER_COSTS.message_block_bytes == 4096  # §5.1
    assert PAPER_COSTS.disk_io_block_bytes == 65536  # §5.1
    assert ITEMSET_BYTES == 24  # §5.1


def test_updates_per_message():
    # 4096 / 24 -> 170 update records per block.
    assert PAPER_COSTS.updates_per_message() == 170
    one = replace(PAPER_COSTS, message_block_bytes=ITEMSET_BYTES)
    assert one.updates_per_message() == 1


def test_replace_is_copy():
    tweaked = replace(PAPER_COSTS, message_block_bytes=1024)
    assert tweaked.message_block_bytes == 1024
    assert PAPER_COSTS.message_block_bytes == 4096
    assert tweaked.remote_fault_service_s == PAPER_COSTS.remote_fault_service_s


def test_predicted_fault_time_matches_table4_band():
    # Paper Table 4: 1.90-2.37 ms depending on the limit; the analytic
    # decomposition (0.5 RTT + ~0.3 transmit + ~1.5 service) sits inside.
    t = PAPER_COSTS.remote_fault_time_s(ATM_155)
    assert 2.0e-3 <= t <= 2.5e-3
    assert repr(t) == "0.0022901333333333333"


def test_fault_time_follows_block_size():
    # The data message is one full block; a bigger block transmits longer.
    big = replace(PAPER_COSTS, message_block_bytes=16384)
    extra = ATM_155.transmit_time_s(16384 + 96) - ATM_155.transmit_time_s(4096 + 96)
    assert big.remote_fault_time_s(ATM_155) == pytest.approx(
        PAPER_COSTS.remote_fault_time_s(ATM_155) + extra, rel=1e-12
    )


def test_decomposition_components():
    # The paper's quoted components: RTT ~0.5 ms, 4 KB transmit ~0.3 ms.
    assert 2 * ATM_155.one_way_latency_s == pytest.approx(0.5e-3)
    assert ATM_155.transmit_time_s(4096 + 96) == pytest.approx(0.28e-3, rel=0.05)
    assert PAPER_COSTS.remote_fault_service_s == pytest.approx(1.5e-3)
