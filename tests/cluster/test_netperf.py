"""The netperf micro-benchmarks: their own behaviour, and each probe held
to the paper's §5.2 measurement (the calibration of the simulated
substrate)."""

import pytest

from repro.cluster.costs import PAPER_COSTS
from repro.cluster.netperf import (
    measure_disk_access_s,
    measure_fan_in_factor,
    measure_rtt_s,
    measure_throughput_bps,
)
from repro.cluster.specs import ATM_155, BARRACUDA_7200, CAVIAR_IDE, DK3E1T_12000


def test_rtt_deterministic():
    assert measure_rtt_s() == measure_rtt_s()


def test_throughput_independent_of_message_count():
    a = measure_throughput_bps(n_messages=20)
    b = measure_throughput_bps(n_messages=100)
    assert a == pytest.approx(b, rel=0.05)


def test_throughput_small_messages_lower():
    # Per-message protocol overhead bites harder on small payloads.
    small = measure_throughput_bps(n_messages=50, message_bytes=512)
    big = measure_throughput_bps(n_messages=50, message_bytes=65536)
    assert small < big


def test_fan_in_single_sender_unity():
    assert measure_fan_in_factor(n_senders=1, n_messages=10) == pytest.approx(1.0)


def test_disk_ordering_matches_specs():
    slow = measure_disk_access_s(CAVIAR_IDE)
    mid = measure_disk_access_s(BARRACUDA_7200)
    fast = measure_disk_access_s(DK3E1T_12000)
    assert slow > mid > fast


def test_disk_access_matches_spec_formula():
    t = measure_disk_access_s(BARRACUDA_7200, io_bytes=4096)
    assert t == pytest.approx(BARRACUDA_7200.access_time_s(4096))


def test_rtt_scales_with_payload():
    small = measure_rtt_s(payload_bytes=64)
    large = measure_rtt_s(payload_bytes=8192)
    assert large > small


def test_throughput_below_raw_line_rate():
    bps = measure_throughput_bps(n_messages=50)
    assert bps < 155e6  # protocol overhead keeps us under ATM line rate
    assert bps > 100e6


def test_fan_in_grows_with_senders():
    two = measure_fan_in_factor(n_senders=2, n_messages=20)
    four = measure_fan_in_factor(n_senders=4, n_messages=20)
    assert 1.5 < two < 2.5
    assert 3.0 < four < 5.0


def test_sequential_disk_access_faster():
    random_t = measure_disk_access_s(BARRACUDA_7200, sequential=False)
    seq_t = measure_disk_access_s(BARRACUDA_7200, sequential=True)
    assert seq_t < 0.1 * random_t


# -- the probes vs. the paper's §5.2 figures --------------------------------
#
# The calibration of the simulated substrate: each probe against the
# paper's published value, with the tolerance EXPERIMENTS.md quotes.


def test_rtt_matches_paper():
    # §5.2: "approximately 0.5 msec"
    assert measure_rtt_s() == pytest.approx(0.5e-3, rel=0.15)


def test_throughput_matches_paper():
    # §5.2: "about 120 Mbps" effective TCP throughput on ATM 155
    assert measure_throughput_bps() == pytest.approx(120e6, rel=0.10)


def test_fan_in_matches_ingress_serialisation():
    # 8 senders into 1 receiver serialise at the ingress NIC (Figure 3's
    # bottleneck mechanism): the aggregate takes ~8x a single pair.
    assert measure_fan_in_factor(n_senders=8) == pytest.approx(8.0, rel=0.05)


def test_barracuda_access_matches_paper():
    # §5.2: "at least 13.0 msec" for the 7200rpm disk
    t = measure_disk_access_s(BARRACUDA_7200)
    assert t == pytest.approx(13.0e-3, rel=0.08)
    assert t >= 13.0e-3  # "at least"


def test_dk3e1t_access_matches_paper():
    # §5.2: "7.5 msec even with the fastest" 12000rpm disk
    t = measure_disk_access_s(DK3E1T_12000)
    assert t == pytest.approx(7.5e-3, rel=0.08)
    assert t >= 7.5e-3


def test_remote_memory_beats_both_disks():
    # The paper's punchline: a ~2.3 ms remote fault vs >=7.5 ms disk.
    fault = PAPER_COSTS.remote_fault_time_s(ATM_155)
    assert fault == pytest.approx(2.33e-3, rel=0.10)
    assert measure_disk_access_s(DK3E1T_12000) / fault > 3
    assert measure_disk_access_s(BARRACUDA_7200) / fault > 5
