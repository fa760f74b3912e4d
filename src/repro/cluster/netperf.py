"""Micro-benchmarks of the simulated cluster (a tiny netperf).

These measure the *simulation's* primitive characteristics — round-trip
time, streaming throughput, fan-in serialisation, disk access times —
the same quantities the paper reports for the real cluster (§5.2), so
calibration is validated automatically rather than trusted:
``tests/cluster/test_netperf.py`` holds each probe to the paper's value.
"""

from __future__ import annotations


from repro.cluster import Cluster
from repro.cluster.specs import DiskSpec, NodeSpec, PAPER_NODE
from repro.sim import Environment

__all__ = [
    "measure_rtt_s",
    "measure_throughput_bps",
    "measure_fan_in_factor",
    "measure_disk_access_s",
]


def measure_rtt_s(payload_bytes: int = 64, spec: NodeSpec = PAPER_NODE) -> float:
    """Round-trip time of a small message between two idle nodes."""
    env = Environment()
    cluster = Cluster(env, 2, spec=spec)
    result: list[float] = []

    def proc(env):
        start = env.now
        yield from cluster.transport.send(0, 1, "rtt", None, payload_bytes)
        yield from cluster.transport.send(1, 0, "rtt", None, payload_bytes)
        result.append(env.now - start)

    env.process(proc(env))
    env.run()
    return result[0]


def measure_throughput_bps(
    n_messages: int = 200,
    message_bytes: int = 65536,
    spec: NodeSpec = PAPER_NODE,
) -> float:
    """Effective point-to-point streaming throughput (payload bits/s)."""
    env = Environment()
    cluster = Cluster(env, 2, spec=spec)

    def proc(env):
        for _ in range(n_messages):
            yield from cluster.transport.send(0, 1, "bulk", None, message_bytes)

    p = env.process(proc(env))
    env.run(until=p)
    return n_messages * message_bytes * 8 / env.now


def measure_fan_in_factor(
    n_senders: int = 8,
    n_messages: int = 50,
    message_bytes: int = 4096,
    spec: NodeSpec = PAPER_NODE,
) -> float:
    """How much longer ``n_senders``-into-1 takes than a single pair.

    A value near ``n_senders`` demonstrates ingress-NIC serialisation —
    the mechanism behind Figure 3's bottleneck.
    """
    def run(senders: int) -> float:
        env = Environment()
        cluster = Cluster(env, senders + 1, spec=spec)
        dst = senders

        def one(env, src):
            # Pipelined (TCP-like) stream: the sender does not stall on
            # per-message delivery latency, so the wire stays saturated
            # and ingress serialisation is the only limiter.
            posted = [
                cluster.transport.post(src, dst, "fan", None, message_bytes)
                for _ in range(n_messages)
            ]
            yield env.all_of(posted)

        for src in range(senders):
            env.process(one(env, src))
        env.run()
        return env.now

    return run(n_senders) / run(1)


def measure_disk_access_s(
    spec: DiskSpec,
    io_bytes: int = 4096,
    sequential: bool = False,
    samples: int = 16,
) -> float:
    """Mean access time of one I/O on an idle simulated disk."""
    from repro.cluster.disk import Disk

    env = Environment()
    disk = Disk(env, spec)

    def proc(env):
        for _ in range(samples):
            yield from disk.read(io_bytes, sequential=sequential)

    env.process(proc(env))
    env.run()
    return env.now / samples
