"""Tests for the star-topology ATM network model."""

from collections import Counter

import pytest

from repro.cluster import ATM_155, PROTOCOL_OVERHEAD_BYTES, Message, Network
from repro.errors import NetworkError
from repro.obs import EventBus
from repro.sim import Environment


def make_net(n=4):
    env = Environment()
    net = Network(env)
    for i in range(n):
        net.register(i)
    return env, net


def record_flows(env, net):
    """Subscribe to ``net``'s ``net-msg`` events; returns per-(src, dst)
    message counts and payload bytes, filled in as messages land."""
    messages, payload = Counter(), Counter()

    def on_event(ev):
        if ev.kind == "net-msg":
            flow = (ev.node_id, ev.fields["dst"])
            messages[flow] += 1
            payload[flow] += ev.fields["size_bytes"]

    net.bus = EventBus(clock=lambda: env.now)
    net.bus.subscribe(on_event)
    return messages, payload


def send(env, net, src, dst, size):
    msg = Message(src=src, dst=dst, channel="t", payload=None, size_bytes=size)

    def proc(env, net, msg):
        yield from net.transfer(msg)
        return msg

    return env.process(proc(env, net, msg))


def expected_time(size):
    return ATM_155.transmit_time_s(size + PROTOCOL_OVERHEAD_BYTES) + ATM_155.one_way_latency_s


def test_single_transfer_timing():
    env, net = make_net()
    p = send(env, net, 0, 1, 4096)
    env.run()
    assert env.now == pytest.approx(expected_time(4096))
    msg = p.value
    assert msg.send_time == 0.0
    assert msg.deliver_time == pytest.approx(env.now)


def test_deliver_after_send_causality():
    env, net = make_net()
    p = send(env, net, 0, 1, 100)
    env.run()
    msg = p.value
    assert msg.deliver_time >= msg.send_time + ATM_155.one_way_latency_s


def test_sender_egress_serialises():
    env, net = make_net()
    send(env, net, 0, 1, 4096)
    send(env, net, 0, 2, 4096)
    env.run()
    tx = ATM_155.transmit_time_s(4096 + PROTOCOL_OVERHEAD_BYTES)
    # Two sends from the same node must not overlap on the egress NIC.
    assert env.now == pytest.approx(2 * tx + ATM_155.one_way_latency_s)


def test_receiver_ingress_is_bottleneck():
    env, net = make_net(n=9)
    # Eight senders converge on node 8: deliveries serialise.
    for i in range(8):
        send(env, net, i, 8, 4096)
    env.run()
    tx = ATM_155.transmit_time_s(4096 + PROTOCOL_OVERHEAD_BYTES)
    assert env.now == pytest.approx(8 * tx + ATM_155.one_way_latency_s)


def test_disjoint_pairs_fully_parallel():
    env, net = make_net()
    send(env, net, 0, 1, 4096)
    send(env, net, 2, 3, 4096)
    env.run()
    assert env.now == pytest.approx(expected_time(4096))


def test_unknown_node_rejected():
    env, net = make_net(2)
    with pytest.raises(NetworkError):
        p = send(env, net, 0, 99, 10)
        env.run()


def test_self_send_rejected():
    env, net = make_net()
    p = send(env, net, 1, 1, 10)
    with pytest.raises(NetworkError):
        env.run()


def test_negative_size_rejected():
    env, net = make_net()
    p = send(env, net, 0, 1, -10)
    with pytest.raises(NetworkError):
        env.run()


def test_stats_accumulate():
    env, net = make_net()
    messages, _ = record_flows(env, net)
    send(env, net, 0, 1, 1000)
    send(env, net, 1, 2, 2000)
    env.run()
    assert net.stats.messages == 2
    assert net.stats.payload_bytes == 3000
    assert net.stats.wire_bytes == 3000 + 2 * PROTOCOL_OVERHEAD_BYTES
    # One message per flow: node 0 and 1 sent one each, 1 and 2 received one.
    assert messages == {(0, 1): 1, (1, 2): 1}


def test_register_idempotent():
    env, net = make_net(2)
    net.register(0)
    assert net.node_ids == [0, 1]


def test_bytes_conserved_per_flow():
    env, net = make_net()
    messages, payload = record_flows(env, net)
    sizes = [128, 256, 4096, 64]
    for s in sizes:
        send(env, net, 0, 1, s)
    env.run()
    assert net.stats.payload_bytes == sum(sizes)
    assert messages == {(0, 1): len(sizes)}
    assert payload == {(0, 1): sum(sizes)}
