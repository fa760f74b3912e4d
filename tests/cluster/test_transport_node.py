"""Tests for Transport channels, Node compute, and the Cluster bundle."""

import pytest

from repro.cluster import Cluster, PAPER_NODE
from repro.cluster.transport import Mailbox
from repro.errors import Interrupt, NetworkError
from repro.sim import Environment


def make_cluster(n=4):
    env = Environment()
    return env, Cluster(env, n)


def test_send_and_recv_roundtrip():
    env, cl = make_cluster()
    got = []

    def sender(env, tr):
        yield from tr.send(0, 1, "data", {"k": 1}, 4096)

    def receiver(env, tr):
        msg = yield tr.recv(1, "data")
        got.append((msg.payload, msg.src, env.now))

    env.process(sender(env, cl.transport))
    env.process(receiver(env, cl.transport))
    env.run()
    assert got[0][0] == {"k": 1}
    assert got[0][1] == 0
    assert got[0][2] > 0


def test_per_sender_ordering_preserved():
    env, cl = make_cluster()
    got = []

    def sender(env, tr):
        for i in range(5):
            yield from tr.send(0, 1, "seq", i, 512)

    def receiver(env, tr):
        for _ in range(5):
            msg = yield tr.recv(1, "seq")
            got.append(msg.payload)

    env.process(sender(env, cl.transport))
    env.process(receiver(env, cl.transport))
    env.run()
    assert got == [0, 1, 2, 3, 4]


def test_post_is_fire_and_forget():
    env, cl = make_cluster()
    times = {}

    def sender(env, tr):
        tr.post(0, 1, "x", "a", 4096)
        times["sender done"] = env.now
        yield env.timeout(0)

    def receiver(env, tr):
        yield tr.recv(1, "x")
        times["received"] = env.now

    env.process(sender(env, cl.transport))
    env.process(receiver(env, cl.transport))
    env.run()
    assert times["sender done"] == 0
    assert times["received"] > 0


def test_channels_are_independent():
    env, cl = make_cluster()
    got = []

    def sender(env, tr):
        yield from tr.send(0, 1, "a", "on-a", 100)
        yield from tr.send(0, 1, "b", "on-b", 100)

    def receiver(env, tr):
        msg_b = yield tr.recv(1, "b")
        msg_a = yield tr.recv(1, "a")
        got.extend([msg_b.payload, msg_a.payload])

    env.process(sender(env, cl.transport))
    env.process(receiver(env, cl.transport))
    env.run()
    assert got == ["on-b", "on-a"]


def test_mailbox_unknown_node_rejected():
    env, cl = make_cluster(2)
    with pytest.raises(NetworkError):
        cl.transport.mailbox(7, "x")


def test_pending_counts_undelivered():
    env, cl = make_cluster()

    def sender(env, tr):
        yield from tr.send(0, 1, "q", 1, 100)
        yield from tr.send(0, 1, "q", 2, 100)

    env.process(sender(env, cl.transport))
    env.run()
    assert len(cl.transport.mailbox(1, "q")) == 2


def test_node_compute_occupies_cpu():
    env, cl = make_cluster(1)
    node = cl[0]
    done = []

    def worker(env, node, name):
        yield from node.compute(2.0)
        done.append((name, env.now))

    env.process(worker(env, node, "a"))
    env.process(worker(env, node, "b"))
    env.run()
    # Two 2 s grants back to back: the CPU was busy exactly 4 s, and is free.
    assert done == [("a", 2.0), ("b", 4.0)]
    assert env.now == 4.0
    assert node.cpu.count == 0 and not node.cpu.queue


def test_node_compute_interrupt_releases_or_cancels():
    """An interrupted holder frees the CPU at that instant; an
    interrupted waiter leaves the queue without ever holding it."""
    env, cl = make_cluster(1)
    node = cl[0]
    done, interrupted = [], []

    def worker(name, seconds):
        try:
            yield from node.compute(seconds)
            done.append((name, env.now))
        except Interrupt:
            interrupted.append((name, env.now))

    holder = env.process(worker("holder", 5.0))
    waiter = env.process(worker("waiter", 1.0))
    env.process(worker("last", 1.0))

    def interrupter():
        yield env.timeout(1.0)
        waiter.interrupt()
        yield env.timeout(1.0)
        holder.interrupt()

    env.process(interrupter())
    env.run()
    assert interrupted == [("waiter", 1.0), ("holder", 2.0)]
    assert done == [("last", 3.0)]
    assert node.cpu.count == 0 and not node.cpu.queue


def test_node_compute_negative_rejected():
    env, cl = make_cluster(1)

    def worker(env, node):
        yield from node.compute(-1.0)

    env.process(worker(env, cl[0]))
    with pytest.raises(ValueError):
        env.run()


def test_cluster_basics():
    env, cl = make_cluster(5)
    assert len(cl) == 5
    assert cl[3].node_id == 3
    assert [n.node_id for n in cl] == [0, 1, 2, 3, 4]
    assert cl[0].spec is PAPER_NODE


def test_cluster_needs_nodes():
    env = Environment()
    with pytest.raises(ValueError):
        Cluster(env, 0)


# -- mailbox statistics -----------------------------------------------------


def test_mailbox_stats_track_delivery_and_depth():
    env = Environment()
    cluster = Cluster(env, 2)

    def producer(env):
        for i in range(5):
            yield from cluster.transport.send(0, 1, "st", i, 64)

    env.process(producer(env))
    env.run()
    stats = cluster.transport.mailbox(1, "st").stats()
    assert stats["delivered"] == 5
    assert stats["depth"] == 5       # nothing consumed yet
    assert stats["peak_depth"] == 5
    assert stats["blocked_puts"] == 0
    assert stats["occupancy"] > 0.0

    def consumer(env):
        for _ in range(5):
            yield cluster.transport.recv(1, "st")

    env.process(consumer(env))
    env.run()
    assert len(cluster.transport.mailbox(1, "st")) == 0
    assert cluster.transport.mailbox(1, "st").stats()["peak_depth"] == 5


def test_mailbox_counts_handoffs_and_admissions():
    """A hand-off to a waiting receiver counts depth 1 at its instant; a
    put with no receiver waiting is admitted to the queue at once, and
    occupancy weighs the queue's depth by time."""
    env = Environment()
    mbox = Mailbox(env)
    receiver = mbox.get()
    mbox.put("a")
    assert receiver.value == "a"
    assert mbox.stats() == {
        "delivered": 1, "depth": 0, "peak_depth": 1, "blocked_puts": 0,
        "occupancy": 0.0,
    }
    assert mbox.put("b").triggered and mbox.put("c").triggered
    env.run(until=2.0)
    assert mbox.get().value == "b"
    assert mbox.stats() == {
        "delivered": 3, "depth": 1, "peak_depth": 2, "blocked_puts": 0,
        "occupancy": 2.0,
    }


def test_unbounded_transport_never_blocks_puts():
    env = Environment()
    cluster = Cluster(env, 2)

    def producer(env):
        for i in range(10):
            yield from cluster.transport.send(0, 1, "ub", i, 64)

    env.process(producer(env))
    env.run()
    assert cluster.transport.mailbox(1, "ub").stats()["blocked_puts"] == 0


def test_transport_stats_keyed_by_node_and_channel():
    env = Environment()
    cluster = Cluster(env, 3)

    def producer(env):
        yield from cluster.transport.send(0, 1, "a", None, 64)
        yield from cluster.transport.send(0, 2, "b", None, 64)

    env.process(producer(env))
    env.run()
    stats = cluster.transport.stats()
    assert set(stats) == {"1:a", "2:b"}
    assert all(s["delivered"] == 1 for s in stats.values())
