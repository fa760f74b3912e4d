"""Message transport: named channels between nodes.

Models the paper's TLI mesh — every process pair is connected by an
ordered, reliable byte stream.  Here each (node, channel-name) pair owns
a :class:`Mailbox`; ``send`` moves a message across the
:class:`~repro.cluster.network.Network` and deposits it in the
destination mailbox, preserving per-sender ordering because each
sender's egress NIC serialises its transmissions.

Mailboxes are unbounded, as the paper's TLI endpoints buffer in kernel
memory, so a send never waits on its receiver.  Every mailbox keeps
delivery/depth/occupancy statistics (:meth:`Transport.stats`), counted
in its ``put``/``get`` around the plain :class:`~repro.sim.store.Store`
FIFO.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.errors import NetworkError
from repro.cluster.network import Message, Network
from repro.sim.events import Event
from repro.sim.process import Process
from repro.sim.store import Store

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Environment

__all__ = ["Mailbox", "Transport"]


class Mailbox(Store):
    """A mailbox store that accounts for its own traffic.

    Tracks total deliveries, the peak queue depth and the time-weighted
    mean depth (*occupancy*) — the queueing picture the flat counters of
    ``NetworkStats`` can't show.
    """

    def __init__(
        self, env: "Environment", node_id: int = -1, channel: str = ""
    ) -> None:
        super().__init__(env)
        self.node_id = node_id
        self.channel = channel
        self.delivered = 0
        self.peak_depth = 0
        self._t0 = env.now
        self._last_t = env.now
        self._depth_area = 0.0

    # Occupancy accounting only: same-instant _advance calls fold a
    # zero-width (now - last_t == 0) area term, so the sum is identical
    # in any order.
    def _advance(self) -> None:
        now = self.env.now
        self._depth_area += len(self.items) * (now - self._last_t)
        self._last_t = now

    def put(self, item: object) -> Event:
        # A hand-off to a waiting receiver counts depth 1 at its instant.
        self._advance()
        self.delivered += 1
        self.peak_depth = max(self.peak_depth, len(self.items) + 1)
        return super().put(item)

    def get(self) -> Event:
        self._advance()
        return super().get()

    def occupancy(self) -> float:
        """Time-weighted mean queue depth since creation."""
        self._advance()
        elapsed = self._last_t - self._t0
        return self._depth_area / elapsed if elapsed > 0 else 0.0

    def stats(self) -> dict:
        return {
            "delivered": self.delivered,
            "depth": len(self.items),
            "peak_depth": self.peak_depth,
            # Always 0 (no put ever waits): kept only because the
            # benchmark's layer table reads it; ROADMAP item 1 drops both.
            "blocked_puts": 0,
            "occupancy": self.occupancy(),
        }


# Transport's only mutation is the lazy mailbox create in mailbox():
# guarded by a key-present check, so concurrent same-instant callers for
# a new key leave the identical state (one fresh empty Mailbox) in
# either order.
class Transport:
    """Channel-addressed messaging on top of :class:`Network`."""

    def __init__(self, network: Network) -> None:
        self.network = network
        self.env = network.env
        self._mailboxes: dict[tuple[int, str], Mailbox] = {}

    def mailbox(self, node_id: int, channel: str) -> Mailbox:
        """The mailbox for ``channel`` on ``node_id`` (created on demand)."""
        key = (node_id, channel)
        if key not in self._mailboxes:
            if node_id not in self.network.node_ids:
                raise NetworkError(f"unknown node {node_id}")
            self._mailboxes[key] = Mailbox(self.env, node_id, channel)
        return self._mailboxes[key]

    def send(
        self,
        src: int,
        dst: int,
        channel: str,
        payload: object,
        size_bytes: int,
    ) -> Generator:
        """Process generator: transfer and deliver one message.

        Completes once the message sits in the destination mailbox. Yield
        it from a process for synchronous sends, or wrap it with
        :meth:`post` for fire-and-forget.
        """
        msg = Message(src=src, dst=dst, channel=channel, payload=payload, size_bytes=size_bytes)
        yield from self.network.transfer(msg)
        yield self.mailbox(dst, channel).put(msg)
        return msg

    def post(
        self,
        src: int,
        dst: int,
        channel: str,
        payload: object,
        size_bytes: int,
    ) -> Process:
        """Fire-and-forget send: runs as its own process.

        The sender still competes for its egress NIC, so back-to-back
        posts from one node serialise realistically.
        """
        return self.env.process(self.send(src, dst, channel, payload, size_bytes))

    def recv(self, node_id: int, channel: str) -> Event:
        """Event yielding the next :class:`Message` on the channel."""
        return self.mailbox(node_id, channel).get()

    def stats(self) -> "dict[str, dict]":
        """Per-mailbox delivery/depth/occupancy statistics, keyed
        ``"<node>:<channel>"`` in creation order."""
        return {
            f"{node_id}:{channel}": mbox.stats()
            for (node_id, channel), mbox in self._mailboxes.items()
        }
