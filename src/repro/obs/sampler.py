"""Periodic utilisation sampling for simulation runs.

The paper's companion work analyses "several characteristics such as CPU
usage and network performance of the cluster during the execution of
HPA".  Discrete happenings — pagefaults, swap-outs, migrations, phase
boundaries — are events on the telemetry bus
(:attr:`repro.obs.telemetry.Telemetry.events`); :class:`UtilizationSampler`
is the complementary time series: a simulated process that periodically
snapshots resource usage, suitable for the kind of utilisation plots
that companion paper shows.
``MiningDriver.enable_telemetry(sample_interval_s=...)`` attaches one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, Optional

from repro.errors import Interrupt

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster import Cluster
    from repro.sim.process import Process

__all__ = ["UtilizationSample", "UtilizationSampler"]


@dataclass(frozen=True)
class UtilizationSample:
    """One periodic snapshot of cluster-wide resource usage."""

    time: float
    cpu_busy_s: tuple[float, ...]  # cumulative per node
    memory_used: tuple[int, ...]  # bytes per node
    network_messages: int  # cumulative
    network_payload_bytes: int  # cumulative

    def cpu_utilisation_since(self, prev: "UtilizationSample") -> list[float]:
        """Per-node CPU busy fraction over the interval since ``prev``."""
        dt = self.time - prev.time
        if dt <= 0:
            return [0.0] * len(self.cpu_busy_s)
        return [
            min(1.0, (now - before) / dt)
            for now, before in zip(self.cpu_busy_s, prev.cpu_busy_s)
        ]


class UtilizationSampler:
    """Simulated process sampling the cluster every ``interval_s``."""

    def __init__(self, cluster: "Cluster", interval_s: float = 0.1) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval must be positive, got {interval_s}")
        self.cluster = cluster
        self.interval_s = interval_s
        self.samples: list[UtilizationSample] = []
        self._proc: Optional["Process"] = None

    def start(self) -> "Process":
        """Begin sampling; returns the sampler process."""
        self._proc = self.cluster.env.process(self._run())
        return self._proc

    def stop(self) -> None:
        """Stop sampling, taking one final snapshot at the stop time.

        Without the closing sample the series would end at the last
        periodic tick, silently dropping up to ``interval_s`` of the run
        (including everything after the final pass's counting phase).
        """
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt("stop")
        if not self.samples or self.samples[-1].time < self.cluster.env.now:
            self.snapshot()

    def snapshot(self) -> UtilizationSample:
        """Take one sample immediately (also used by the loop)."""
        sample = UtilizationSample(
            time=self.cluster.env.now,
            cpu_busy_s=tuple(n.stats.cpu_busy_s for n in self.cluster),
            memory_used=tuple(n.memory.used_bytes for n in self.cluster),
            network_messages=self.cluster.network.stats.messages,
            network_payload_bytes=self.cluster.network.stats.payload_bytes,
        )
        self.samples.append(sample)
        return sample

    def _run(self) -> Generator:
        env = self.cluster.env
        while True:
            self.snapshot()
            try:
                yield env.timeout(self.interval_s)
            except Interrupt:
                return

    def cpu_series(self, node_id: int) -> list[tuple[float, float]]:
        """(time, busy fraction) series for one node."""
        out = []
        for prev, now in zip(self.samples, self.samples[1:]):
            out.append((now.time, now.cpu_utilisation_since(prev)[node_id]))
        return out

    def throughput_series(self) -> list[tuple[float, float]]:
        """(time, payload bytes/s) series for the whole network."""
        out = []
        for prev, now in zip(self.samples, self.samples[1:]):
            dt = now.time - prev.time
            if dt > 0:
                rate = (now.network_payload_bytes - prev.network_payload_bytes) / dt
                out.append((now.time, rate))
        return out
