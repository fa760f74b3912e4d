"""Background-load dynamics for memory-available nodes.

The paper's premise is that remote memory *fluctuates*: other workloads
on the lender PCs grow and shrink, and occasionally a node stops lending
altogether (§4.2's shortage + migration story).  Historically the repro
exercised that only through scripted one-shot shortages injected by the
harness.  This module makes availability dynamics a first-class,
pluggable subsystem:

* :func:`parse_trace` turns a compact string spec
  (``"sawtooth:period=0.04,low=0.1,high=0.9"``) into a
  :class:`LoadTrace` — a deterministic, seeded generator of
  ``(hold_s, fraction)`` steps describing how much of a node's memory
  unrelated local processes claim over simulated time.
* :class:`NodeDynamics` runs one trace against one node's
  :class:`~repro.cluster.memory.MemoryLedger` through its
  :class:`~repro.core.monitor.MemoryMonitor`, so the periodic broadcasts
  carry the fluctuating truth and the shortage flag *falls out of the
  trace* (a step at 100 % of capacity signals shortage exactly like the
  paper's "another process claimed the machine"; dropping below clears
  it).
* :class:`ClusterDynamics` owns the per-node trace processes plus
  mid-pass :class:`FailureEvent` node failures with recovery.
* :func:`scripted_shortage` is the degenerate trace: a single step to
  100 % at a fixed time, event-for-event identical to the historical
  harness-side injector, so every scripted-shortage golden stays
  bit-identical.

Every trace is a pure function of ``(spec, seed, node index)`` — the
bursty trace draws its gaps from a seeded ``numpy`` generator — so runs
remain reproducible and store-cacheable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, Iterator, Optional, Tuple

import numpy as np

from repro.errors import ConfigError, Interrupt, MiningError
from repro.sim.process import Process

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.monitor import MemoryMonitor
    from repro.obs.events import EventBus
    from repro.sim.engine import Environment

__all__ = [
    "TRACE_KINDS",
    "LoadTrace",
    "ConstantTrace",
    "SawtoothTrace",
    "BurstyTrace",
    "parse_trace",
    "FailureEvent",
    "NodeDynamics",
    "ClusterDynamics",
    "scripted_shortage",
]

#: Trace kinds :func:`parse_trace` understands (``"none"`` means no trace).
TRACE_KINDS = ("none", "constant", "sawtooth", "bursty")

#: One trace step: hold ``fraction`` of capacity as external pressure for
#: ``hold_s`` simulated seconds (``None`` = forever; the trace ends).
Step = Tuple[Optional[float], float]


class LoadTrace:
    """A deterministic background-load profile for one memory node.

    Subclasses yield :data:`Step` tuples from :meth:`steps`; the
    ``fraction`` of each step is clamped to ``[0, 1]`` at application
    time, so a trace can never drive a ledger negative or past capacity
    (property-tested in ``tests/cluster/test_dynamics.py``).
    """

    kind: str = "abstract"

    def steps(self, rng: np.random.Generator) -> Iterator[Step]:
        """Yield ``(hold_s, fraction)`` steps; ``rng`` is this node's
        seeded generator (only the bursty trace draws from it)."""
        raise NotImplementedError

    def spec(self) -> str:
        """The canonical string spec this trace round-trips to."""
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantTrace(LoadTrace):
    """A fixed background load: one step, held forever."""

    fraction: float = 0.0
    kind: str = "constant"

    def steps(self, rng: np.random.Generator) -> Iterator[Step]:
        yield (None, self.fraction)

    def spec(self) -> str:
        return f"constant:frac={self.fraction:g}"


@dataclass(frozen=True)
class SawtoothTrace(LoadTrace):
    """Load ramps ``low -> high`` over one period, then drops back.

    The ramp is discretised into ``n_steps`` equal holds so the monitor
    broadcasts see a staircase — the classic diurnal-ish profile the
    predictive policies are built to track.

    With ``stagger`` set, each node starts its staircase after a random
    phase offset in ``[0, period)`` drawn from the node's seeded
    generator — decorrelated reclaims, like independent machine owners.
    Without it every node moves in lockstep, so a ``high`` of 1 would
    reclaim the whole cluster at once.
    """

    period_s: float = 0.05
    low: float = 0.0
    high: float = 0.9
    n_steps: int = 8
    stagger: bool = False
    kind: str = "sawtooth"

    def steps(self, rng: np.random.Generator) -> Iterator[Step]:
        hold = self.period_s / self.n_steps
        if self.stagger:
            yield (float(rng.uniform(0.0, self.period_s)), self.low)
        while True:
            for i in range(self.n_steps):
                frac = self.low + (self.high - self.low) * i / (self.n_steps - 1)
                yield (hold, frac)

    def spec(self) -> str:
        return (
            f"sawtooth:period={self.period_s:g},low={self.low:g},"
            f"high={self.high:g},steps={self.n_steps}"
            + (",stagger=1" if self.stagger else "")
        )


@dataclass(frozen=True)
class BurstyTrace(LoadTrace):
    """Idle baseline punctuated by short full-pressure bursts.

    Gaps between bursts are exponential with mean ``gap_s`` drawn from
    the node's seeded generator; each burst holds ``frac`` for
    ``hold_s``.  Deterministic for a fixed ``(seed, node index)``.
    """

    gap_s: float = 0.03
    hold_s: float = 0.01
    frac: float = 0.9
    base: float = 0.0
    kind: str = "bursty"

    def steps(self, rng: np.random.Generator) -> Iterator[Step]:
        while True:
            yield (float(rng.exponential(self.gap_s)), self.base)
            yield (self.hold_s, self.frac)

    def spec(self) -> str:
        return (
            f"bursty:gap={self.gap_s:g},hold={self.hold_s:g},"
            f"frac={self.frac:g},base={self.base:g}"
        )


def _parse_kv(body: str, spec: str) -> "dict[str, float]":
    out: "dict[str, float]" = {}
    for part in body.split(","):
        if not part:
            continue
        key, sep, val = part.partition("=")
        if not sep:
            raise ConfigError(f"bad trace parameter {part!r} in {spec!r}")
        try:
            out[key.strip()] = float(val)
        except ValueError:
            raise ConfigError(
                f"bad trace parameter value {val!r} in {spec!r}"
            ) from None
    return out


def _check_fraction(name: str, value: float, spec: str) -> float:
    if not 0.0 <= value <= 1.0:
        raise ConfigError(f"{name} must be in [0, 1] in trace {spec!r}, got {value}")
    return value


def parse_trace(spec: str) -> "Optional[LoadTrace]":
    """Parse a churn spec string; ``"none"`` returns ``None``.

    Grammar: ``kind`` or ``kind:key=val,key=val``.  Raises
    :class:`~repro.errors.ConfigError` on anything malformed, so
    :func:`repro.runtime.config.validate_config` rejects bad specs at
    construction time.
    """
    if not isinstance(spec, str) or not spec:
        raise ConfigError(f"churn trace spec must be a non-empty string, got {spec!r}")
    kind, _, body = spec.partition(":")
    if kind == "none":
        if body:
            raise ConfigError(f"trace kind 'none' takes no parameters: {spec!r}")
        return None
    if kind == "constant":
        kv = _parse_kv(body, spec)
        unknown = set(kv) - {"frac"}
        if unknown:
            raise ConfigError(f"unknown constant-trace keys {sorted(unknown)}")
        return ConstantTrace(
            fraction=_check_fraction("frac", kv.get("frac", 0.0), spec)
        )
    if kind == "sawtooth":
        kv = _parse_kv(body, spec)
        unknown = set(kv) - {"period", "low", "high", "steps", "stagger"}
        if unknown:
            raise ConfigError(f"unknown sawtooth-trace keys {sorted(unknown)}")
        period = kv.get("period", 0.05)
        if period <= 0:
            raise ConfigError(f"sawtooth period must be positive in {spec!r}")
        n_steps = int(kv.get("steps", 8))
        if n_steps < 2:
            raise ConfigError(f"sawtooth needs >= 2 steps in {spec!r}")
        low = _check_fraction("low", kv.get("low", 0.0), spec)
        high = _check_fraction("high", kv.get("high", 0.9), spec)
        if high < low:
            raise ConfigError(f"sawtooth high < low in {spec!r}")
        return SawtoothTrace(
            period_s=period, low=low, high=high, n_steps=n_steps,
            stagger=bool(kv.get("stagger", 0.0)),
        )
    if kind == "bursty":
        kv = _parse_kv(body, spec)
        unknown = set(kv) - {"gap", "hold", "frac", "base"}
        if unknown:
            raise ConfigError(f"unknown bursty-trace keys {sorted(unknown)}")
        gap = kv.get("gap", 0.03)
        hold = kv.get("hold", 0.01)
        if gap <= 0 or hold <= 0:
            raise ConfigError(f"bursty gap/hold must be positive in {spec!r}")
        return BurstyTrace(
            gap_s=gap,
            hold_s=hold,
            frac=_check_fraction("frac", kv.get("frac", 0.9), spec),
            base=_check_fraction("base", kv.get("base", 0.0), spec),
        )
    raise ConfigError(f"unknown trace kind {kind!r}; have {TRACE_KINDS}")


@dataclass(frozen=True)
class FailureEvent:
    """One mid-pass node failure: at ``at_s`` the node stops lending
    (shortage signal -> guests migrate off), and ``down_s`` later it
    recovers and resumes advertising its memory."""

    at_s: float
    node_index: int
    down_s: float


class NodeDynamics:
    """One background-load trace driving one memory node's ledger."""

    def __init__(
        self,
        monitor: "MemoryMonitor",
        trace: LoadTrace,
        rng: np.random.Generator,
    ) -> None:
        self.monitor = monitor
        self.trace = trace
        self.rng = rng
        self._proc: Optional[Process] = None
        #: Telemetry event bus (wired through :class:`ClusterDynamics`).
        self.bus: "Optional[EventBus]" = None

    def start(self) -> Process:
        self._proc = self.monitor.node.env.process(self._run())
        return self._proc

    def stop(self) -> None:
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt("stop")

    def apply_fraction(self, fraction: float) -> int:
        """Set the node's external pressure to ``fraction`` of capacity.

        The fraction is clamped to ``[0, 1]`` so the ledger can never go
        negative or past capacity.  A full-pressure step signals
        shortage through the monitor (immediate broadcast, migration
        trigger); any lower step clears a standing shortage first.
        Returns the applied level in bytes.
        """
        # Order-independent: a monitor broadcast racing a churn step
        # samples either the pre- or post-step availability; both are
        # valid snapshots of a fluctuating quantity and the next
        # broadcast refreshes every client's view either way.
        monitor = self.monitor
        memory = monitor.node.memory
        frac = min(1.0, max(0.0, fraction))
        level = min(memory.capacity_bytes, int(round(frac * memory.capacity_bytes)))
        if self.bus is not None:
            self.bus.emit(
                "churn-level", monitor.node.node_id,
                level_bytes=level, trace=self.trace.kind,
            )
        if level >= memory.capacity_bytes:
            if not monitor.shortage:
                monitor.signal_shortage()
        else:
            if monitor.shortage:
                monitor.clear_shortage()
            memory.set_external_pressure(level)
        return level

    def _run(self) -> Generator:
        env = self.monitor.node.env
        for hold_s, fraction in self.trace.steps(self.rng):
            self.apply_fraction(fraction)
            if hold_s is None:
                return
            try:
                yield env.timeout(hold_s)
            except Interrupt:
                return


class ClusterDynamics:
    """The availability-dynamics subsystem of one cluster runtime.

    Owns a :class:`NodeDynamics` per memory node (when ``churn`` is not
    ``"none"``) and a process per :class:`FailureEvent`.  With the
    default ``churn="none"`` and no failures it creates **no** simulation
    processes at all, so runs without dynamics stay event-for-event
    identical to the pre-dynamics runtime.
    """

    def __init__(
        self,
        env: "Environment",
        monitors: "dict[int, MemoryMonitor]",
        mem_ids: "list[int]",
        churn: str = "none",
        failures: "tuple[FailureEvent, ...]" = (),
        seed: int = 0,
    ) -> None:
        self.env = env
        self.monitors = monitors
        self.mem_ids = list(mem_ids)
        self.churn = churn
        self.failures = tuple(failures)
        self.seed = seed
        #: Telemetry event bus (wired by ``Telemetry.attach``).
        self.bus: "Optional[EventBus]" = None
        trace = parse_trace(churn)
        #: Per-memory-node trace drivers, in ``mem_ids`` order.  Each
        #: node gets an independent generator seeded from ``(seed,
        #: node_id)`` so bursty traces decorrelate across nodes while
        #: staying reproducible.
        self.node_dynamics: "list[NodeDynamics]" = []
        if trace is not None:
            for node_id in self.mem_ids:
                self.node_dynamics.append(
                    NodeDynamics(
                        monitors[node_id],
                        trace,
                        np.random.default_rng((seed, node_id)),
                    )
                )
        self._procs: "list[Process]" = []

    @property
    def active(self) -> bool:
        """Whether this runtime has any dynamics at all."""
        return bool(self.node_dynamics) or bool(self.failures)

    def start(self) -> None:
        """Launch trace and failure processes (no-op when inactive)."""
        for nd in self.node_dynamics:
            nd.bus = self.bus
            self._procs.append(nd.start())
        for failure in self.failures:
            self._procs.append(self.env.process(self._failure(failure)))

    def stop(self) -> None:
        """Terminate every dynamics process still running."""
        for nd in self.node_dynamics:
            nd.stop()
        for proc in self._procs:
            if proc.is_alive:
                proc.interrupt("stop")
        self._procs.clear()

    def _failure(self, failure: FailureEvent) -> Generator:
        env = self.env
        try:
            yield env.timeout(failure.at_s)
        except Interrupt:
            return
        if not 0 <= failure.node_index < len(self.mem_ids):
            raise MiningError(
                f"failure node index {failure.node_index} out of range "
                f"(have {len(self.mem_ids)} memory nodes)"
            )
        node_id = self.mem_ids[failure.node_index]
        monitor = self.monitors[node_id]
        if self.bus is not None:
            self.bus.emit("node-fail", node_id, down_s=failure.down_s)
        monitor.signal_shortage()
        try:
            yield env.timeout(failure.down_s)
        except Interrupt:
            return
        # clear_shortage emits the "node-recover" event and broadcasts
        # the recovery immediately.
        monitor.clear_shortage()


def scripted_shortage(
    env: "Environment", monitors: "dict[int, MemoryMonitor]", at: float, node_id: int
) -> Generator:
    """The degenerate trace: one step to 100 % pressure at time ``at``.

    This is the paper §5.4 experiment signal — and, deliberately, the
    *exact* event sequence of the historical harness-side shortage
    injector (one timeout, then ``signal_shortage``), so the 12-config
    runtime goldens and the report baselines stay bit-identical.
    """
    yield env.timeout(at)
    if node_id not in monitors:
        raise MiningError(f"node {node_id} is not a memory-available node")
    monitors[node_id].signal_shortage()
