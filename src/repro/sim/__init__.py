"""Discrete-event simulation kernel.

A compact, deterministic, SimPy-style kernel that keeps only what the
model runs: an :class:`Environment` drives generator-coroutine
:class:`Process` objects that wait on :class:`Event` and :class:`Timeout`,
hold :class:`Resource` units, exchange items through FIFO :class:`Store`
mailboxes, and meet at :class:`AllOf` / :class:`AnyOf` barriers.  The
simulated ATM cluster (:mod:`repro.cluster`) and the remote-memory system
(:mod:`repro.core`) are built entirely on these primitives.
"""

from repro.errors import EmptySchedule, Interrupt, SimulationError
from repro.sim.engine import Environment
from repro.sim.events import (
    NORMAL,
    PENDING,
    URGENT,
    AllOf,
    AnyOf,
    Condition,
    Event,
    Timeout,
)
from repro.sim.process import Process
from repro.sim.resources import Resource
from repro.sim.store import Store

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Condition",
    "AllOf",
    "AnyOf",
    "Process",
    "Resource",
    "Store",
    "Interrupt",
    "SimulationError",
    "EmptySchedule",
    "PENDING",
    "URGENT",
    "NORMAL",
]
