"""Schedule-race sanitizer for the simulation kernel.

Everything this repro guarantees — the 12-config goldens, the pinned
result hashes, byte-identical distributed sweeps — rests on one invariant
the kernel never checked: events processed at the same scheduling epoch
``(sim_time, priority)`` must not make conflicting accesses to shared
simulation state, or results silently depend on queue insertion order.

This package enforces that invariant in two cooperating layers:

- **dynamic** (:mod:`~repro.analysis.race.tracker`): an opt-in
  instrumentation mode on :class:`repro.sim.engine.Environment` tags
  every callback with its epoch and records per-epoch read/write sets
  of shared objects through the lightweight hooks in
  :mod:`~repro.analysis.race.access`; epoch boundaries report any
  write/write or read/write conflict between causally unordered events;
- **static** (:mod:`repro.analysis.lint.dataflow`): a whole-program
  lint pass that flags shared mutable state reachable from simulation
  processes without an access hook (the RPL6xx family).

``repro-race`` (:mod:`~repro.analysis.race.cli`) runs the dynamic layer
over the golden configuration suite plus the churn/failure scenarios.
Conflicts that are audited and genuinely order-independent are waived
with a ``# repro-race: ordered -- <justification>`` pragma next to the
accessing code (see :mod:`~repro.analysis.race.report`).
"""

from repro.analysis.race.access import AccessTracker, installed, session
from repro.analysis.race.report import Conflict, Endpoint, RaceReport
from repro.analysis.race.tracker import RaceTracker

__all__ = [
    "AccessTracker",
    "Conflict",
    "Endpoint",
    "RaceReport",
    "RaceTracker",
    "installed",
    "session",
]
