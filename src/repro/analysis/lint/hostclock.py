"""RPL101 — host clocks are forbidden outside the harness layer.

The simulated cluster runs on a virtual clock (``env.now``); every result
a driver produces — pass timings, fault latencies, the content-addressed
entries the :class:`~repro.runtime.store.ResultStore` persists — must be a
pure function of the configuration.  A host clock read
(``time.perf_counter()``, ``datetime.now()``, ...) inside the simulation
stack smuggles nondeterministic wall-clock into those results: exactly the
bug this PR evicted from ``repro.mining.hpa``/``npa``, where per-pass
``*_wall_s`` values flowed into cached results.  Only ``repro.harness``
may measure host time, and within the harness only the audited modules
in :data:`HARNESS_HOSTCLOCK_ALLOWLIST` (RPL102 holds the rest of the
harness to that list).  Runtime-layer helpers that need wall-clock
semantics take the timestamp as a parameter instead —
:meth:`~repro.runtime.store.ResultStore.gc` receives ``now`` from its
harness-side caller — so this rule keeps holding below the harness.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.lint.framework import (
    Checker,
    Finding,
    LintContext,
    import_aliases,
    resolve_call,
)

__all__ = ["HARNESS_HOSTCLOCK_ALLOWLIST", "HostClockChecker"]

#: Fully-qualified callables that read the host clock.
HOST_CLOCK_CALLS = frozenset({
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "time.process_time_ns",
    "time.clock_gettime",
    "time.strftime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
})

#: The only package prefix allowed to read host clocks.
_ALLOWED_PREFIX = "repro.harness"

#: The harness-side modules with a *documented* reason to read host
#: clocks.  This used to be a prose scope note in the module docstring
#: above; RPL102 machine-checks it instead, so a host-clock read
#: spreading to a new harness module is a reviewed decision (add the
#: module here, with its reason) rather than silent drift.
HARNESS_HOSTCLOCK_ALLOWLIST = frozenset({
    "repro.harness.cli",           # per-experiment wall time, --store-gc's now
    "repro.harness.wallclock",     # PhaseWallClock, the profiler itself
    "repro.harness.sweep.engine",  # sweep wall-clock accounting
})


class HostClockChecker(Checker):
    """RPL101/RPL102 — host clocks stay in the audited harness modules.

    RPL101 flags any host-clock read outside ``repro.harness``; RPL102
    flags reads inside the harness but outside
    :data:`HARNESS_HOSTCLOCK_ALLOWLIST`.
    """

    code = "RPL101"
    name = "host-clock-in-sim"
    hint = (
        "simulation layers must be pure functions of their config: use "
        "env.now for simulated time, or move the measurement into "
        "repro.harness (e.g. harness.wallclock.PhaseWallClock)"
    )
    _hint_102 = (
        "harness modules reading host clocks are individually audited: "
        "add the module to HARNESS_HOSTCLOCK_ALLOWLIST (with its "
        "reason) or take the timestamp as a parameter"
    )
    codes = (
        ("RPL101", "host-clock-in-sim", hint),
        ("RPL102", "host-clock-off-allowlist", _hint_102),
    )

    def applies_to(self, ctx: LintContext) -> bool:
        return ctx.in_repro

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        in_harness = ctx.module_startswith(_ALLOWED_PREFIX)
        if in_harness and ctx.module in HARNESS_HOSTCLOCK_ALLOWLIST:
            return
        aliases = import_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = resolve_call(node, aliases)
            if target not in HOST_CLOCK_CALLS:
                continue
            if in_harness:
                yield self.finding(
                    ctx,
                    node,
                    f"host clock read {target}() in harness module "
                    f"{ctx.module}, which is not on the audited "
                    f"HARNESS_HOSTCLOCK_ALLOWLIST",
                    code="RPL102",
                    hint=self._hint_102,
                )
            else:
                yield self.finding(
                    ctx,
                    node,
                    f"host clock read {target}() in simulation-layer "
                    f"module {ctx.module} (only repro.harness may "
                    f"measure host wall-clock)",
                )
