"""The ``repro-lint`` rules: each guards an invariant that neither a
generic linter nor a tier-1 run reliably sees.

- **RPL101/RPL102** — host clocks stay in the audited harness modules.
  Every result a driver produces must be a pure function of its config,
  on the virtual clock (``env.now``).  RPL101 flags a host-clock read
  outside ``repro.harness``; RPL102 flags one inside the harness but off
  :data:`HARNESS_HOSTCLOCK_ALLOWLIST`, so a clock read spreading to a new
  harness module is a reviewed decision.  Helpers below the harness take
  the timestamp as a parameter (``ResultStore.gc`` receives ``now``).
- **RPL202** — no ordering-sensitive iteration over unordered sets.  Set
  iteration order varies under ``PYTHONHASHSEED`` for strings and
  tuples; a ``for`` loop over an evident ``set``/``frozenset`` whose body
  yields into the simulation, sends, emits or appends is flagged, and
  ``sorted(...)`` is the fix.  ``tests/integration/test_hash_determinism.py``
  checks the outcome on two sweeps; this rule covers every loop.
- **RPL501** — no float equality in the report/store codec layers, whose
  byte identity rests on floats round-tripping through ``repr``: compare
  with ``math.isclose`` and an explicit tolerance, or compare reprs.
- **RPL601** — the model layers never import ``repro.analysis``: analysis
  reads their results, so what the simulation charges lives model-side.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.lint.framework import (
    Checker,
    Finding,
    LintContext,
    import_aliases,
    resolve_call,
)

__all__ = [
    "ALL_CHECKERS", "HARNESS_HOSTCLOCK_ALLOWLIST", "HOST_CLOCK_CALLS",
    "FloatEqualityChecker", "HostClockChecker", "LayerImportChecker",
    "SetIterationChecker",
]


#: Fully-qualified callables that read the host clock.
HOST_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns", "time.process_time",
    "time.process_time_ns", "time.clock_gettime", "time.strftime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: The harness modules with a documented reason to read host clocks.
HARNESS_HOSTCLOCK_ALLOWLIST = frozenset({
    "repro.harness.cli",           # per-experiment wall time, gc's now
    "repro.harness.wallclock",     # PhaseWallClock, the profiler itself
    "repro.harness.sweep.engine",  # sweep wall-clock accounting
})

_HINT_102 = (
    "harness modules reading host clocks are individually audited: "
    "add the module to HARNESS_HOSTCLOCK_ALLOWLIST (with its reason) "
    "or take the timestamp as a parameter"
)


class HostClockChecker(Checker):
    """Flag host-clock reads outside the allowlisted harness modules."""

    code = "RPL101"
    name = "host-clock-in-sim"
    hint = (
        "simulation layers must be pure functions of their config: use "
        "env.now for simulated time, or move the measurement into "
        "repro.harness (e.g. harness.wallclock.PhaseWallClock)"
    )
    codes = (
        ("RPL101", name, hint),
        ("RPL102", "host-clock-off-allowlist", _HINT_102),
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if ctx.module in HARNESS_HOSTCLOCK_ALLOWLIST:
            return
        in_harness = ctx.module_startswith("repro.harness")
        aliases = import_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = resolve_call(node, aliases)
            if target not in HOST_CLOCK_CALLS:
                continue
            if in_harness:
                yield self.finding(
                    ctx, node,
                    f"host clock read {target}() in harness module "
                    f"{ctx.module}, which is not on the audited "
                    f"HARNESS_HOSTCLOCK_ALLOWLIST",
                    code="RPL102", hint=_HINT_102,
                )
            else:
                yield self.finding(
                    ctx, node,
                    f"host clock read {target}() in simulation-layer "
                    f"module {ctx.module} (only repro.harness may "
                    f"measure host wall-clock)",
                )


#: Calls that make a loop body ordering-sensitive.
_ORDER_SINKS = frozenset({
    "emit", "_emit", "send", "post", "put", "append", "extend",
    "write", "writelines", "observe", "inc", "record", "insert",
})


def _is_set_expr(node: ast.AST) -> bool:
    """Syntactic evidence that ``node`` evaluates to a set/frozenset."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub)
    ):
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


def _set_bindings(scope: ast.AST) -> set[str]:
    """Names bound exactly once in ``scope``, to an evident set."""
    assigned: dict[str, int] = {}
    set_bound: set[str] = set()
    for node in ast.walk(scope):
        targets: list[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        elif isinstance(node, (ast.AugAssign, ast.For)):
            targets = [node.target]
        for t in targets:
            if isinstance(t, ast.Name):
                assigned[t.id] = assigned.get(t.id, 0) + 1
                if value is not None and _is_set_expr(value):
                    set_bound.add(t.id)
    return {n for n in set_bound if assigned[n] == 1}


def _order_sink(body: list[ast.stmt]) -> Optional[str]:
    """The first ordering-sensitive operation in a loop body, if any."""
    for node in (n for stmt in body for n in ast.walk(stmt)):
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return "yields into the simulation"
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None
            )
            if name in _ORDER_SINKS:
                return f"calls {name}(...)"
    return None


class SetIterationChecker(Checker):
    """Flag set iteration feeding ordering-sensitive sinks unsorted."""

    code = "RPL202"
    name = "unordered-set-iteration"
    hint = (
        "set iteration order varies under PYTHONHASHSEED; wrap the "
        "iterable in sorted(...) before feeding messages, reports, or "
        "stores"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        # Each function scope, then the module for top-level loops; the
        # runner dedups loops seen from both.
        scopes: list[ast.AST] = [
            n for n in ast.walk(ctx.tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        scopes.append(ctx.tree)
        for scope in scopes:
            evident = _set_bindings(scope)
            for node in ast.walk(scope):
                if not isinstance(node, ast.For) or not (
                    _is_set_expr(node.iter)
                    or (isinstance(node.iter, ast.Name) and node.iter.id in evident)
                ):
                    continue
                sink = _order_sink(node.body)
                if sink is not None:
                    yield self.finding(
                        ctx, node,
                        f"iteration over an unordered set {sink}; emission "
                        f"order then depends on PYTHONHASHSEED",
                    )


def _float_evident(node: ast.expr) -> bool:
    """Syntactic evidence that ``node`` is a float expression."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.UnaryOp):
        return _float_evident(node.operand)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id == "float"
    if isinstance(node, ast.BinOp):
        return _float_evident(node.left) or _float_evident(node.right)
    return False


class FloatEqualityChecker(Checker):
    """Flag ``==``/``!=`` against float-evident operands in codec code."""

    code = "RPL501"
    name = "float-equality-in-codec"
    hint = (
        "floats in the report/store layer must round-trip through the "
        "exact repr codec; compare with math.isclose(..., abs_tol=...) "
        "or compare repr() strings"
    )
    scope = ("repro.runtime", "repro.harness.sweep", "repro.analysis.reporting",
             "repro.obs.export")

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            if any(
                isinstance(op, (ast.Eq, ast.NotEq))
                and (_float_evident(left) or _float_evident(right))
                for op, left, right in zip(node.ops, operands, operands[1:])
            ):
                yield self.finding(
                    ctx, node,
                    "float equality comparison in report/store code (exact "
                    "bit-equality is a codec property, not a numeric one)",
                )


class LayerImportChecker(Checker):
    """Flag any ``repro.analysis`` import, module-level or lazy, inside
    the model layers."""

    code = "RPL601"
    name = "layer-import"
    hint = "move what the model needs model-side (costs: repro.cluster.costs)"
    scope = ("repro.sim", "repro.cluster", "repro.core", "repro.mining",
             "repro.datagen", "repro.runtime")

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            for name in names:
                if (name + ".").startswith("repro.analysis."):
                    yield self.finding(ctx, node, f"{ctx.module} imports {name}")
                    break


#: Every rule's checker class, in catalogue order.
ALL_CHECKERS: "tuple[type[Checker], ...]" = (
    HostClockChecker, SetIterationChecker, FloatEqualityChecker, LayerImportChecker,
)
