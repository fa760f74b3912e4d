"""RPL201/RPL202 — determinism hazards: unseeded randomness and
ordering-sensitive iteration over unordered sets.

The sweep engine promises byte-identical serial/parallel/resumed reports
and the result store addresses entries by content hash; both collapse if
any value depends on an unseeded RNG or on ``set`` iteration order (which
varies under ``PYTHONHASHSEED`` for strings and tuples —
``tests/integration/test_hash_determinism.py`` pins the repo-wide
guarantee).

- **RPL201** flags draws from ambient entropy: the ``random`` module's
  global generator, ``uuid.uuid4``, ``os.urandom``, ``secrets``, and
  numpy's *global* RNG (``np.random.rand`` & co).  Explicitly seeded
  constructions — ``np.random.default_rng(seed)``, ``Generator``,
  ``SeedSequence`` — are the sanctioned idiom and stay legal everywhere.
- **RPL202** flags ``for`` loops that iterate a value syntactically known
  to be a ``set``/``frozenset`` while their body performs an
  ordering-sensitive operation (yielding into the simulation, sending,
  emitting, appending to a report/store).  Wrapping the iterable in
  ``sorted(...)`` is the fix and silences the rule by construction.
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

__all__ = ["UnseededRandomChecker", "SetIterationChecker"]

#: numpy.random constructors that take (and in this codebase always get)
#: an explicit seed; everything else on ``numpy.random`` is the unseeded
#: global generator.
_NP_RANDOM_OK = frozenset({
    "default_rng", "Generator", "SeedSequence", "PCG64", "Philox",
    "MT19937", "SFC64", "BitGenerator", "RandomState",
})

#: Attribute/function names whose call inside a loop body marks the loop
#: as ordering-sensitive: message emission, report/store building.
_ORDER_SINKS = frozenset({
    "emit", "_emit", "send", "post", "put", "append", "extend",
    "write", "writelines", "observe", "inc", "record", "insert",
})


class UnseededRandomChecker(Checker):
    """Flag ambient-entropy draws anywhere in ``repro``."""

    code = "RPL201"
    name = "unseeded-randomness"
    hint = (
        "draw from an explicitly seeded generator (numpy's "
        "default_rng(seed)); ambient entropy breaks run reproducibility "
        "and cache addressing"
    )

    def applies_to(self, ctx: LintContext) -> bool:
        return ctx.in_repro

    def _violation(self, target: Optional[str]) -> Optional[str]:
        if target is None:
            return None
        root, _, rest = target.partition(".")
        if root == "random":
            return target
        if root == "secrets":
            return target
        if target in ("uuid.uuid4", "uuid.uuid1", "os.urandom"):
            return target
        if target.startswith("numpy.random."):
            fn = target.rsplit(".", 1)[1]
            if fn not in _NP_RANDOM_OK:
                return target
        return None

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        aliases = import_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            bad = self._violation(resolve_call(node, aliases))
            if bad is not None:
                yield self.finding(
                    ctx,
                    node,
                    f"unseeded randomness: {bad}() draws from ambient "
                    f"entropy in {ctx.module}",
                )


def _is_set_expr(node: ast.AST) -> bool:
    """Syntactic evidence that ``node`` evaluates to a set/frozenset."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub)
    ):
        # set algebra: s | t, s & t, s - t (on evident sets).
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


def _set_bindings(scope: ast.AST) -> set[str]:
    """Names bound to an evident set exactly once within ``scope`` (a
    re-bound name is no longer evident and is left alone)."""
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
    return {n for n in set_bound if assigned.get(n, 0) == 1}


def _has_order_sink(body: list[ast.stmt]) -> Optional[str]:
    """The first ordering-sensitive operation in a loop body, if any."""
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                return "yields into the simulation"
            if isinstance(node, ast.Call):
                name = None
                if isinstance(node.func, ast.Attribute):
                    name = node.func.attr
                elif isinstance(node.func, ast.Name):
                    name = node.func.id
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

    def applies_to(self, ctx: LintContext) -> bool:
        return ctx.in_repro

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        # Function scopes first (their single-assignment analysis is
        # precise), then the module for top-level loops; the runner
        # dedups findings seen from both walks.
        scopes: list[ast.AST] = [
            n for n in ast.walk(ctx.tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        scopes.append(ctx.tree)
        for scope in scopes:
            evident = _set_bindings(scope)
            for node in ast.walk(scope):
                if not isinstance(node, ast.For):
                    continue
                it = node.iter
                is_set = _is_set_expr(it) or (
                    isinstance(it, ast.Name) and it.id in evident
                )
                if not is_set:
                    continue
                sink = _has_order_sink(node.body)
                if sink is None:
                    continue
                yield self.finding(
                    ctx,
                    node,
                    f"iteration over an unordered set {sink}; emission "
                    f"order then depends on PYTHONHASHSEED",
                )
