"""RPL601 — the model layers never import ``repro.analysis``: analysis
reads their results, so what the simulation charges lives model-side."""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.lint.framework import Checker, Finding, LintContext

__all__ = ["LayerImportChecker"]

#: Packages that must not import ``repro.analysis``, module-level or lazily.
MODEL_LAYERS = ("repro.sim", "repro.cluster", "repro.core", "repro.mining",
                "repro.datagen", "repro.runtime")


class LayerImportChecker(Checker):
    """Flag any ``repro.analysis`` import inside :data:`MODEL_LAYERS`."""

    code = "RPL601"
    name = "layer-import"
    hint = "move what the model needs model-side (costs: repro.cluster.costs)"

    def applies_to(self, ctx: LintContext) -> bool:
        return ctx.module_startswith(*MODEL_LAYERS)

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
