"""Sweep specifications: a declarative grid + a report builder.

A :class:`Sweep` is one paper experiment.  Its ``grid`` maps a scale
name to an ordered ``{key: Scenario}`` dict — pure data, no execution —
and its ``report`` folds ``(scale, {key: RunResult}, seed)`` into an
:class:`ExperimentReport`.  Experiments whose later
configurations depend on earlier results (Figure 5 schedules shortages
*inside* the measured pass of a base run) declare a ``followups`` stage,
which the engine resolves after the grid with the same executor.

Because the grid is data, the engine — not the experiment — decides
execution order, parallelism, caching, and persistence; and because
results are keyed, the report is a pure function of ``(scale, seed,
results)``, which is what makes parallel and resumed runs
byte-identical to serial ones.  Only the engine
(:func:`~repro.harness.sweep.engine.run_sweep_outcome`) calls
``report``: there is one walk from a grid to its report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping, Optional

from repro.errors import HarnessError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.results import RunResult
    from repro.runtime.scenarios import Scenario

__all__ = ["ExperimentReport", "Sweep"]


@dataclass
class ExperimentReport:
    """A rendered paper artifact plus its underlying data."""

    exp_id: str
    title: str
    text: str
    data: dict = field(default_factory=dict)
    paper_shape: str = ""

    def __str__(self) -> str:  # pragma: no cover - convenience
        header = f"== {self.exp_id}: {self.title} =="
        parts = [header, self.text]
        if self.paper_shape:
            parts.append(f"[paper shape] {self.paper_shape}")
        return "\n".join(parts)

    def to_json(self) -> str:
        """Machine-readable dump (keys stringified for JSON)."""

        def keyfix(obj):
            if isinstance(obj, dict):
                return {str(k): keyfix(v) for k, v in obj.items()}
            if isinstance(obj, (list, tuple)):
                return [keyfix(v) for v in obj]
            return obj

        return json.dumps(
            {
                "exp_id": self.exp_id,
                "title": self.title,
                "paper_shape": self.paper_shape,
                "data": keyfix(self.data),
            },
            indent=2,
        )


#: Stage 1: scale name -> ordered {key: Scenario}.
GridFn = Callable[[str], "dict[str, Scenario]"]
#: Stage 2 (optional): (scale, stage-1 results) -> more scenarios.
FollowupFn = Callable[[str, "Mapping[str, RunResult]"], "dict[str, Scenario]"]
#: Aggregation: (scale, all results, the sweep's seed override — the
#: same value the engine re-seeded the grid with) -> the rendered report.
ReportFn = Callable[
    [str, "Mapping[str, RunResult]", Optional[int]], ExperimentReport
]


@dataclass(frozen=True)
class Sweep:
    """One declarative experiment: grid, optional follow-ups, report.

    Analytic experiments have an empty grid and do all their work in
    ``report``: Tables 2/3 read the prepared workload of ``(scale,
    seed)``, §5.2 is arithmetic on the paper's constants.  They still
    gain the uniform registry, CLI, timing, and documentation surfaces.
    """

    #: CLI/registry name (``repro-bench <name>``).
    name: str
    #: Paper artifact id (``T2``, ``F4``, ``A1``, ...).
    exp_id: str
    title: str
    grid: GridFn
    report: ReportFn
    followups: Optional[FollowupFn] = None
    #: Markdown body for the generated EXPERIMENTS.md section.
    doc: str = ""

    def scenarios(
        self, scale: str, seed: Optional[int] = None
    ) -> "dict[str, Scenario]":
        """The stage-1 grid, validated (keys unique and non-empty).

        ``seed`` re-seeds every cell (the multi-seed report axis):
        the grid stays pure data, and the same declarative sweep yields
        one statistically independent replication per seed."""
        cells = self.grid(scale)
        for key in cells:
            if not key:
                raise HarnessError(f"sweep {self.name!r}: empty grid key")
        if seed is not None:
            cells = {k: s.with_seed(seed) for k, s in cells.items()}
        return cells
