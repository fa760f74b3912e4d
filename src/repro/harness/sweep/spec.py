"""Sweep specifications: a declarative grid + a report builder.

A :class:`Sweep` is one paper experiment and the only declaration of
its identity: id, title and the shape the paper states.  Its ``grid``
maps a scale name to an ordered ``{key: Scenario}`` dict — pure data,
no execution — and its ``report`` folds ``(scale, {key: RunResult})``
into the artifact's ``(text, data)``, which the engine stamps
with that identity as an :class:`ExperimentReport`.  A sweep with a
:class:`Fold` also appears in the multi-seed statistical report.
Experiments whose later configurations depend on earlier results
(Figure 5 schedules shortages *inside* the measured pass of a base run)
declare a ``followups`` stage, which the engine resolves after the grid
with the same executor.

Because the grid is data, the engine — not the experiment — decides
execution order, parallelism, caching, and persistence; and because
results are keyed, the report is a pure function of ``(scale,
results)``, which is what makes parallel and resumed runs
byte-identical to serial ones.  Only the engine
(:func:`~repro.harness.sweep.engine.run_sweep_outcome`) calls
``report``: there is one walk from a grid to its report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping, Optional

from repro.errors import HarnessError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.results import RunResult
    from repro.runtime.scenarios import Scenario

__all__ = ["ExperimentReport", "Fold", "Sweep"]


@dataclass
class ExperimentReport:
    """A rendered paper artifact plus its underlying data; the engine
    stamps id, title and shape from the :class:`Sweep`."""

    exp_id: str
    title: str
    text: str
    data: dict
    paper_shape: str

    def __str__(self) -> str:
        return "\n".join([
            f"== {self.exp_id}: {self.title} ==",
            self.text,
            f"[paper shape] {self.paper_shape}",
        ])

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
#: Aggregation: (scale, all results) -> (text, data).
ReportFn = Callable[[str, "Mapping[str, RunResult]"], "tuple[str, dict]"]


@dataclass(frozen=True)
class Fold:
    """How the multi-seed report presents a sweep's ``data["series"]``.

    The report's notes are the sweep's ``shape`` followed by ``notes``.
    """

    x_label: str
    metric: str
    unit: str
    #: ``(group_a, group_b)`` pairs rank-tested at every shared x.
    contrasts: "tuple[tuple[str, str], ...]" = ()
    notes: "tuple[str, ...]" = ()


@dataclass(frozen=True)
class Sweep:
    """One declarative experiment: grid, optional follow-ups, report.

    A report is a pure function of ``(scale, stored cells)``.  §5.2 is
    the one empty grid: arithmetic on the paper's constants, which
    still gains the uniform registry, CLI and timing surfaces.
    """

    #: CLI/registry name (``repro-bench run <name>``).
    name: str
    #: Paper artifact id (``T2``, ``F4``, ``A1``, ...); ``F*`` ids are
    #: figures, the rest tables.
    exp_id: str
    title: str
    #: The qualitative shape the paper states, as printed and reported.
    shape: str
    grid: GridFn
    report: ReportFn
    followups: Optional[FollowupFn] = None
    #: Presentation in the multi-seed report; ``None`` keeps the sweep
    #: out of it.
    fold: Optional[Fold] = None

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
