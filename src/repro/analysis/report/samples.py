"""The report's data model: per-cell replicate samples and pair tests.

One paper artifact (a figure or table) becomes an :class:`ArtifactStats`:
a list of :class:`CellStats` — one per (series group, x position) cell,
each holding the raw per-seed samples plus their
:class:`~repro.analysis.report.stat_tests.Summary` — and a list of
:class:`Comparison` rank tests between groups at shared x positions
(pager against pager, policy against policy).

The payload is these dataclasses through :func:`dataclasses.asdict`
(written with ``sort_keys=True``); the regression gate
(:mod:`repro.analysis.report.diff`) reads that dict form directly and
never rebuilds the objects or needs the generating code.

Ordering discipline: group and x orders are *declaration* orders from
the first seed's report data (dict insertion order), never set
iteration — the payload must be byte-stable under ``PYTHONHASHSEED``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from repro.analysis.report.stat_tests import (
    Summary,
    mann_whitney_u,
    permutation_test,
    summarize,
)

__all__ = [
    "ArtifactStats",
    "CellStats",
    "Comparison",
    "aggregate_series",
    "compare_groups",
    "format_x",
]


def format_x(x: object) -> str:
    """Canonical string for an x position (``12`` -> ``"12"``,
    ``12.5`` -> ``"12.5"``, labels pass through)."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return str(x)
    return f"{x:g}"


@dataclass(frozen=True)
class CellStats:
    """One (group, x) cell: the raw replicates and their summary."""

    group: str
    x: str
    samples: "tuple[float, ...]"
    summary: Summary


@dataclass(frozen=True)
class Comparison:
    """A two-group contrast at one x position (both tests reported)."""

    x: str
    group_a: str
    group_b: str
    mean_a: float
    mean_b: float
    ratio: float
    u_statistic: float
    p_mann_whitney: float
    p_permutation: float


@dataclass
class ArtifactStats:
    """One paper artifact, aggregated across seeds.

    ``kind`` selects the rendering: ``"figure"`` artifacts get an SVG
    error-bar chart plus the stats table, ``"table"`` artifacts get the
    table alone.
    """

    artifact: str
    exp_id: str
    title: str
    kind: str
    x_label: str
    metric: str
    unit: str
    cells: "list[CellStats]"
    comparisons: "list[Comparison]" = field(default_factory=list)
    notes: "list[str]" = field(default_factory=list)

    def groups(self) -> "list[str]":
        seen: "dict[str, None]" = {}
        for cell in self.cells:
            seen.setdefault(cell.group, None)
        return list(seen)

    def xs(self) -> "list[str]":
        seen: "dict[str, None]" = {}
        for cell in self.cells:
            seen.setdefault(cell.x, None)
        return list(seen)

    def cell(self, group: str, x: str) -> "Optional[CellStats]":
        for c in self.cells:
            if c.group == group and c.x == x:
                return c
        return None


def aggregate_series(
    per_seed: "Sequence[Mapping[str, Mapping]]",
) -> "list[CellStats]":
    """Fold per-seed ``{group: {x: value}}`` report data into cells.

    The first seed's declaration order fixes both the group order and
    each group's x order; a (group, x) pair absent from some seed simply
    contributes fewer samples, and an x only later seeds have is
    dropped.  Table 2 does this: the number of Apriori passes depends
    on the seed's database (4/5/4 at ``tiny`` seeds 42-44).
    """
    if not per_seed:
        raise ValueError("no per-seed data")
    first = per_seed[0]
    cells: "list[CellStats]" = []
    for group, points in first.items():
        for x in points:
            samples = tuple(
                float(seed_data[group][x])
                for seed_data in per_seed
                if group in seed_data and x in seed_data[group]
            )
            cells.append(
                CellStats(
                    group=group,
                    x=format_x(x),
                    samples=samples,
                    summary=summarize(samples),
                )
            )
    return cells


def compare_groups(
    cells: "Sequence[CellStats]",
    group_a: str,
    group_b: str,
) -> "list[Comparison]":
    """Rank-test ``group_a`` against ``group_b`` at every shared x."""
    by_key = {(c.group, c.x): c for c in cells}
    xs: "dict[str, None]" = {}
    for c in cells:
        if c.group == group_a:
            xs.setdefault(c.x, None)
    out: "list[Comparison]" = []
    for x in xs:
        a = by_key.get((group_a, x))
        b = by_key.get((group_b, x))
        if a is None or b is None:
            continue
        rank = mann_whitney_u(a.samples, b.samples)
        p_perm = permutation_test(a.samples, b.samples)
        mean_b = b.summary.mean
        out.append(
            Comparison(
                x=x,
                group_a=group_a,
                group_b=group_b,
                mean_a=a.summary.mean,
                mean_b=mean_b,
                ratio=a.summary.mean / mean_b if mean_b else 0.0,
                u_statistic=rank.u_statistic,
                p_mann_whitney=rank.p_value,
                p_permutation=p_perm,
            )
        )
    return out
