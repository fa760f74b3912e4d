"""The ``ExperimentResults`` facade: paper artifacts across seeds.

Every artifact is one fold.  Its sweep's report carries
``data["series"]`` — the ``{group: {x: value}}`` the artifact plots,
and the only copy of those numbers — and :meth:`ExperimentResults._fold`
runs the sweep once per seed, aggregates the per-seed series into
replicate cells (:func:`~repro.analysis.report.samples.aggregate_series`)
and rank-tests the artifact's declared contrasts
(:func:`~repro.analysis.report.samples.compare_groups`).  What differs
between artifacts is presentation only — title, axis, metric, notes,
contrasts — and that lives in one table, :data:`_SPECS`.

Each seed is an independent replication: the whole sweep re-runs with
that seed (through the scenario cache and the ambient
:class:`~repro.runtime.store.ResultStore`, so warm stores re-execute
nothing).  The scale's own default seed is passed to the engine as "no
override" so those runs share store entries with single-seed sweeps
and benchmarks.  Nothing here generates, mines or prepares a workload.
"""

from __future__ import annotations

from dataclasses import asdict
from itertools import combinations
from typing import Mapping, NamedTuple, Optional, Sequence

from repro.analysis.cost_model import PAPER_COSTS
from repro.analysis.pagefault import predicted_fault_time_s
from repro.analysis.report.samples import (
    ArtifactStats,
    Comparison,
    aggregate_series,
    compare_groups,
)
from repro.cluster.specs import ATM_155
from repro.errors import HarnessError
from repro.harness.experiments import (
    ALL_SWEEPS,
    REPLACEMENT_SWEEP,
    TABLE2_MINSUP_FACTOR,
)
from repro.harness.scales import SCALES
from repro.harness.sweep.engine import SweepOutcome, run_sweep_outcome
from repro.runtime.config import PLACEMENT_POLICIES

__all__ = ["REPORT_FORMAT", "ExperimentResults", "default_seeds"]

#: Bumped when the payload layout changes; the diff gate refuses to
#: compare payloads of different formats (exit 2, a usage error — not a
#: regression verdict).
REPORT_FORMAT = 1

#: How many independent replications a report uses by default.
DEFAULT_N_SEEDS = 3


def default_seeds(scale: str, n: int = DEFAULT_N_SEEDS) -> "tuple[int, ...]":
    """The first ``n`` replication seeds: the scale's base seed onward."""
    if n < 1:
        raise HarnessError(f"need at least one seed, got {n}")
    base = SCALES[scale].seed
    return tuple(base + i for i in range(n))


class _Spec(NamedTuple):
    """How one artifact presents its sweep's ``series``."""

    title: str
    kind: str
    x_label: str
    metric: str
    unit: str
    notes: "tuple[str, ...]"
    #: ``(group_a, group_b)`` pairs rank-tested at every shared x.
    contrasts: "tuple[tuple[str, str], ...]" = ()


_PREDICTED_MS = predicted_fault_time_s(PAPER_COSTS, ATM_155) * 1e3

#: Every report artifact, in payload order (``--only`` vocabulary).
_SPECS: "dict[str, _Spec]" = {
    "table2": _Spec(
        "Table 2 — candidate and large itemsets at each pass",
        "table", "pass", "itemset count", "count",
        ("C2 dominates every later pass; iteration dies out naturally "
         "(paper Table 2).",
         f"minsup = scale minsup x {TABLE2_MINSUP_FACTOR:g}."),
    ),
    "table3": _Spec(
        "Table 3 — candidate 2-itemsets at each node",
        "table", "node / statistic", "candidate count (skew rows: ratio)",
        "count",
        ("counts near-equal but unequal (paper: ~5% skew around a 608985 "
         "mean).",),
    ),
    "table4": _Spec(
        "Table 4 — execution time of each pagefault",
        "table", "usage limit [MB]", "per-pagefault time", "ms",
        (f"cost-model prediction: {_PREDICTED_MS:.4g} ms per fault "
         "(seed-independent).",
         "paper: 2.37/2.33/2.22/1.90 ms, roughly constant across limits."),
    ),
    "fig3": _Spec(
        "Figure 3 — HPA pass-2 time vs memory-available nodes",
        "figure", "memory-available nodes", "pass 2 time", "s",
        ("curves fall from 1 memory node and flatten; lower limits sit "
         "higher; the no-limit curve is flat and lowest.",),
    ),
    "fig4": _Spec(
        "Figure 4 — comparison of proposed methods",
        "figure", "usage limit [MB]", "pass 2 time", "s",
        ("disk >> simple swapping >> remote update at every limit "
         "(paper Figure 4).",),
        (("disk swapping", "simple swapping"),
         ("simple swapping", "remote update"),
         ("disk swapping", "remote update")),
    ),
    "fig5": _Spec(
        "Figure 5 — dynamic memory migration",
        "figure", "usage limit [MB]", "pass 2 time", "s",
        ("the three curves nearly coincide: migration overhead is almost "
         "negligible (paper Figure 5).",),
        (("1 memory node unavailable", "all memory nodes available"),
         ("2 memory nodes unavailable", "all memory nodes available")),
    ),
    "policy": _Spec(
        "Replacement-policy ablation (paper uses LRU)",
        "table", "usage limit [MB]", "pass 2 time", "s",
        ("with near-uniform hash-line access the policies should be "
         "close, with LRU never worst.",),
        tuple(combinations(REPLACEMENT_SWEEP, 2)),
    ),
    "churn": _Spec(
        "Placement policies under churning memory availability",
        "table", "churn regime", "pass 2 time", "s",
        ("calm, most-available never trails round-robin; churn never "
         "speeds up an availability-aware policy; bursty: predictive "
         ">= most-available.",),
        tuple(combinations(PLACEMENT_POLICIES, 2)),
    ),
}


class ExperimentResults:
    """Multi-seed views of the paper artifacts, each folded once.

    ``payload()`` / ``artifacts()`` run the sweeps behind whichever
    subset a caller asks for, each (sweep, seed) at most once.
    """

    #: Payload order (and the core ``--only`` vocabulary).
    ARTIFACTS = (
        "table2", "table3", "table4", "fig3", "fig4", "fig5", "policy",
    )

    #: Opt-in artifacts: addressable through ``--only`` but excluded
    #: from the default payload, so reports stay diffable against
    #: baselines that predate them (the gate treats an artifact present
    #: only on one side as drift).
    EXTRA_ARTIFACTS = ("churn",)

    def __init__(
        self,
        scale: str = "small",
        seeds: "Optional[Sequence[int]]" = None,
        jobs: int = 1,
    ) -> None:
        if scale not in SCALES:
            raise HarnessError(
                f"unknown scale {scale!r}; expected one of {sorted(SCALES)}"
            )
        self.scale = scale
        self.seeds: "tuple[int, ...]" = (
            default_seeds(scale) if seeds is None else tuple(seeds)
        )
        if not self.seeds:
            raise HarnessError("need at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise HarnessError(f"duplicate seeds: {list(self.seeds)}")
        self.jobs = jobs
        self._outcomes: "dict[tuple[str, int], SweepOutcome]" = {}
        self._folded: "dict[str, ArtifactStats]" = {}

    def _fold(self, name: str) -> ArtifactStats:
        """Artifact ``name``: its sweep's per-seed ``series`` folded into
        replicate cells plus the spec's rank-test contrasts, computed
        once per facade."""
        if name in self._folded:
            return self._folded[name]
        spec = _SPECS[name]
        per_seed: "list[Mapping[str, Mapping]]" = []
        for seed in self.seeds:
            # The scale's own seed is "no override": those scenarios
            # keep seed=None and share store entries with plain sweeps.
            override = None if seed == SCALES[self.scale].seed else seed
            outcome = run_sweep_outcome(
                ALL_SWEEPS[name], self.scale, jobs=self.jobs, seed=override
            )
            self._outcomes[name, seed] = outcome
            per_seed.append(outcome.report.data["series"])
        cells = aggregate_series(per_seed)
        comparisons: "list[Comparison]" = []
        for a, b in spec.contrasts:
            comparisons.extend(compare_groups(cells, a, b))
        notes = list(spec.notes)
        n_xs = [
            len({x for points in series.values() for x in points})
            for series in per_seed
        ]
        if len(set(n_xs)) > 1:
            plural = spec.x_label + ("es" if spec.x_label.endswith("s") else "s")
            notes.append(
                f"{spec.x_label} counts differ across seeds: "
                + ", ".join(
                    f"seed {seed}: {n}" for seed, n in zip(self.seeds, n_xs)
                )
                + f" (cells aggregate the shared {plural})."
            )
        art = ArtifactStats(
            artifact=name,
            exp_id=ALL_SWEEPS[name].exp_id,
            title=spec.title,
            kind=spec.kind,
            x_label=spec.x_label,
            metric=spec.metric,
            unit=spec.unit,
            cells=cells,
            comparisons=comparisons,
            notes=notes,
        )
        self._folded[name] = art
        return art

    @classmethod
    def names(cls, only: "Optional[Sequence[str]]" = None) -> "list[str]":
        """The requested artifact names, in canonical payload order.

        ``only=None`` yields the core set; the opt-in
        ``EXTRA_ARTIFACTS`` appear only when named explicitly."""
        known = cls.ARTIFACTS + cls.EXTRA_ARTIFACTS
        if only is None:
            return list(cls.ARTIFACTS)
        unknown = sorted(set(only) - set(known))
        if unknown:
            raise HarnessError(
                f"unknown artifacts {unknown}; expected a subset of "
                f"{list(known)}"
            )
        return [n for n in known if n in set(only)]

    def artifacts(
        self, only: "Optional[Sequence[str]]" = None
    ) -> "dict[str, ArtifactStats]":
        """The requested artifacts (see :meth:`names`), folded."""
        return {name: self._fold(name) for name in self.names(only)}

    def payload(self, only: "Optional[Sequence[str]]" = None) -> dict:
        """The machine-readable report: the diff gate's input format."""
        return {
            "format": REPORT_FORMAT,
            "scale": self.scale,
            "seeds": list(self.seeds),
            "artifacts": {n: asdict(a) for n, a in self.artifacts(only).items()},
        }

    def accounting(self) -> dict:
        """How much work the sweeps behind the accessed artifacts did
        (cached vs executed scenario runs) — printed by the CLI, never
        embedded in a report file (warm and cold renders must be
        byte-identical)."""
        return {
            "sweeps": len(self._outcomes),
            "cached": sum(o.n_cached for o in self._outcomes.values()),
            "executed": sum(o.n_executed for o in self._outcomes.values()),
        }
