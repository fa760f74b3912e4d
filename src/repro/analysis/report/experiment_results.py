"""The ``ExperimentResults`` facade: paper artifacts across seeds.

One instance is bound to ``(scale, seeds, jobs)`` and exposes each
regenerated paper artifact as a lazily-computed cached property
(``results.fig4``), so a report template touches exactly the artifacts
it renders and every expensive sweep runs at most once per seed.  The
pattern follows FuzzBench's ``ExperimentResults``: the facade *is* the
template context, and caching makes property access idempotent.

Each seed is an independent replication: the whole sweep re-runs with
that seed (through the scenario cache and the ambient
:class:`~repro.runtime.store.ResultStore`, so warm stores re-execute
nothing).  The scale's own default seed is passed to the engine as "no
override" so those runs share store entries with single-seed sweeps
and benchmarks.

Every artifact is a fold over its sweep's machine-readable report
``data`` — ``series`` for the figures, ``rows`` / ``per_node`` for
Tables 2-3, the per-limit and per-policy dicts for Table 4 and the
ablations — so nothing here generates, mines or prepares a workload.
The policy artifact carries the pagers-x-policies rank tests the
regression gate consumes.
"""

from __future__ import annotations

from functools import cached_property
from typing import Mapping, Optional, Sequence

from repro.analysis.report.samples import (
    ArtifactStats,
    aggregate_series,
    compare_groups,
    format_x,
)
from repro.errors import HarnessError
from repro.harness.scales import SCALES

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


class ExperimentResults:
    """Lazily-computed, cached multi-seed views of the paper artifacts.

    Properties run sweeps on first access only; ``payload()`` /
    ``artifacts()`` drive whichever subset a caller asks for.
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
        self._outcomes: dict = {}

    # -- sweep plumbing ----------------------------------------------------

    def _outcome(self, sweep_name: str, seed: int):
        """One sweep execution at one seed, memoised for the facade's
        lifetime (several artifacts share the fig4 sweep's cells through
        the scenario cache, but each (sweep, seed) runs once here)."""
        key = (sweep_name, seed)
        if key not in self._outcomes:
            from repro.harness.experiments import ALL_SWEEPS
            from repro.harness.sweep.engine import run_sweep_outcome

            # The scale's own seed is "no override": those scenarios
            # keep seed=None and share store entries with plain sweeps.
            override = None if seed == SCALES[self.scale].seed else seed
            self._outcomes[key] = run_sweep_outcome(
                ALL_SWEEPS[sweep_name],
                self.scale,
                jobs=self.jobs,
                seed=override,
            )
        return self._outcomes[key]

    def _series_per_seed(self, sweep_name: str) -> "list[Mapping]":
        return [
            self._outcome(sweep_name, seed).report.data["series"]
            for seed in self.seeds
        ]

    # -- workload-derived artifacts (sweeps with no scenario runs) ---------

    @cached_property
    def table2(self) -> ArtifactStats:
        """Candidate/large itemset counts per pass, mined per seed."""
        from repro.harness.experiments import TABLE2_MINSUP_FACTOR

        per_seed: "list[dict]" = []
        pass_counts: "list[int]" = []
        for seed in self.seeds:
            rows = self._outcome("table2", seed).report.data["rows"]
            candidates: "dict[str, float]" = {}
            large: "dict[str, float]" = {}
            for k, c, l in rows:
                if c is not None:
                    candidates[f"pass {k}"] = float(c)
                large[f"pass {k}"] = float(l)
            per_seed.append(
                {"candidates": candidates, "large itemsets": large}
            )
            pass_counts.append(len(rows))
        notes = [
            "C2 dominates every later pass; iteration dies out naturally "
            "(paper Table 2).",
            f"minsup = scale minsup x {TABLE2_MINSUP_FACTOR:g}.",
        ]
        if len(set(pass_counts)) > 1:
            notes.append(
                "pass counts differ across seeds: "
                + ", ".join(
                    f"seed {seed}: {n}"
                    for seed, n in zip(self.seeds, pass_counts)
                )
                + " (cells aggregate the shared passes)."
            )
        return ArtifactStats(
            artifact="table2",
            exp_id="T2",
            title="Table 2 — candidate and large itemsets at each pass",
            kind="table",
            x_label="pass",
            metric="itemset count",
            unit="count",
            cells=aggregate_series(per_seed),
            notes=notes,
        )

    @cached_property
    def table3(self) -> ArtifactStats:
        """Per-node candidate-partition skew, regenerated per seed."""
        from repro.mining import skew_statistics

        per_seed: "list[dict]" = []
        for seed in self.seeds:
            counts = self._outcome("table3", seed).report.data["per_node"]
            stats = skew_statistics(counts)
            per_seed.append({
                "per-node candidate 2-itemsets": {
                    f"node {i + 1}": float(c) for i, c in enumerate(counts)
                },
                "skew ratio": {
                    "max/mean": stats.max_over_mean,
                    "coeff. of variation": stats.coefficient_of_variation,
                },
            })
        return ArtifactStats(
            artifact="table3",
            exp_id="T3",
            title="Table 3 — candidate 2-itemsets at each node",
            kind="table",
            x_label="node / statistic",
            metric="candidate count (skew rows: ratio)",
            unit="count",
            cells=aggregate_series(per_seed),
            notes=[
                "counts near-equal but unequal (paper: ~5% skew around "
                "a 608985 mean)."
            ],
        )

    # -- sweep-backed artifacts --------------------------------------------

    @cached_property
    def table4(self) -> ArtifactStats:
        """Per-pagefault service time, decomposed from pass-2 deltas."""
        per_seed: "list[dict]" = []
        predicted_ms = 0.0
        for seed in self.seeds:
            data = self._outcome("table4", seed).report.data
            predicted_ms = float(data["predicted_ms"])
            per_seed.append({
                "measured per-fault time": {
                    format_x(mb): float(ms)
                    for mb, ms in data["per_fault_ms"].items()
                },
                "pass-2 baseline [s]": {
                    "no limit": float(data["baseline_s"])
                },
            })
        return ArtifactStats(
            artifact="table4",
            exp_id="T4",
            title="Table 4 — execution time of each pagefault",
            kind="table",
            x_label="usage limit [MB]",
            metric="per-pagefault time",
            unit="ms",
            cells=aggregate_series(per_seed),
            notes=[
                f"cost-model prediction: {predicted_ms:.4g} ms per fault "
                "(seed-independent).",
                "paper: 2.37/2.33/2.22/1.90 ms, roughly constant across "
                "limits.",
            ],
        )

    @cached_property
    def fig3(self) -> ArtifactStats:
        """Pass-2 time vs number of memory-available nodes."""
        return ArtifactStats(
            artifact="fig3",
            exp_id="F3",
            title="Figure 3 — HPA pass-2 time vs memory-available nodes",
            kind="figure",
            x_label="memory-available nodes",
            metric="pass 2 time",
            unit="s",
            cells=aggregate_series(self._series_per_seed("fig3")),
            notes=[
                "curves fall from 1 memory node and flatten; lower limits "
                "sit higher; the no-limit curve is flat and lowest.",
            ],
        )

    @cached_property
    def fig4(self) -> ArtifactStats:
        """The three swapping mechanisms vs usage limit, with the
        pager-vs-pager rank tests at every limit."""
        cells = aggregate_series(self._series_per_seed("fig4"))
        comparisons = (
            compare_groups(cells, "disk swapping", "simple swapping")
            + compare_groups(cells, "simple swapping", "remote update")
            + compare_groups(cells, "disk swapping", "remote update")
        )
        return ArtifactStats(
            artifact="fig4",
            exp_id="F4",
            title="Figure 4 — comparison of proposed methods",
            kind="figure",
            x_label="usage limit [MB]",
            metric="pass 2 time",
            unit="s",
            cells=cells,
            comparisons=comparisons,
            notes=[
                "disk >> simple swapping >> remote update at every limit "
                "(paper Figure 4).",
            ],
        )

    @cached_property
    def fig5(self) -> ArtifactStats:
        """Mid-run memory-node shortages vs the undisturbed run."""
        cells = aggregate_series(self._series_per_seed("fig5"))
        base = "all memory nodes available"
        comparisons = (
            compare_groups(cells, "1 memory node unavailable", base)
            + compare_groups(cells, "2 memory nodes unavailable", base)
        )
        return ArtifactStats(
            artifact="fig5",
            exp_id="F5",
            title="Figure 5 — dynamic memory migration",
            kind="figure",
            x_label="usage limit [MB]",
            metric="pass 2 time",
            unit="s",
            cells=cells,
            comparisons=comparisons,
            notes=[
                "the three curves nearly coincide: migration overhead is "
                "almost negligible (paper Figure 5).",
            ],
        )

    @cached_property
    def policy(self) -> ArtifactStats:
        """Replacement-policy ablation with all pairwise rank tests."""
        mb = SCALES[self.scale].limits_mb[0]
        per_seed: "list[dict]" = []
        policies: "list[str]" = []
        for seed in self.seeds:
            data = self._outcome("policy", seed).report.data
            if not policies:
                policies = list(data)
            per_seed.append({
                policy: {format_x(mb): float(entry["time_s"])}
                for policy, entry in data.items()
            })
        cells = aggregate_series(per_seed)
        comparisons: "list" = []
        for i, a in enumerate(policies):
            for b in policies[i + 1:]:
                comparisons.extend(compare_groups(cells, a, b))
        return ArtifactStats(
            artifact="policy",
            exp_id="A1",
            title="Replacement-policy ablation (paper uses LRU)",
            kind="table",
            x_label="usage limit [MB]",
            metric="pass 2 time",
            unit="s",
            cells=cells,
            comparisons=comparisons,
            notes=[
                "with near-uniform hash-line access the policies should "
                "be close, with LRU never worst.",
            ],
        )

    @cached_property
    def churn(self) -> ArtifactStats:
        """Placement policies under churning availability, with the
        policy-vs-policy rank tests per churn regime (opt-in: see
        ``EXTRA_ARTIFACTS``)."""
        per_seed: "list[dict]" = []
        policies: "list[str]" = []
        for seed in self.seeds:
            series = self._outcome("churn", seed).report.data["series"]
            if not policies:
                policies = list(series)
            per_seed.append({
                policy: {regime: float(t) for regime, t in times.items()}
                for policy, times in series.items()
            })
        cells = aggregate_series(per_seed)
        comparisons: "list" = []
        for i, a in enumerate(policies):
            for b in policies[i + 1:]:
                comparisons.extend(compare_groups(cells, a, b))
        return ArtifactStats(
            artifact="churn",
            exp_id="C1",
            title="Placement policies under churning memory availability",
            kind="table",
            x_label="churn regime",
            metric="pass 2 time",
            unit="s",
            cells=cells,
            comparisons=comparisons,
            notes=[
                "calm, most-available never trails round-robin; churn never "
                "speeds up an availability-aware policy; bursty: predictive "
                ">= most-available.",
            ],
        )

    # -- assembly ----------------------------------------------------------

    def artifacts(
        self, only: "Optional[Sequence[str]]" = None
    ) -> "dict[str, ArtifactStats]":
        """The requested artifacts, in canonical payload order.

        ``only=None`` yields the core set; the opt-in
        ``EXTRA_ARTIFACTS`` appear only when named explicitly."""
        known = self.ARTIFACTS + self.EXTRA_ARTIFACTS
        if only is None:
            names = list(self.ARTIFACTS)
        else:
            unknown = sorted(set(only) - set(known))
            if unknown:
                raise HarnessError(
                    f"unknown artifacts {unknown}; expected a subset of "
                    f"{list(known)}"
                )
            names = [n for n in known if n in set(only)]
        return {name: getattr(self, name) for name in names}

    def payload(self, only: "Optional[Sequence[str]]" = None) -> dict:
        """The machine-readable report: the diff gate's input format."""
        return {
            "format": REPORT_FORMAT,
            "scale": self.scale,
            "seeds": list(self.seeds),
            "artifacts": {
                name: art.to_dict()
                for name, art in self.artifacts(only).items()
            },
        }

    def accounting(self) -> dict:
        """How much work the sweeps behind the accessed artifacts did
        (cached vs executed scenario runs) — printed by the CLI, never
        embedded in a report file (warm and cold renders must be
        byte-identical)."""
        n_cached = sum(o.n_cached for o in self._outcomes.values())
        n_executed = sum(o.n_executed for o in self._outcomes.values())
        return {
            "sweeps": len(self._outcomes),
            "cached": n_cached,
            "executed": n_executed,
        }
