"""Deterministic statistics for multi-seed replications.

Every routine here is a pure function of its inputs plus an explicit
seed: samples are canonicalised (sorted) before any resampling, the
only RNG is ``numpy.random.default_rng(seed)``, and nothing reads the
host clock — so report payloads built from these numbers are
byte-identical across processes, ``PYTHONHASHSEED`` values, and
warm/cold result stores.

The toolbox is deliberately small and numpy-only (no scipy):

* :func:`bootstrap_ci` — percentile bootstrap CI on the sample mean.
* :func:`summarize` — mean/median/std plus that CI, as a
  :class:`Summary`.
* :func:`mann_whitney_u` — two-sided Mann-Whitney U rank test via the
  tie-corrected normal approximation.  With the tiny replicate counts a
  report uses (3-5 seeds) the attainable p floor is high (two-sided
  minimum ``~0.1`` at n=3 vs 3); the diff gate compensates with a
  magnitude escape hatch (:class:`~repro.analysis.report.diff.DiffPolicy`
  ``fail_factor``) rather than pretending significance is reachable.
* :func:`permutation_test` — exact mean-difference permutation test for
  small samples (enumerated, no randomness), seeded Monte Carlo above
  :data:`EXACT_ENUMERATION_CAP`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

import numpy as np

__all__ = [
    "DEFAULT_CONFIDENCE",
    "DEFAULT_RESAMPLES",
    "DEFAULT_PERMUTATIONS",
    "EXACT_ENUMERATION_CAP",
    "RankTest",
    "Summary",
    "bootstrap_ci",
    "mann_whitney_u",
    "permutation_test",
    "summarize",
]

DEFAULT_CONFIDENCE = 0.95
DEFAULT_RESAMPLES = 2000
DEFAULT_PERMUTATIONS = 2000

#: Largest number of distinct group-A index sets for which the
#: permutation test enumerates exactly instead of sampling.  C(10, 5) =
#: 252 and C(16, 8) = 12870; seed counts stay far below that, so in
#: practice the report always takes the exact (randomness-free) branch.
EXACT_ENUMERATION_CAP = 20000

#: Slack when comparing permuted statistics against the observed one:
#: resampled means recombine the same floats in a different order, so
#: "as extreme as observed" must tolerate last-ulp drift or ties are
#: undercounted and the p-value biases low.
_TIE_EPS = 1e-12


def _as_sorted_array(values: "Iterable[float]") -> "np.ndarray":
    """Canonical sample: floats, ascending.  Sorting makes every
    downstream statistic independent of input order, which is what lets
    two code paths that assemble the same replicate set differently
    produce byte-identical payloads."""
    data = np.asarray(sorted(float(v) for v in values), dtype=np.float64)
    if data.size == 0:
        raise ValueError("empty sample")
    return data


# ---------------------------------------------------------------------------
# Bootstrap confidence intervals
# ---------------------------------------------------------------------------

def bootstrap_ci(
    values: "Iterable[float]",
    confidence: float = DEFAULT_CONFIDENCE,
    n_resamples: int = DEFAULT_RESAMPLES,
    seed: int = 0,
) -> "tuple[float, float]":
    """Percentile bootstrap CI for the mean of ``values``.

    A single-observation sample has no resampling variability: the CI
    degenerates to the point itself.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    data = _as_sorted_array(values)
    if data.size == 1:
        v = float(data[0])
        return (v, v)
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, data.size, size=(n_resamples, data.size))
    means = data[idx].mean(axis=1)
    tail = (1.0 - confidence) / 2.0
    lo, hi = np.quantile(means, [tail, 1.0 - tail])
    return (float(lo), float(hi))


@dataclass(frozen=True)
class Summary:
    """Replicate summary: location, spread, and a bootstrap CI."""

    n: int
    mean: float
    median: float
    std: float
    ci_low: float
    ci_high: float


def summarize(
    values: "Iterable[float]",
    confidence: float = DEFAULT_CONFIDENCE,
    n_resamples: int = DEFAULT_RESAMPLES,
    seed: int = 0,
) -> Summary:
    """The :class:`Summary` of a replicate sample (sample std, ddof=1)."""
    data = _as_sorted_array(values)
    lo, hi = bootstrap_ci(
        data, confidence=confidence, n_resamples=n_resamples, seed=seed
    )
    std = float(data.std(ddof=1)) if data.size > 1 else 0.0
    return Summary(
        n=int(data.size),
        mean=float(data.mean()),
        median=float(np.median(data)),
        std=std,
        ci_low=lo,
        ci_high=hi,
    )


# ---------------------------------------------------------------------------
# Rank / permutation tests
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RankTest:
    """A two-sided Mann-Whitney result (U of the first sample)."""

    u_statistic: float
    p_value: float
    n_a: int
    n_b: int


def _normal_sf(z: float) -> float:
    """Upper-tail standard normal probability via ``erfc`` (no scipy)."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def mann_whitney_u(a: "Iterable[float]", b: "Iterable[float]") -> RankTest:
    """Two-sided Mann-Whitney U test, tie-corrected normal approximation.

    Exact tables would be marginally sharper at n=3 but the normal
    approximation (with continuity correction) is monotone in the same
    statistic, fully deterministic, and good enough for a gate whose
    small-sample power is bounded anyway.
    """
    xa = _as_sorted_array(a)
    xb = _as_sorted_array(b)
    n_a, n_b = int(xa.size), int(xb.size)
    pooled = np.concatenate([xa, xb])
    n = n_a + n_b
    # Average ranks (midranks for ties) via the unique-value decomposition.
    _, inverse, counts = np.unique(
        pooled, return_inverse=True, return_counts=True
    )
    ends = np.cumsum(counts)
    midranks = (ends - counts + 1 + ends) / 2.0
    ranks = midranks[inverse]
    r_a = float(ranks[:n_a].sum())
    u_a = r_a - n_a * (n_a + 1) / 2.0
    u_min = min(u_a, n_a * n_b - u_a)
    mu = n_a * n_b / 2.0
    tie_term = float(((counts.astype(np.float64) ** 3) - counts).sum())
    sigma_sq = (n_a * n_b / 12.0) * ((n + 1) - tie_term / (n * (n - 1)))
    if sigma_sq <= 0.0:
        # All observations tied: the samples are indistinguishable.
        return RankTest(u_statistic=u_a, p_value=1.0, n_a=n_a, n_b=n_b)
    z = (u_min - mu + 0.5) / math.sqrt(sigma_sq)
    p = min(1.0, 2.0 * (1.0 - _normal_sf(z)))
    return RankTest(u_statistic=u_a, p_value=p, n_a=n_a, n_b=n_b)


def permutation_test(
    a: "Iterable[float]",
    b: "Iterable[float]",
    n_permutations: int = DEFAULT_PERMUTATIONS,
    seed: int = 0,
) -> float:
    """Two-sided permutation test on the difference of means.

    For small pooled samples (every realistic seed count) all
    ``C(n_a + n_b, n_a)`` relabellings are enumerated, making the
    p-value exact and completely deterministic.  Larger samples fall
    back to ``n_permutations`` seeded Monte Carlo draws with the
    identity permutation included (the standard add-one estimator, which
    also keeps the p-value strictly positive).
    """
    xa = _as_sorted_array(a)
    xb = _as_sorted_array(b)
    n_a = int(xa.size)
    pooled = np.concatenate([xa, xb])
    n = int(pooled.size)
    total = pooled.sum()
    observed = abs(float(xa.mean()) - float(xb.mean()))
    threshold = observed - _TIE_EPS * max(1.0, observed)

    def stat(sum_a: float) -> float:
        mean_a = sum_a / n_a
        mean_b = (total - sum_a) / (n - n_a)
        return abs(mean_a - mean_b)

    n_exact = math.comb(n, n_a)
    if n_exact <= EXACT_ENUMERATION_CAP:
        hits = sum(
            1
            for idx in combinations(range(n), n_a)
            if stat(float(pooled[list(idx)].sum())) >= threshold
        )
        return hits / n_exact
    rng = np.random.default_rng(seed)
    hits = 1  # the identity permutation is always at least as extreme
    for _ in range(n_permutations):
        perm = rng.permutation(n)
        if stat(float(pooled[perm[:n_a]].sum())) >= threshold:
            hits += 1
    return hits / (n_permutations + 1)
