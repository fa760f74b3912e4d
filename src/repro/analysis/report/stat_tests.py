"""Deterministic statistics for multi-seed replications.

Every routine here is a pure function of its inputs plus an explicit
seed: samples are canonicalised (sorted) before any resampling, the
only RNG is ``numpy.random.default_rng(seed)``, and nothing reads the
host clock — so report payloads built from these numbers are
byte-identical across processes, ``PYTHONHASHSEED`` values, and
warm/cold result stores.

The toolbox is deliberately small and numpy-only (no scipy):

* :func:`bootstrap_ci` — percentile bootstrap CI on the sample mean.
* :func:`summarize_batch` — mean/median/std plus that CI, as one
  :class:`Summary` per sample; :func:`summarize` is a batch of one.
* :func:`mann_whitney_u` — two-sided Mann-Whitney U rank test via the
  tie-corrected normal approximation.  With the tiny replicate counts a
  report uses (3-5 seeds) the attainable p floor is high (two-sided
  minimum ``~0.1`` at n=3 vs 3); the diff gate compensates with a
  magnitude escape hatch (:data:`~repro.analysis.report.diff.FAIL_FACTOR`)
  rather than pretending significance is reachable.
* :func:`permutation_test` — exact mean-difference permutation test for
  small samples (enumerated, no randomness), seeded Monte Carlo above
  :data:`EXACT_ENUMERATION_CAP`.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Sequence

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
    "summarize_batch",
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

@lru_cache(maxsize=64)
def _bootstrap_index(n: int, n_resamples: int, seed: int) -> "np.ndarray":
    """The ``(n_resamples, n)`` resample index matrix, drawn once per
    argument triple: it depends on nothing else, and a report draws the
    same one for every cell of a given replicate count.  Read-only, so
    no caller can corrupt the shared copy."""
    idx = np.random.default_rng(seed).integers(0, n, size=(n_resamples, n))
    idx.flags.writeable = False
    return idx


@lru_cache(maxsize=64)
def _distinct_resamples(n: int, resamples: int, seed: int) -> "tuple[np.ndarray, ...]":
    """The distinct rows of :func:`_bootstrap_index` and, per resample,
    the one it repeats: few seeds draw few index sets (27 at n = 3), and
    a resample's mean depends on its index set alone."""
    idx = _bootstrap_index(n, resamples, seed)
    rows, inverse = np.unique(idx, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    rows.flags.writeable = inverse.flags.writeable = False
    return rows, inverse


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
    s = summarize(values, confidence, n_resamples, seed)
    return (s.ci_low, s.ci_high)


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
    return summarize_batch([values], confidence, n_resamples, seed)[0]


def summarize_batch(
    samples: "Sequence[Iterable[float]]",
    confidence: float = DEFAULT_CONFIDENCE,
    n_resamples: int = DEFAULT_RESAMPLES,
    seed: int = 0,
) -> "list[Summary]":
    """:func:`summarize` of every sample, in order, in one numpy pass
    per replicate count: the samples of one count stack into a matrix
    whose row-wise reductions equal the one-sample ones bit for bit."""
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    tail = (1.0 - confidence) / 2.0
    rows = [_as_sorted_array(values) for values in samples]
    by_n: "dict[int, list[int]]" = {}
    for i, row in enumerate(rows):
        by_n.setdefault(row.size, []).append(i)
    out: "dict[int, Summary]" = {}
    for n, members in by_n.items():
        data = np.stack([rows[i] for i in members])
        if n == 1:
            lo = hi = data[:, 0]
            std = np.zeros(len(members))
        else:
            # Each distinct resample's mean, as one 2-D row-mean (reducing
            # a 3-D stack's last axis sums in another order from n = 8 on),
            # then spread to every resample that repeats it.
            distinct, inverse = _distinct_resamples(n, n_resamples, seed)
            means = data[:, distinct].reshape(-1, n).mean(axis=1)
            means = means.reshape(len(members), -1)[:, inverse]
            lo, hi = np.quantile(means, [tail, 1.0 - tail], axis=1)
            std = data.std(axis=1, ddof=1)
        stats = zip(data.mean(axis=1), np.median(data, axis=1), std, lo, hi)
        for i, row_stats in zip(members, stats):
            out[i] = Summary(n, *map(float, row_stats))
    return [out[i] for i in range(len(rows))]


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
    xa = _as_sorted_array(a).tolist()
    xb = _as_sorted_array(b).tolist()
    n_a, n_b = len(xa), len(xb)
    n = n_a + n_b
    # U counts the (a, b) pairs a wins, ties half: an exact sum.
    u_a = sum((x > y) + 0.5 * (x == y) for x in xa for y in xb)
    u_min = min(u_a, n_a * n_b - u_a)
    mu = n_a * n_b / 2.0
    tie_term = float(sum(c**3 - c for c in Counter(xa + xb).values()))
    sigma_sq = (n_a * n_b / 12.0) * ((n + 1) - tie_term / (n * (n - 1)))
    if sigma_sq <= 0.0:
        # All observations tied: the samples are indistinguishable.
        return RankTest(u_statistic=u_a, p_value=1.0, n_a=n_a, n_b=n_b)
    z = (u_min - mu + 0.5) / math.sqrt(sigma_sq)
    p = min(1.0, 2.0 * (1.0 - _normal_sf(z)))
    return RankTest(u_statistic=u_a, p_value=p, n_a=n_a, n_b=n_b)


@lru_cache(maxsize=64)
def _relabellings(n: int, n_a: int) -> "np.ndarray":
    """Every group-A index set of ``n`` pooled observations, a read-only
    ``(C(n, n_a), n_a)`` matrix whose row sums equal one-set sums."""
    idx = np.array(list(combinations(range(n), n_a)), dtype=np.intp)
    idx.flags.writeable = False
    return idx


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
        sums = pooled[_relabellings(n, n_a)].sum(axis=1)
        stats = np.abs(sums / n_a - (total - sums) / (n - n_a))
        return int((stats >= threshold).sum()) / n_exact
    rng = np.random.default_rng(seed)
    hits = 1  # the identity permutation is always at least as extreme
    for _ in range(n_permutations):
        perm = rng.permutation(n)
        if stat(float(pooled[perm[:n_a]].sum())) >= threshold:
            hits += 1
    return hits / (n_permutations + 1)
