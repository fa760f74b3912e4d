"""Determinism and correctness properties of the report statistics."""

import os
import subprocess
import sys
from pathlib import Path

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.report.stat_tests import (
    DEFAULT_CONFIDENCE,
    DEFAULT_RESAMPLES,
    RankTest,
    _bootstrap_index,
    bootstrap_ci,
    mann_whitney_u,
    permutation_test,
    summarize,
    summarize_batch,
)


# ---------------------------------------------------------------------------
# bootstrap_ci
# ---------------------------------------------------------------------------

def test_bootstrap_ci_deterministic_under_fixed_seed():
    values = [2.31, 2.05, 2.44, 2.18, 2.27]
    assert bootstrap_ci(values, seed=7) == bootstrap_ci(values, seed=7)
    assert bootstrap_ci(values, seed=7) != bootstrap_ci(values, seed=8)


def test_bootstrap_ci_independent_of_input_order():
    values = [2.31, 2.05, 2.44, 2.18, 2.27]
    assert bootstrap_ci(values) == bootstrap_ci(list(reversed(values)))


def test_bootstrap_ci_brackets_the_mean():
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    lo, hi = bootstrap_ci(values)
    assert lo <= float(np.mean(values)) <= hi


def test_bootstrap_ci_width_shrinks_with_sample_count():
    rng = np.random.default_rng(0)
    small = rng.normal(10.0, 1.0, size=5)
    large = np.concatenate([small, rng.normal(10.0, 1.0, size=45)])
    lo_s, hi_s = bootstrap_ci(small)
    lo_l, hi_l = bootstrap_ci(large)
    assert (hi_l - lo_l) < (hi_s - lo_s)


def test_bootstrap_ci_singleton_degenerates_to_point():
    assert bootstrap_ci([3.5]) == (3.5, 3.5)


def test_bootstrap_ci_rejects_empty_and_bad_confidence():
    with pytest.raises(ValueError):
        bootstrap_ci([])
    with pytest.raises(ValueError):
        bootstrap_ci([1.0, 2.0], confidence=1.0)


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("n", range(1, 7))
def test_memoised_bootstrap_equals_a_fresh_draw(n, seed):
    values = [2.0 + 0.37 * i * i - 0.11 * i for i in range(n)]
    data = np.asarray(sorted(values))
    if n == 1:
        expected = (float(data[0]), float(data[0]))
    else:
        idx = np.random.default_rng(seed).integers(
            0, n, size=(DEFAULT_RESAMPLES, n)
        )
        tail = (1.0 - DEFAULT_CONFIDENCE) / 2.0
        lo, hi = np.quantile(data[idx].mean(axis=1), [tail, 1.0 - tail])
        expected = (float(lo), float(hi))
    for _ in range(2):  # the second call reuses the memoised draw
        assert bootstrap_ci(values, seed=seed) == expected
        s = summarize(values, seed=seed)
        assert (s.ci_low, s.ci_high) == expected


def test_memoised_bootstrap_index_is_read_only():
    idx = _bootstrap_index(3, DEFAULT_RESAMPLES, 0)
    assert _bootstrap_index(3, DEFAULT_RESAMPLES, 0) is idx
    with pytest.raises(ValueError):
        idx[0, 0] = 2


# ---------------------------------------------------------------------------
# summarize
# ---------------------------------------------------------------------------

def test_summarize_location_and_ci():
    s = summarize([2.0, 2.2, 2.4])
    assert s.n == 3
    assert s.mean == pytest.approx(2.2)
    assert s.median == pytest.approx(2.2)
    assert s.ci_low <= s.mean <= s.ci_high


def test_summarize_singleton_has_zero_std():
    s = summarize([4.0])
    assert s.std == 0.0
    assert (s.ci_low, s.ci_high) == (4.0, 4.0)


# ---------------------------------------------------------------------------
# mann_whitney_u
# ---------------------------------------------------------------------------

def test_mann_whitney_separated_samples_small_p():
    res = mann_whitney_u([1.0, 1.1, 1.2], [9.0, 9.1, 9.2])
    assert isinstance(res, RankTest)
    assert res.p_value < 0.1
    # Full separation: U of the smaller-valued sample is 0.
    assert res.u_statistic == 0.0


def test_mann_whitney_identical_samples_p_one():
    res = mann_whitney_u([2.0, 2.0, 2.0], [2.0, 2.0, 2.0])
    assert res.p_value == 1.0


def test_mann_whitney_symmetric_in_arguments():
    a, b = [1.0, 2.0, 3.0], [2.5, 3.5, 4.5]
    assert mann_whitney_u(a, b).p_value == pytest.approx(
        mann_whitney_u(b, a).p_value
    )


def test_mann_whitney_overlapping_samples_large_p():
    res = mann_whitney_u([1.0, 3.0, 5.0], [2.0, 4.0, 6.0])
    assert res.p_value > 0.3


# ---------------------------------------------------------------------------
# permutation_test
# ---------------------------------------------------------------------------

def test_permutation_exact_for_small_samples():
    # 3 vs 3 fully separated: only the identity and its mirror achieve
    # the observed |mean difference| among C(6,3)=20 relabellings.
    p = permutation_test([1.0, 1.1, 1.2], [9.0, 9.1, 9.2])
    assert p == pytest.approx(2 / 20)


def test_permutation_identical_samples_p_one():
    assert permutation_test([2.0, 2.0], [2.0, 2.0]) == 1.0


def test_permutation_deterministic_and_order_independent():
    a, b = [1.0, 2.0, 3.0], [2.5, 3.5, 4.5]
    assert permutation_test(a, b) == permutation_test(
        list(reversed(a)), list(reversed(b))
    )


def test_permutation_byte_identical_across_hash_seeds():
    """The exact enumeration must not depend on interpreter hash
    randomisation (RPL-style determinism contract)."""
    snippet = (
        "from repro.analysis.report.stat_tests import permutation_test;"
        "print(repr(permutation_test([2.31, 2.05, 2.44], "
        "[2.52, 2.61, 2.49])))"
    )
    repo = Path(__file__).resolve().parents[2]
    outs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hash_seed
        env["PYTHONPATH"] = str(repo / "src")
        proc = subprocess.run(
            [sys.executable, "-c", snippet],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# Batched statistics equal the one-sample formulas bit for bit
# ---------------------------------------------------------------------------

#: Few distinct values, so ties are common.
_VALUES = st.one_of(
    st.sampled_from([0.5, 1.0, 2.0, 2.25, 3.1, 7.75, 1e-3, 2.05e4]),
    st.floats(-1e6, 1e6),
)
#: Replicate counts 1-6 (the pair tests enumerate every relabelling).
_SAMPLE = st.lists(_VALUES, min_size=1, max_size=6)


def _hex(summary) -> "tuple":
    return (summary.n, *(float(getattr(summary, f)).hex() for f in (
        "mean", "median", "std", "ci_low", "ci_high")))


def _one_sample_summary(values) -> "tuple":
    """The per-cell formulas on one 1-D sample (no batching)."""
    data = np.asarray(sorted(values), dtype=np.float64)
    if data.size == 1:
        lo = hi = float(data[0])
    else:
        means = data[_bootstrap_index(data.size, DEFAULT_RESAMPLES, 0)].mean(axis=1)
        tail = (1.0 - DEFAULT_CONFIDENCE) / 2.0
        lo, hi = np.quantile(means, [tail, 1.0 - tail])
    std = float(data.std(ddof=1)) if data.size > 1 else 0.0
    return (int(data.size), *(float(v).hex() for v in (
        data.mean(), np.median(data), std, lo, hi)))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(_VALUES, min_size=1, max_size=9), min_size=1, max_size=8))
def test_batched_summaries_equal_one_sample_summaries(samples):
    """A batch mixing replicate counts (Table 2's ragged seeds) folds
    every sample exactly as a batch of one and the 1-D formulas do;
    counts of 8 and more catch a resample mean summed in another order."""
    batch = summarize_batch(samples)
    assert [_hex(s) for s in batch] == [_hex(summarize(v)) for v in samples]
    assert [_hex(s) for s in batch] == [_one_sample_summary(v) for v in samples]
    assert [(s.ci_low, s.ci_high) for s in batch] == [bootstrap_ci(v) for v in samples]


def _one_set_permutation_p(a, b) -> float:
    """The exact permutation p-value, one relabelling at a time."""
    xa, xb = np.sort(np.asarray(a, float)), np.sort(np.asarray(b, float))
    pooled = np.concatenate([xa, xb])
    n, n_a = pooled.size, xa.size
    total = pooled.sum()
    observed = abs(float(xa.mean()) - float(xb.mean()))
    threshold = observed - 1e-12 * max(1.0, observed)
    hits = 0
    for idx in combinations(range(n), n_a):
        sum_a = float(pooled[list(idx)].sum())
        hits += abs(sum_a / n_a - (total - sum_a) / (n - n_a)) >= threshold
    return hits / math.comb(n, n_a)


def _midrank_u(a, b) -> "tuple[float, float]":
    """U and p of the midrank form of the Mann-Whitney test."""
    pooled = np.concatenate([np.sort(a), np.sort(b)])
    n_a, n_b, n = len(a), len(b), len(a) + len(b)
    _, inverse, counts = np.unique(pooled, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    u_a = float(((ends - counts + 1 + ends) / 2.0)[inverse][:n_a].sum())
    u_a -= n_a * (n_a + 1) / 2.0
    tie_term = float(((counts.astype(np.float64) ** 3) - counts).sum())
    sigma_sq = (n_a * n_b / 12.0) * ((n + 1) - tie_term / (n * (n - 1)))
    if sigma_sq <= 0.0:
        return u_a, 1.0
    z = (min(u_a, n_a * n_b - u_a) - n_a * n_b / 2.0 + 0.5) / math.sqrt(sigma_sq)
    return u_a, min(1.0, 2.0 * (1.0 - 0.5 * math.erfc(z / math.sqrt(2.0))))


@settings(max_examples=150, deadline=None)
@given(_SAMPLE, _SAMPLE)
def test_pair_tests_equal_their_one_set_forms(a, b):
    """The permutation test's cached relabelling table and the
    Mann-Whitney pair count give the one-set enumeration's and the
    midrank form's numbers bit for bit, ties included."""
    assert permutation_test(a, b).hex() == _one_set_permutation_p(a, b).hex()
    rank = mann_whitney_u(a, b)
    u_a, p = _midrank_u(a, b)
    assert (rank.u_statistic.hex(), rank.p_value.hex()) == (u_a.hex(), p.hex())
