"""Determinism and correctness properties of the report statistics."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.report.stat_tests import (
    RankTest,
    bootstrap_ci,
    mann_whitney_u,
    permutation_test,
    summarize,
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
