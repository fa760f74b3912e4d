"""Every contradictory RunConfig is rejected at construction time.

One test per rejection branch in
:func:`repro.runtime.config.validate_config`: invalid configurations
must raise :class:`~repro.errors.ConfigError` (a
:class:`~repro.errors.MiningError` subclass, so pre-refactor callers
catching MiningError still work) and must never reach the builder.
"""

import pytest

from repro.errors import ConfigError, MiningError
from repro.runtime import RunConfig
from repro.runtime.config import (
    PAGERS,
    PLACEMENT_POLICIES,
    REPLACEMENT_POLICIES,
)


def test_valid_default_config_builds():
    cfg = RunConfig()
    assert cfg.pager == "none"
    assert cfg.n_memory_nodes == 0


def test_config_error_is_mining_error():
    assert issubclass(ConfigError, MiningError)


@pytest.mark.parametrize("minsup", [0.0, -0.1, 1.5])
def test_rejects_minsup_out_of_range(minsup):
    with pytest.raises(ConfigError, match="minsup"):
        RunConfig(minsup=minsup)


@pytest.mark.parametrize("eld", [-0.1, 1.01])
def test_rejects_eld_fraction_out_of_range(eld):
    with pytest.raises(ConfigError, match="eld_fraction"):
        RunConfig(eld_fraction=eld)


@pytest.mark.parametrize("n", [0, -1])
def test_rejects_nonpositive_app_nodes(n):
    with pytest.raises(ConfigError, match="application node"):
        RunConfig(n_app_nodes=n)


def test_rejects_negative_memory_nodes():
    with pytest.raises(ConfigError, match="n_memory_nodes"):
        RunConfig(n_memory_nodes=-1)


@pytest.mark.parametrize("lines", [0, -4])
def test_rejects_nonpositive_total_lines(lines):
    with pytest.raises(ConfigError, match="total_lines"):
        RunConfig(total_lines=lines)


def test_rejects_negative_max_k():
    with pytest.raises(ConfigError, match="max_k"):
        RunConfig(max_k=-1)


def test_rejects_unknown_pager():
    with pytest.raises(ConfigError, match="pager"):
        RunConfig(pager="carrier-pigeon")


def test_rejects_unknown_replacement_policy():
    with pytest.raises(ConfigError, match="replacement"):
        RunConfig(replacement="mru")


def test_rejects_unknown_placement_policy():
    with pytest.raises(ConfigError, match="placement"):
        RunConfig(placement="first-fit")


def test_kernel_is_not_a_field():
    """One counting implementation left, so no option selects it."""
    from dataclasses import fields

    from repro.mining.hpa import HPAConfig
    from repro.mining.npa import NPAConfig

    for cls in (RunConfig, HPAConfig, NPAConfig):
        assert "kernel" not in {f.name for f in fields(cls)}
        with pytest.raises(TypeError, match="kernel"):
            cls(kernel="vector")


@pytest.mark.parametrize("pager", ["remote", "remote-update"])
def test_rejects_remote_pager_without_memory_nodes(pager):
    with pytest.raises(ConfigError, match="memory-available"):
        RunConfig(pager=pager, n_memory_nodes=0)


def test_rejects_memory_limit_without_pager():
    with pytest.raises(ConfigError, match="requires a pager"):
        RunConfig(memory_limit_bytes=1 << 20, pager="none")


@pytest.mark.parametrize("limit", [0, -5])
def test_rejects_nonpositive_memory_limit(limit):
    with pytest.raises(ConfigError, match="memory_limit_bytes"):
        RunConfig(memory_limit_bytes=limit, pager="disk")


@pytest.mark.parametrize("pager", ["none", "disk"])
def test_rejects_disk_fallback_on_non_remote_pager(pager):
    kw = {"n_memory_nodes": 0}
    with pytest.raises(ConfigError, match="disk_fallback"):
        RunConfig(pager=pager, disk_fallback=True, **kw)


@pytest.mark.parametrize("p", [-0.1, 1.0])
def test_rejects_loss_probability_out_of_range(p):
    with pytest.raises(ConfigError, match="loss_probability"):
        RunConfig(loss_probability=p)


def test_rejects_nonpositive_monitor_interval():
    with pytest.raises(ConfigError, match="monitor_interval_s"):
        RunConfig(monitor_interval_s=0.0, n_memory_nodes=2)


def test_rejects_monitor_interval_without_memory_nodes():
    with pytest.raises(ConfigError, match="monitor"):
        RunConfig(monitor_interval_s=0.5, n_memory_nodes=0)


def test_npa_config_rejects_eld_fraction():
    from repro.mining.npa import NPAConfig

    with pytest.raises(ConfigError, match="eld_fraction"):
        NPAConfig(eld_fraction=0.2)


def test_catalogue_constants_are_consistent():
    assert "none" in PAGERS and "remote-update" in PAGERS
    assert "lru" in REPLACEMENT_POLICIES
    assert "most-available" in PLACEMENT_POLICIES
    assert "migrate-ahead" in PLACEMENT_POLICIES


def test_every_vocabulary_value_is_built_and_used():
    """Data only, no runs: each config vocabulary equals what its factory
    builds, and every placement and trace kind is set by some sweep grid
    at ``tiny`` or some catalogue scenario, so an unused value cannot come
    back unnoticed."""
    from repro.cluster.dynamics import TRACE_KINDS, parse_trace
    from repro.core.placement import _POLICIES
    from repro.core.policies import ReplacementPolicy, make_policy
    from repro.harness.experiments import ALL_SWEEPS
    from repro.runtime.scenarios import SCENARIOS

    assert set(PLACEMENT_POLICIES) == set(_POLICIES)
    replacement = set(REPLACEMENT_POLICIES)
    assert {make_policy(name).name for name in replacement} == replacement
    assert {cls.name for cls in ReplacementPolicy.__subclasses__()} == replacement

    used = list(SCENARIOS.values())
    for sweep in ALL_SWEEPS.values():
        used.extend(sweep.scenarios("tiny").values())
    assert {s.placement for s in used} == set(PLACEMENT_POLICIES)
    kinds = {parse_trace(s.churn).kind for s in used if s.churn != "none"}
    assert kinds == set(TRACE_KINDS) - {"none"}


# --- cluster-dynamics axes -------------------------------------------------

def test_accepts_churn_trace_with_memory_nodes():
    cfg = RunConfig(
        pager="remote", n_memory_nodes=2,
        churn="sawtooth:period=0.04,low=0.1,high=0.9",
    )
    assert cfg.churn.startswith("sawtooth")


@pytest.mark.parametrize("spec", ["wobble", "constant:frac=1.5", "sawtooth:steps=1"])
def test_rejects_malformed_churn_spec(spec):
    with pytest.raises(ConfigError):
        RunConfig(pager="remote", n_memory_nodes=2, churn=spec)


def test_rejects_churn_without_memory_nodes():
    with pytest.raises(ConfigError, match="n_memory_nodes"):
        RunConfig(churn="constant:frac=0.5")


def test_failures_normalised_to_nested_tuples():
    cfg = RunConfig(
        pager="remote", n_memory_nodes=2, failures=[[0.05, 1, 0.02]]
    )
    assert cfg.failures == ((0.05, 1, 0.02),)


@pytest.mark.parametrize(
    "failures, match",
    [
        (((0.05, 1),), "at_s, memory_node_index, down_s"),
        (((-0.1, 1, 0.02),), "failure time"),
        (((0.05, 1, 0.0),), "down-time"),
        (((0.05, 5, 0.02),), "node index"),
        (((0.05, 1.5, 0.02),), "node index"),
    ],
)
def test_rejects_malformed_failures(failures, match):
    with pytest.raises(ConfigError, match=match):
        RunConfig(pager="remote", n_memory_nodes=2, failures=failures)
