"""The paper's claims, one executable statement each.

Every key of ``ALL_SWEEPS`` has one claim: a plain function of
``(scale, report.data)`` asserting the qualitative shape the paper (or,
for the extensions, ``EXPERIMENTS.md``) states.  They run in tier-1 at
``tiny`` and, with ``REPRO_BENCH_SCALE=small|full``, at the scale the
prose quotes; either way at the scale's first two replication seeds,
from the session's one sweep fill (``conftest.sweep_reports``).

Where the model misses the paper the claim states what *is* true at
both scales and both seeds, and the miss is written down with its
magnitude in the sweep's section of EXPERIMENTS.md — never fitted away.
"""

import copy
import os

import pytest

from repro.harness.experiments import ALL_SWEEPS
from repro.harness.scales import SCALES
from tests.harness.conftest import claim_seeds

SCALE = os.environ.get("REPRO_BENCH_SCALE", "tiny")


def claim_table2(scale, data):
    # Paper shape: the pass-2 candidate explosion dominates the run.
    assert data["c2_dominates"]
    assert data["c2"] > 10 * data["max_later_candidates"]
    # The iteration terminated on its own (last pass has few/no large sets).
    large = list(data["series"]["large itemsets"].values())
    assert large[-1] <= large[1]


def claim_table3(scale, data):
    series = data["series"]
    counts = list(series["per-node candidate 2-itemsets"].values())
    # Paper shape: near-equal but not equal (skew exists).
    assert max(counts) != min(counts)
    assert series["skew ratio"]["max/mean"] < 1.25


def claim_table4(scale, data):
    # Paper shape: ~2.2-2.4 ms per fault, close to the analytic
    # decomposition (RTT + 4 KB transmit + holder service), far below the
    # >=13 ms disk access.  Queueing pushes the measured value slightly
    # above the analytic one; a generous factor still separates it from
    # disk by a wide margin.
    predicted = data["predicted_ms"]
    for mb, pf_ms in data["series"]["measured per-fault time"].items():
        assert 0.8 * predicted <= pf_ms <= 2.0 * predicted, (mb, pf_ms)
        assert pf_ms < 7.0  # way below any disk's access time


def claim_fig3(scale, data):
    s = SCALES[scale]
    series = data["series"]
    n_min, n_max = min(s.memory_node_counts), max(s.memory_node_counts)
    # Paper shape 1: with few memory nodes the fault service bottlenecks;
    # the curve falls as nodes are added.  The knee's depth grows with
    # the number of application nodes hammering the single holder.
    min_ratio = {"tiny": 1.05, "small": 1.5, "full": 1.8}[scale]
    assert data["bottleneck_ratio"] > min_ratio
    for mb in s.limits_mb:
        curve = series[f"limit {mb:g}MB"]
        assert curve[n_min] > curve[n_max]
    # Paper shape 2: tighter limits sit strictly higher at every point.
    for n in s.memory_node_counts:
        column = [series[f"limit {mb:g}MB"][n] for mb in sorted(s.limits_mb)]
        assert column == sorted(column, reverse=True)
        # Paper shape 3: the no-limit curve is the flat floor.
        assert series["no limit"][n] < min(column)


def claim_fig4(scale, data):
    series = data["series"]
    # Paper shape: strict ordering disk >> simple >> update at every limit.
    for mb in SCALES[scale].limits_mb:
        disk = series["disk swapping"][mb]
        simple = series["simple swapping"][mb]
        update = series["remote update"][mb]
        assert disk > simple > update, (mb, disk, simple, update)
    # Rough factors: the paper's disk/simple gap follows the ~13ms vs
    # ~2.3ms access-time ratio; remote update wins by a larger margin at
    # tight limits.
    assert data["disk_over_simple"] > 3.0
    assert data["simple_over_update"] > 3.0
    # Remote update is nearly flat in the limit (its tight-limit time is
    # within a small factor of its loose-limit time, unlike the others).
    upd, dsk = series["remote update"], series["disk swapping"]
    tight, loose = min(upd), max(upd)
    assert upd[tight] / upd[loose] < 0.25 * (dsk[tight] / dsk[loose])


def claim_fig5(scale, data):
    series = data["series"]
    # Paper shape: "the execution time did not change significantly from
    # case to case ... the overhead of memory contents migration is
    # almost negligible".
    for mb in SCALES[scale].limits_mb:
        base = series["all memory nodes available"][mb]
        one = series["1 memory node unavailable"][mb]
        two = series["2 memory nodes unavailable"][mb]
        assert one < 1.35 * base, (mb, base, one)
        assert two < 1.5 * base, (mb, base, two)
    assert data["worst_overhead_ratio"] < 1.5


def claim_disk(scale, data):
    remote = next(v for k, v in data.items() if k.startswith("remote"))
    barracuda = next(v for k, v in data.items() if "Barracuda" in k)
    hitachi = next(v for k, v in data.items() if "DK3E1T" in k)
    # Paper §5.2's exact claims.
    assert barracuda >= 13.0e-3
    assert hitachi >= 7.5e-3
    assert 2.0e-3 <= remote <= 2.5e-3


def claim_monitor(scale, data):
    times = data["times"]
    # Paper shape: results "are not significantly changed" between 1 s
    # and 3 s, and relaxing further costs nothing.
    assert abs(times[1.0] - times[3.0]) / times[3.0] < 0.10
    assert times[10.0] < 1.15 * times[3.0]
    # The paper's other half — "shorter than 1 sec degrades the system
    # performance" — is a recorded miss (EXPERIMENTS.md, `monitor`): at
    # these node counts sub-second monitoring is second-order in *either*
    # direction — at tiny's own seed 20 ms is 2.2 % and 100 ms 6.0 % faster.
    for short in (0.02, 0.1):
        assert abs(times[short] - times[3.0]) / times[3.0] < 0.10


def claim_policy(scale, data):
    # All policies terminate with faults in the same order of magnitude
    # (hash-line access is near-uniform), and LRU is never the worst.
    mb = SCALES[scale].limits_mb[0]
    times = {p: curve[mb] for p, curve in data["series"].items()}
    assert max(times.values()) < 3 * min(times.values())
    assert times["lru"] <= max(times["fifo"], times["random"])


def claim_churn(scale, data):
    series = data["series"]
    calm = {policy: times["calm"] for policy, times in series.items()}
    # Undisturbed, knowing availability never loses to ignoring it.
    assert calm["most-available"] <= calm["round-robin"]
    # Churn is never free for a policy that reads the availability table.
    for policy, times in series.items():
        if policy != "round-robin":
            assert min(times.values()) == calm[policy], policy
    # Smoothing averages over bursts and keeps routing lines into nodes
    # about to vanish: prediction never beats the freshest broadcast.
    assert series["predictive"]["bursty"] >= series["most-available"]["bursty"]
    # "Availability-aware policies never trail round-robin under churn"
    # is false at every scale and seed measured (EXPERIMENTS.md, `churn`).


def claim_blocksize(scale, data):
    simple, update = data["simple swapping"], data["remote update"]
    # Larger blocks inflate the per-fault transmission time for simple
    # swapping (every fault ships a full block).
    assert simple[16384] > simple[4096]
    # Remote update stays far below simple swapping at every size.
    for size in simple:
        assert update[size] < simple[size]


def claim_eld(scale, data):
    # Duplication removes traffic superlinearly in the duplicated share:
    # the most frequent candidates carry the most counts.
    base_msgs = data[0.0]["count_messages"]
    assert data[0.1]["count_messages"] < 0.9 * base_msgs
    assert data[0.3]["count_messages"] < data[0.1]["count_messages"]
    assert data[0.0]["duplicated"] == 0
    assert data[0.3]["duplicated"] > data[0.02]["duplicated"]


def claim_loss(scale, data):
    assert data[0.001] >= data[0.0]
    assert data[0.01] > data[0.001]
    # 1% loss already costs meaningfully more than lossless operation.
    assert data[0.01] > 1.1 * data[0.0]


def claim_scaling(scale, data):
    speedup = data["speedup"]
    ns = sorted(speedup)
    # Speedup grows monotonically with nodes and stays super-half-linear.
    for a, b in zip(ns, ns[1:]):
        assert speedup[b] > speedup[a]
    assert speedup[ns[-1]] > 0.4 * ns[-1]


def claim_npa(scale, data):
    tight = "12MB"
    # At the tightest limit NPA has overflowed massively while HPA's
    # per-node share fits far better.
    assert data[tight]["npa_swaps"] > data[tight]["hpa_swaps"]
    assert data[tight]["npa_s"] > data[tight]["hpa_s"]
    # NPA degrades far more steeply from no-limit to the tight limit.
    npa_blowup = data[tight]["npa_s"] / data["no limit"]["npa_s"]
    hpa_blowup = data[tight]["hpa_s"] / data["no limit"]["hpa_s"]
    assert npa_blowup > hpa_blowup


CLAIMS = {
    fn.__name__[len("claim_"):]: fn
    for fn in (
        claim_table2, claim_table3, claim_table4, claim_fig3, claim_fig4,
        claim_fig5, claim_disk, claim_monitor, claim_policy, claim_churn,
        claim_blocksize, claim_eld, claim_loss, claim_scaling, claim_npa,
    )
}


def test_every_sweep_has_a_claim():
    assert set(CLAIMS) == set(ALL_SWEEPS) == set(DOCTORED)


@pytest.mark.parametrize("seed", claim_seeds(SCALE))
@pytest.mark.parametrize("name", ALL_SWEEPS)
def test_claim_holds(name, seed, sweep_reports):
    report = sweep_reports(SCALE).reports[name, seed]
    try:
        CLAIMS[name](SCALE, report.data)
    except AssertionError as miss:
        pytest.fail(
            f"claim {name!r} missed at scale={SCALE} seed={seed}: {miss}\n"
            f"{report}", pytrace=False,
        )


# -- the claims bite --------------------------------------------------------

def _swap(mapping, a, b):
    mapping[a], mapping[b] = mapping[b], mapping[a]


def _flatten(mapping):
    """Every point of a curve at its first point's value."""
    mapping.update(dict.fromkeys(mapping, next(iter(mapping.values()))))


def _scaled(mapping, factor, keys=None):
    for key in mapping if keys is None else keys:
        mapping[key] *= factor


#: Per claim, edits of a copy of its real data — series swapped, ratios
#: flattened — each of which the claim must reject.
DOCTORED = {
    "table2": [
        lambda d: d.update(c2_dominates=False),
        lambda d: d.update(max_later_candidates=d["c2"]),
        lambda d: d["series"]["large itemsets"].update(
            {"pass 9": d["series"]["large itemsets"]["pass 2"] + 1}),
    ],
    "table3": [
        lambda d: _flatten(d["series"]["per-node candidate 2-itemsets"]),
        lambda d: d["series"]["skew ratio"].update({"max/mean": 1.3}),
    ],
    "table4": [
        lambda d: _scaled(d["series"]["measured per-fault time"],
                          13.4 / d["predicted_ms"]),
        lambda d: _scaled(d["series"]["measured per-fault time"], 0.5),
    ],
    "fig3": [
        lambda d: d.update(bottleneck_ratio=1.0),
        lambda d: [_flatten(curve) for curve in d["series"].values()],
        lambda d: _swap(d["series"], "limit 12MB", "limit 15MB"),
        lambda d: _swap(d["series"], "limit 15MB", "no limit"),
    ],
    "fig4": [
        lambda d: _swap(d["series"], "disk swapping", "simple swapping"),
        lambda d: _swap(d["series"], "simple swapping", "remote update"),
        lambda d: d.update(disk_over_simple=1.0),
        lambda d: d.update(simple_over_update=1.0),
        lambda d: d["series"].update({"remote update": {
            mb: t / 100 for mb, t in d["series"]["disk swapping"].items()}}),
    ],
    "fig5": [
        lambda d: _scaled(d["series"]["1 memory node unavailable"], 1.5),
        lambda d: _scaled(d["series"]["2 memory nodes unavailable"], 1.6),
        lambda d: d.update(worst_overhead_ratio=1.6),
    ],
    "disk": [
        lambda d: _scaled(d, 0.5, [k for k in d if "Barracuda" in k]),
        lambda d: _scaled(d, 0.5, [k for k in d if "DK3E1T" in k]),
        lambda d: _scaled(d, 3.0, [k for k in d if k.startswith("remote")]),
    ],
    "monitor": [
        lambda d: _scaled(d["times"], 1.2, [1.0]),
        lambda d: _scaled(d["times"], 1.2, [10.0]),
        lambda d: _scaled(d["times"], 1.2, [0.02]),
        lambda d: _scaled(d["times"], 0.8, [0.1]),
    ],
    "policy": [
        lambda d: _scaled(d["series"]["lru"], 1.5),
        lambda d: _scaled(d["series"]["fifo"], 4.0),
    ],
    "churn": [
        lambda d: d["series"]["most-available"].update(
            calm=1.01 * d["series"]["round-robin"]["calm"]),
        lambda d: d["series"]["most-available"].update(
            bursty=0.9 * d["series"]["most-available"]["calm"]),
        lambda d: d["series"]["predictive"].update(
            sawtooth=0.9 * d["series"]["predictive"]["calm"]),
        lambda d: _scaled(d["series"]["predictive"], 0.3),
    ],
    "blocksize": [
        lambda d: _flatten(d["simple swapping"]),
        lambda d: _swap(d, "simple swapping", "remote update"),
    ],
    "eld": [
        lambda d: d[0.1].update(count_messages=d[0.0]["count_messages"]),
        lambda d: _swap(d, 0.1, 0.3),
        lambda d: d[0.0].update(duplicated=1),
        lambda d: d[0.3].update(duplicated=d[0.02]["duplicated"]),
    ],
    "loss": [
        lambda d: _swap(d, 0.0, 0.001),
        lambda d: _swap(d, 0.001, 0.01),
        lambda d: _flatten(d),
    ],
    "scaling": [
        lambda d: _flatten(d["speedup"]),
        lambda d: _scaled(d["speedup"], 0.3, [max(d["speedup"])]),
    ],
    "npa": [
        lambda d: _swap(d["12MB"], "npa_swaps", "hpa_swaps"),
        lambda d: _swap(d["12MB"], "npa_s", "hpa_s"),
        lambda d: _scaled(d["no limit"], 0.1, ["hpa_s"]),
    ],
}


@pytest.mark.parametrize(
    "name, index", [(n, i) for n in DOCTORED for i in range(len(DOCTORED[n]))]
)
def test_claim_rejects_doctored_data(name, index, sweep_reports):
    report = sweep_reports(SCALE).reports[name, claim_seeds(SCALE)[0]]
    data = copy.deepcopy(report.data)
    DOCTORED[name][index](data)
    with pytest.raises(AssertionError):
        CLAIMS[name](SCALE, data)
