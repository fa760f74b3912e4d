"""Production drivers vs the per-occurrence oracle: bit-identical in
everything simulated.

The counting kernels are host-side only: mined itemsets, per-pass
simulated times, message counts, fault/swap statistics, ELD duplication
decisions, every node's swap-manager counters and the content, order and
timing of every ``"count"`` message must not move by a single bit
between ``repro.mining`` (occurrence codes in ``int64`` arrays) and the
per-occurrence implementation kept in ``tests/mining/reference_hpa.py``.
These tests pin that for HPA (every pager, plus ELD) and NPA, on a
workload that reaches pass 5 so the candidate-index code path (k >= 3)
is exercised too.
"""

from dataclasses import asdict

import numpy as np
import pytest

from repro.datagen import generate
from repro.mining.hpa import HPAConfig, HPARun
from repro.mining.npa import NPAConfig, NPARun
from tests.mining.reference_hpa import ReferenceHPARun, ReferenceNPARun

DB = generate("T8.I3.D600", n_items=100, seed=7)
# Busiest-node pass-2 footprint, for sizing paging limits (as test_hpa).
PER_NODE_BYTES = (3828 // 4) * 24 + (256 // 4) * 16
LIMIT = int(PER_NODE_BYTES * 0.45)

#: Every simulated per-pass quantity the kernels must not change.  The
#: *_wall_s fields are deliberately absent — host time is the only thing
#: allowed to differ.
PASS_FIELDS = (
    "k",
    "n_candidates",
    "n_large",
    "duration_s",
    "candgen_time_s",
    "counting_time_s",
    "determine_time_s",
    "count_messages",
    "faults_per_node",
    "swap_outs_per_node",
    "update_msgs_per_node",
    "n_duplicated",
    "per_node_candidates",
)


def _sim_view(run):
    """Everything simulated about a finished run, plus every node's
    swap-manager counters: the bulk folds must advance them exactly as
    the per-occurrence walk does, not just mine the same result."""
    res = run.result
    return {
        "large": res.large_itemsets,
        "total_time_s": res.total_time_s,
        "passes": [
            {f: getattr(p, f) for f in PASS_FIELDS} for p in res.passes
        ],
        "swap_stats": {a: asdict(mgr.stats) for a, mgr in run.managers.items()},
    }


def _log_wire(run):
    """Record ``(sim time, src, dst, itemsets)`` for every ``"count"``
    message as it is handed to ``Transport.send`` (EOFs included, as the
    sentinel string).  Production payloads are code arrays, decoded
    through the pass's kernel; the oracle's are already itemset lists."""
    log, payload_types, current = [], set(), {}
    transport = run.cluster.transport
    send, sender = transport.send, run._sender_node

    def logged_send(src, dst, channel, payload, size_bytes, *args, **kwargs):
        if channel == "count":
            payload_types.add(type(payload))
            if isinstance(payload, np.ndarray):
                assert payload.dtype == np.int64
                items = current["kernel"].decode(payload)
            else:
                items = payload if isinstance(payload, str) else list(payload)
            log.append((run.env.now, src, dst, items))
        return send(src, dst, channel, payload, size_bytes, *args, **kwargs)

    def logged_sender(a, kernel, dup_counts):
        current["kernel"] = kernel
        return sender(a, kernel, dup_counts)

    transport.send = logged_send
    run._sender_node = logged_sender
    return log, payload_types


def _hpa(cls, **kw):
    base = dict(minsup=0.02, n_app_nodes=4, total_lines=256, seed=1)
    base.update(kw)
    run = cls(DB, HPAConfig(**base))
    wire = _log_wire(run)
    run.run()
    return run, wire


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"pager": "disk", "memory_limit_bytes": LIMIT},
        {"pager": "remote", "n_memory_nodes": 3, "memory_limit_bytes": LIMIT},
        {
            "pager": "remote-update",
            "n_memory_nodes": 3,
            "memory_limit_bytes": LIMIT,
        },
        {"eld_fraction": 0.1},
        {
            "eld_fraction": 0.1,
            "pager": "remote-update",
            "n_memory_nodes": 3,
            "memory_limit_bytes": LIMIT,
        },
        # The ordered walk under the policies that ignore a touch.
        *(
            {"replacement": replacement, "memory_limit_bytes": LIMIT, **pager}
            for replacement in ("fifo", "random")
            for pager in (
                {"pager": "disk"},
                {"pager": "remote", "n_memory_nodes": 3},
                {"pager": "remote-update", "n_memory_nodes": 3},
            )
        ),
    ],
    ids=["none", "disk", "remote", "remote-update", "eld", "eld-remote-update"]
    + [f"{r}-{p}" for r in ("fifo", "random") for p in ("disk", "remote", "remote-update")],
)
def test_hpa_vector_naive_identical(overrides):
    naive, (naive_wire, _) = _hpa(ReferenceHPARun, **overrides)
    vector, (vector_wire, vector_types) = _hpa(HPARun, **overrides)
    assert _sim_view(vector) == _sim_view(naive)
    # DESIGN §9: message boundaries, contents, send order and send times.
    assert len(vector_wire) > 4 * 3  # more than the EOFs
    assert vector_wire == naive_wire
    # One occurrence format: code arrays (and the EOF string), never tuples.
    assert vector_types == {np.ndarray, str}


def test_hpa_reaches_prefix_index_passes():
    """Guard the workload: pass 4+ must exist or the k >= 3
    candidate-index path silently stops being covered above."""
    res = _hpa(HPARun)[0].result
    assert max(p.k for p in res.passes) >= 4


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"pager": "disk", "memory_limit_bytes": int(3828 * 24 * 0.6), "max_k": 2},
        # The local half NPA shares with the HPA sender, under a pager
        # at k >= 3 (candidate-index codes through the fault walk): the
        # limit is sized against C_3 (1357 candidates) so pass 3 faults.
        {
            "pager": "remote",
            "n_memory_nodes": 3,
            "memory_limit_bytes": int(1357 * 24 * 0.6),
            "max_k": 3,
        },
    ],
    ids=["none", "disk", "remote"],
)
def test_npa_vector_naive_identical(overrides):
    def run(cls):
        base = dict(minsup=0.02, n_app_nodes=4, total_lines=256, seed=1)
        base.update(overrides)
        npa = cls(DB, NPAConfig(**base))
        npa.run()
        return npa

    vector = run(NPARun)
    assert _sim_view(vector) == _sim_view(run(ReferenceNPARun))
    if "max_k" in overrides:
        assert max(p.k for p in vector.result.passes) == overrides["max_k"]
        assert sum(vector.result.pass_result(overrides["max_k"]).faults_per_node) > 0
