"""The per-transaction Quest fill loop ``QuestGenerator.generate`` ran
before it drew its uniforms in blocks — kept verbatim as the oracle the
block version is tested against (same database, same final PCG64 state).

One NumPy call per draw: ``rng.choice`` per pattern pick, ``rng.random``
per corruption vector and per overflow coin.
"""

import numpy as np

from repro.datagen import QuestGenerator, TransactionDatabase


def reference_generate(gen: QuestGenerator) -> TransactionDatabase:
    """Produce the full database described by ``gen``'s parameters."""
    p = gen.params
    rng = gen._rng
    assert gen._weights is not None and gen._corruption is not None

    txns: list[np.ndarray] = []
    carry: np.ndarray | None = None  # pattern postponed to the next txn
    pattern_idx = np.arange(p.n_patterns)

    target_sizes = np.maximum(1, rng.poisson(p.avg_txn_len, size=p.n_transactions))
    for target in target_sizes:
        target = int(target)
        items: set[int] = set()
        if carry is not None:
            items.update(carry.tolist())
            carry = None
        guard = 0
        while len(items) < target and guard < 50:
            guard += 1
            pi = int(rng.choice(pattern_idx, p=gen._weights))
            pat = gen._patterns[pi]
            c = float(gen._corruption[pi])
            kept = pat[rng.random(pat.size) >= c]
            if kept.size == 0:
                continue
            if len(items) + kept.size > target and items:
                # Doesn't fit: insert anyway half the time, otherwise
                # postpone to the next transaction (VLDB'94 rule).
                if rng.random() < 0.5:
                    items.update(kept.tolist())
                else:
                    carry = kept
                break
            items.update(kept.tolist())
        if not items:
            items.add(int(rng.integers(0, p.n_items)))
        txns.append(np.array(sorted(items), dtype=np.int32))

    return TransactionDatabase.from_arrays(txns, n_items=p.n_items, name=p.workload_name())
