"""Association-rule derivation from large itemsets.

Given the large itemsets with their support counts, emit every rule
``antecedent => consequent`` whose confidence
(= support(itemset) / support(antecedent)) meets the user threshold —
the final step of §2.1 ("Association rules that satisfy user-specified
minimum confidence can be derived from these large itemsets").
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Mapping

from repro.errors import MiningError
from repro.mining.itemsets import Itemset

__all__ = ["Rule", "derive_rules"]


@dataclass(frozen=True)
class Rule:
    """One association rule with its quality measures.

    ``lift`` > 1 means the antecedent genuinely raises the consequent's
    probability; 1 means independence (0.0 when the consequent's own
    support was unavailable).
    """

    antecedent: Itemset
    consequent: Itemset
    support: float
    confidence: float
    lift: float = 0.0

    def __str__(self) -> str:
        lhs = ",".join(map(str, self.antecedent))
        rhs = ",".join(map(str, self.consequent))
        return (
            f"{{{lhs}}} => {{{rhs}}} (sup={self.support:.4f}, "
            f"conf={self.confidence:.3f}, lift={self.lift:.2f})"
        )


def derive_rules(
    large_itemsets: Mapping[Itemset, int],
    n_transactions: int,
    min_confidence: float,
) -> list[Rule]:
    """All rules meeting ``min_confidence``, sorted by confidence desc.

    ``large_itemsets`` must be downward-closed (every subset of a large
    itemset present) — which Apriori guarantees — otherwise confidence
    for some splits cannot be computed and a :class:`MiningError` names
    the missing subset.
    """
    if not 0.0 < min_confidence <= 1.0:
        raise MiningError(f"min_confidence must be in (0, 1], got {min_confidence}")
    if n_transactions <= 0:
        raise MiningError(f"n_transactions must be positive, got {n_transactions}")

    rules: list[Rule] = []
    for itemset, sup_count in large_itemsets.items():
        if len(itemset) < 2:
            continue
        for r in range(1, len(itemset)):
            for antecedent in combinations(itemset, r):
                if antecedent not in large_itemsets:
                    raise MiningError(
                        f"large itemsets not downward-closed: missing {antecedent}"
                    )
                conf = sup_count / large_itemsets[antecedent]
                if conf >= min_confidence:
                    consequent = tuple(i for i in itemset if i not in antecedent)
                    # Lift needs the consequent's own support; Apriori's
                    # downward closure guarantees it is present.
                    cons_sup = large_itemsets.get(consequent)
                    lift = (
                        conf / (cons_sup / n_transactions)
                        if cons_sup
                        else 0.0
                    )
                    rules.append(
                        Rule(
                            antecedent=antecedent,
                            consequent=consequent,
                            support=sup_count / n_transactions,
                            confidence=conf,
                            lift=lift,
                        )
                    )
    rules.sort(key=lambda r: (-r.confidence, -r.support, r.antecedent, r.consequent))
    return rules
