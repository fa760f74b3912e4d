"""Association-rule mining substrate: Apriori, HPA, and supporting structures."""

from repro.mining.apriori import AprioriResult, PassProfile, apriori
from repro.mining.candidates import generate_candidates, join, prune
from repro.mining.hash_table import LINE_HEADER_BYTES, CandidateHashTable, HashLine
from repro.mining.itemsets import (
    ITEMSET_BYTES,
    Itemset,
    is_valid_itemset,
    itemset_hash,
    k_subsets,
    make_itemset,
)
from repro.mining.kernels import (
    OWNER_DUPLICATED,
    CountingKernel,
    OwnerStreams,
    PrefixIndex,
    count_candidates,
    eld_scores,
)
from repro.mining.partition import HashPartitioner, SkewStats, skew_statistics
from repro.mining.rules import Rule, derive_rules

__all__ = [
    "apriori",
    "AprioriResult",
    "PassProfile",
    "generate_candidates",
    "join",
    "prune",
    "Itemset",
    "ITEMSET_BYTES",
    "make_itemset",
    "itemset_hash",
    "k_subsets",
    "is_valid_itemset",
    "HashLine",
    "CandidateHashTable",
    "OWNER_DUPLICATED",
    "CountingKernel",
    "OwnerStreams",
    "PrefixIndex",
    "count_candidates",
    "eld_scores",
    "LINE_HEADER_BYTES",
    "HashPartitioner",
    "SkewStats",
    "skew_statistics",
    "Rule",
    "derive_rules",
]
