"""RPL601 clean twin: the model reads its costs and closed forms
model-side, from repro.cluster, at module level or lazily."""

from repro.cluster.costs import PAPER_COSTS
from repro.cluster.specs import ATM_155


def fault_budget():
    from repro.cluster import costs

    return PAPER_COSTS.remote_fault_time_s(ATM_155), costs.ITEMSET_BYTES
