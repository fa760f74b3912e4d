"""RPL601 fixture: a model-layer module reaching into repro.analysis.

Never imported — parsed by the repro-lint self-tests, which pin the
exact error codes and line numbers below.
"""

import repro.analysis  # line 7: RPL601
from repro import analysis  # line 8: RPL601
from repro.analysis.pagefault import pagefault_row  # line 9: RPL601
from repro.cluster.costs import PAPER_COSTS


def fault_budget():
    from repro.analysis import disk_comparison  # line 14: RPL601

    return PAPER_COSTS, analysis, pagefault_row, disk_comparison, repro
