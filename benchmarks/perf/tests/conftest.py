"""Self-tests of the benchmark (outside tier-1's ``testpaths``):

    python -m pytest benchmarks/perf/tests -q
"""

import sys
from pathlib import Path

PERF = Path(__file__).resolve().parents[1]
ROOT = PERF.parents[1]
for path in (ROOT / "src", PERF):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
