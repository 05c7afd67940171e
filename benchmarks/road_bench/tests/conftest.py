"""Self-tests of the benchmark's own machinery (not tier-1 tests).

Run with ``python -m pytest benchmarks/road_bench/tests -q``.
"""

import sys
from pathlib import Path

_PACKAGE_PARENT = str(Path(__file__).resolve().parent.parent.parent)
if _PACKAGE_PARENT not in sys.path:
    sys.path.insert(0, _PACKAGE_PARENT)

from road_bench import fixture

fixture.bootstrap_source()
