"""The end-to-end metrics: names, units, directions, regression bounds.

All ten are printed by ``run.py`` and judged by ``run.py compare``.  The
root ``BENCHMARK.json`` lists the five that every workload reports (its
contract wants every listed metric from every workload, and none that
reads 0): the windowed tail needs dozens of requests a second, which two
workloads have, the open-phase and maintenance latencies exist on one
workload each, and ``error_share`` is 0 on a correct run, so those five
are held to their bounds by ``compare`` alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from road_bench import fixture

ALL = ("interactive_dense", "bulk_sparse", "analysis_process", "zipf_cached_churn")


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str  # "lower" or "higher"
    #: Share of the baseline's median by which the metric may worsen.
    bound: float
    workloads: Tuple[str, ...] = ALL


END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("queries_per_s", "1/s", "higher", 0.25),
    EndToEnd("request_p50_ms", "ms", "lower", 0.25),
    EndToEnd("cpu_ms_per_query", "ms", "lower", 0.25),
    EndToEnd("server_rss_mib", "MiB", "lower", 0.10),
    EndToEnd(
        "request_p95_ms", "ms", "lower", 0.25, ("interactive_dense", "zipf_cached_churn")
    ),
    EndToEnd("open_p50_ms", "ms", "lower", 0.25, ("interactive_dense",)),
    EndToEnd("open_p95_ms", "ms", "lower", 0.25, ("interactive_dense",)),
    EndToEnd("maint_p50_ms", "ms", "lower", 0.25, ("zipf_cached_churn",)),
    # Any increase is a regression: a correct run fails nothing.
    EndToEnd("error_share", "ratio", "lower", 0.0),
)

BY_NAME: Dict[str, EndToEnd] = {metric.name: metric for metric in END_TO_END}

#: Whole-run tails and generator lag of the untraced run: printed as a
#: diagnostic, too noisy to hold to a bound.
DIAGNOSTICS = (
    "serving.http.request_p95_ms",
    "serving.http.request_p99_ms",
    "serving.http.late_p99_ms",
)


def benchmark_json() -> Optional[Dict[str, object]]:
    """The root ``BENCHMARK.json``, or None in a tree without one."""
    path = fixture.REPO_ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text())
