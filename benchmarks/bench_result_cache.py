"""Cross-request result cache: Zipf repeat mass converted into cache hits.

Production query streams are heavily skewed — a handful of popular
places absorbs most of the traffic.  Admission coalescing already
dedupes *in-flight* duplicates, but every new flush re-executes the
same popular queries from scratch.  This bench races two identically
batched front-ends over one frozen engine and a Zipf-skewed workload
(``NUM_QUERIES`` submits per round drawn rank-weighted from
``DISTINCT_QUERIES`` distinct queries):

* ``uncached`` — coalescing on, result cache off: each round pays one
  ``execute_many`` per flush, the pre-cache behaviour;
* ``cached`` — the same config plus ``ServiceConfig(result_cache=True)``:
  repeat submits across rounds are served from the footprint-carrying
  :class:`repro.serving.result_cache.ResultCache` without touching the
  executor.

Maintenance churn (edge reweighs and object listings) is interleaved
between rounds through the shared engine, so the cached path must keep
re-earning its hits through report-driven invalidation — a stale entry
would surface instantly as a round-identity failure.

Acceptance gates: every round's cached answers must be byte-identical
to the uncached service's answers for the same engine state; a final
warm cached pass must match the sync ``run_many`` reference; the served
snapshot must show zero ``snapshot_divergences`` against a fresh freeze
after all churn; the cache must have recorded hits *and* report-driven
invalidations (the churn actually bit); and — in full runs — the cached
path must clear :data:`MIN_CACHE_SPEEDUP` in queries/sec over the
uncached path (smoke runs skip the timing bar like every other bench:
tiny-network timings are scheduler noise).

Run standalone (``python benchmarks/bench_result_cache.py``) or via
pytest with the usual harness fixtures.
"""

from __future__ import annotations

import asyncio
import collections
import math
import os
import random
import statistics
import sys
import time
from pathlib import Path

try:
    import repro  # noqa: F401  (installed, or PYTHONPATH/pytest-pythonpath)
except ModuleNotFoundError:  # standalone run from a clean checkout
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.eval.config import DEFAULT_OBJECTS
from repro.eval.datasets import dataset_levels, load_dataset
from repro.eval.metrics import snapshot_divergences
from repro.eval.reporting import ExperimentResult
from repro.eval.runner import build_engine, make_objects
from repro.objects.model import SpatialObject
from repro.queries.workload import mixed_workload
from repro.serving import RoadService, ServiceConfig

#: Queries/sec the cached path must gain over the uncached path (full
#: runs; on a Zipf stream the warm rounds skip execution entirely).
MIN_CACHE_SPEEDUP = 3.0

#: Submits per timed round and the distinct pool they draw from.  The
#: Zipf exponent shapes the rank weights (1/(rank+1)^s): the head of
#: the pool dominates, the tail keeps the cache from degenerating into
#: a single hot key.
NUM_QUERIES = 240
DISTINCT_QUERIES = 24
ZIPF_S = 1.1

#: Query shape: heavier than the throughput bench's defaults.  A cache
#: hit saves exactly one execution, so its payoff scales with what a
#: repeated execution costs — the race uses deep kNN and wide ranges so
#: the executor does real traversal work per distinct query.
CACHE_K = 10
CACHE_RANGE_FRACTION = 0.35

#: Timed rounds per path and how often maintenance churn lands between
#: them.  Round 0 is the cold populate; churn before rounds 3 and 6
#: invalidates footprint-dirtied entries, so the cached path re-earns
#: its hits twice while warm rounds stay the median the qps gate reads.
ROUNDS = 8
CHURN_EVERY = 3


def _zipf_workload(network, count, distinct, *, k, radius, seed):
    """``count`` submits drawn rank-weighted from ``distinct`` queries."""
    pool = mixed_workload(network, distinct, k=k, radius=radius, seed=seed)
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(pool))]
    rnd = random.Random(seed + 1)
    return rnd.choices(pool, weights=weights, k=count)


def _submit_all(service, queries):
    """All queries through the async front-end; answers + per-query ms."""

    async def timed(query):
        start = time.perf_counter()
        answer = await service.submit(query)
        return answer, (time.perf_counter() - start) * 1000.0

    async def go():
        return await asyncio.gather(*(timed(q) for q in queries))

    pairs = asyncio.run(go())
    return [answer for answer, _ in pairs], [ms for _, ms in pairs]


def _percentile(sorted_ms, fraction):
    """Nearest-rank percentile over an already sorted latency list."""
    if not sorted_ms:
        return 0.0
    rank = math.ceil(fraction * len(sorted_ms)) - 1
    return sorted_ms[min(max(rank, 0), len(sorted_ms) - 1)]


def _churn(service, step, rnd, hot_node):
    """One maintenance op through the shared engine between rounds.

    Alternates edge reweighs with object listings, both on an edge
    incident to the workload's hottest query node — so the report's
    dirty set provably intersects cached footprints (a random edge on
    a big network would usually miss them, invalidating nothing).
    Both services share the engine, so the uncached side sees the same
    post-patch world; only the cached side has entries to lose.
    """
    edges = sorted((u, v) for u, v, _ in service.executor.network.edges())
    incident = [e for e in edges if hot_node in e] or edges
    u, v = incident[rnd.randrange(len(incident))]
    if step % 2 == 0:
        distance = service.executor.network.edge_distance(u, v)
        service.update_edge_distance(u, v, distance * rnd.choice([0.6, 1.7]))
        return
    directory = service.executor.road.directory()
    delta = rnd.uniform(0.0, service.executor.network.edge_distance(u, v))
    service.insert_object(
        SpatialObject(directory.objects.next_id(), (u, v), delta, {})
    )


def run_cache_comparison(
    *,
    network: str = "CA",
    num_objects: int = DEFAULT_OBJECTS,
    k: int = CACHE_K,
    fraction: float = CACHE_RANGE_FRACTION,
    num_queries: int = NUM_QUERIES,
    distinct: int = DISTINCT_QUERIES,
    num_nodes=None,
    rounds: int = ROUNDS,
    seed: int = 0,
):
    """Race cached vs uncached serving over one frozen engine.

    Returns ``(result, summary)``: the rendered table data and
    ``{path: {qps, p50/p95/p99}}`` plus the speedup, per-round identity,
    divergence and cache-counter verdicts.  ``num_nodes`` overrides the
    profile size (CI smoke runs use a tiny replica).
    """
    dataset = load_dataset(network, num_nodes)
    objects = make_objects(dataset.network, num_objects, seed=seed)
    engine = build_engine(
        "ROAD", dataset.network, objects,
        road_levels=dataset_levels(network), road_mode_override="frozen",
    )
    radius = dataset.radius(fraction)
    queries = _zipf_workload(
        dataset.network, num_queries, distinct, k=k, radius=radius, seed=seed
    )
    batching = dict(max_batch=num_queries, max_delay_ms=50.0)
    uncached = RoadService(
        engine, config=ServiceConfig(mode="frozen", **batching)
    )
    cached = RoadService(
        engine,
        config=ServiceConfig(
            mode="frozen", result_cache=True,
            cache_budget=4 * distinct, **batching,
        ),
    )

    rnd = random.Random(seed + 17)
    hot_node = collections.Counter(
        q.node for q in queries if hasattr(q, "node")
    ).most_common(1)[0][0]
    walls = {"uncached": [], "cached": []}
    latencies = {"uncached": [], "cached": []}
    rounds_identical = []
    churn_ops = 0
    for step in range(rounds):
        if step and step % CHURN_EVERY == 0:
            _churn(cached, step, rnd, hot_node)
            churn_ops += 1
        start = time.perf_counter()
        expected, round_ms = _submit_all(uncached, queries)
        walls["uncached"].append((time.perf_counter() - start) * 1000.0)
        latencies["uncached"].extend(round_ms)
        start = time.perf_counter()
        answers, round_ms = _submit_all(cached, queries)
        walls["cached"].append((time.perf_counter() - start) * 1000.0)
        latencies["cached"].extend(round_ms)
        rounds_identical.append(answers == expected)

    # A final warm pass against the sync reference: hit-served answers
    # must still be the objects run_many would compute right now.
    reference = uncached.run_many(queries)
    sync_identical = _submit_all(cached, queries)[0] == reference

    # The served snapshot itself must agree with a fresh freeze of the
    # maintained road — churn patched, not corrupted, what the cache
    # footprints were recorded against.
    fresh = engine.road.freeze()
    probe = random.Random(seed + 23)
    snapshots = cached.replicas or [cached.executor.frozen]
    divergences = sum(
        len(snapshot_divergences(probe, snapshot, fresh, probes=3))
        for snapshot in snapshots
    )
    fresh.close()

    cache_stats = dict(cached.stats()["result_cache"])

    result = ExperimentResult(
        "result_cache",
        f"Cross-request result cache on {network} "
        f"(|O|={num_objects}, {num_queries} Zipf submits over "
        f"{distinct} distinct, s={ZIPF_S}, {rounds} rounds, "
        f"{churn_ops} churn ops)",
        [
            "path", "wall_ms", "p50_ms", "p95_ms", "p99_ms",
            "qps", "speedup", "identical",
        ],
    )
    summary = {
        "rounds_identical": all(rounds_identical),
        "sync_identical": sync_identical,
        "divergences": divergences,
        "cache": cache_stats,
        "churn_ops": churn_ops,
    }
    uncached_ms = statistics.median(walls["uncached"])
    for name in ("uncached", "cached"):
        wall_ms = statistics.median(walls[name])
        ordered = sorted(latencies[name])
        qps = num_queries / (wall_ms / 1000.0) if wall_ms else float("inf")
        speedup = uncached_ms / wall_ms if wall_ms else float("inf")
        summary[name] = {
            "qps": qps,
            "p50_ms": _percentile(ordered, 0.50),
            "p95_ms": _percentile(ordered, 0.95),
            "p99_ms": _percentile(ordered, 0.99),
        }
        result.add_row(
            path=name,
            wall_ms=wall_ms,
            p50_ms=summary[name]["p50_ms"],
            p95_ms=summary[name]["p95_ms"],
            p99_ms=summary[name]["p99_ms"],
            qps=f"{qps:,.0f}",
            speedup=f"{speedup:.2f}x",
            identical=str(all(rounds_identical) if name == "cached" else True),
        )
    summary["speedup"] = uncached_ms / statistics.median(walls["cached"])

    for service in (cached, uncached):
        service.close()

    result.note(
        f"workload: {num_queries} submits/round rank-weighted "
        f"1/(rank+1)^{ZIPF_S} over {distinct} distinct queries; churn "
        f"(edge reweighs + object listings) lands every {CHURN_EVERY} "
        f"rounds through the shared engine, so cached answers must be "
        f"re-earned through report-driven invalidation"
    )
    lookups = cache_stats["hits"] + cache_stats["misses"]
    hit_ratio = cache_stats["hits"] / lookups if lookups else 0.0
    result.note(
        f"cache counters: {cache_stats['hits']} hits / "
        f"{cache_stats['misses']} misses / "
        f"{cache_stats['invalidations']} invalidations / "
        f"{cache_stats['evictions']} evictions "
        f"(hit ratio {hit_ratio:.2f}, budget {cache_stats['budget']})"
    )
    result.note(
        f"gates: cached answers byte-identical to uncached every round "
        f"and to sync run_many after the final warm pass; 0 snapshot "
        f"divergences after churn; hits and invalidations both "
        f"recorded; cached >= {MIN_CACHE_SPEEDUP:.0f}x uncached "
        f"queries/sec (full runs)"
    )
    result.note(
        f"params: network={network} num_nodes={dataset.network.num_nodes} "
        f"objects={num_objects} k={k} rounds={rounds} seed={seed}"
    )
    return result, summary


def _assert_gates(summary, *, smoke: bool) -> None:
    """The acceptance bars shared by the pytest gate and main()."""
    assert summary["rounds_identical"], (
        "cached answers diverged from the uncached service inside a "
        "round — a stale entry survived maintenance churn"
    )
    assert summary["sync_identical"], (
        "warm cached answers diverged from the sync run_many reference"
    )
    assert summary["divergences"] == 0, (
        f"{summary['divergences']} snapshot divergence(s) against a "
        f"fresh freeze after churn"
    )
    cache = summary["cache"]
    assert cache["hits"] > 0, "the Zipf workload produced no cache hits"
    assert cache["invalidations"] > 0, (
        "interleaved churn invalidated nothing — the report-driven "
        "eviction path never ran"
    )
    if not smoke:  # tiny-network timings are scheduler noise
        speedup = summary["speedup"]
        assert speedup >= MIN_CACHE_SPEEDUP, (
            f"result cache only {speedup:.2f}x uncached serving "
            f"(bar: {MIN_CACHE_SPEEDUP:.1f}x)"
        )


def test_result_cache(results_dir):
    """The acceptance gate: >=3x uncached throughput, zero divergences."""
    from conftest import publish

    result, summary = run_cache_comparison()
    _assert_gates(summary, smoke=False)
    publish(result, results_dir)


def main() -> int:
    from conftest import publish_main

    smoke = bool(os.environ.get("REPRO_BENCH_SMOKE"))
    if smoke:
        result, summary = run_cache_comparison(
            num_nodes=300, num_queries=100, distinct=16,
        )
    else:
        result, summary = run_cache_comparison()
    publish_main(
        result, smoke=smoke,
        smoke_note="smoke mode: 300-node replica, 100 Zipf submits — "
                   "not comparable to full CA runs",
    )
    _assert_gates(summary, smoke=smoke)
    cache = summary["cache"]
    print(
        f"\nresult cache: {summary['speedup']:.2f}x uncached serving "
        f"({summary['cached']['qps']:,.0f} vs "
        f"{summary['uncached']['qps']:,.0f} queries/sec); "
        f"{cache['hits']} hits, {cache['invalidations']} invalidations "
        f"across {summary['churn_ops']} churn ops"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
