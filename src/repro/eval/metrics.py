"""Measurement primitives: wall time + page I/O per operation.

The paper reports processing time per query (cold cache: "In every run, a
query is initialized with an empty cache") and illustrates per-query page
I/O (Figure 11).  These helpers standardise that protocol across engines.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.baselines.engine import SearchEngine
from repro.queries.types import ResultEntry


@dataclass(frozen=True)
class QueryMeasurement:
    """One query's cost."""

    elapsed_ms: float
    io_reads: int
    io_total: int
    result_size: int


@dataclass
class WorkloadSummary:
    """Aggregate over a workload (the averages the figures plot)."""

    label: str
    measurements: List[QueryMeasurement] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.measurements)

    @property
    def mean_ms(self) -> float:
        """Average processing time in milliseconds."""
        if not self.measurements:
            return 0.0
        return statistics.fmean(m.elapsed_ms for m in self.measurements)

    @property
    def median_ms(self) -> float:
        if not self.measurements:
            return 0.0
        return statistics.median(m.elapsed_ms for m in self.measurements)

    @property
    def mean_io(self) -> float:
        """Average pages read per query."""
        if not self.measurements:
            return 0.0
        return statistics.fmean(m.io_reads for m in self.measurements)

    @property
    def mean_result_size(self) -> float:
        if not self.measurements:
            return 0.0
        return statistics.fmean(m.result_size for m in self.measurements)


def measure_query(engine: SearchEngine, query) -> QueryMeasurement:
    """Run one query cold (empty cache) and capture time + I/O."""
    engine.reset_io()
    start = time.perf_counter()
    result: List[ResultEntry] = engine.execute(query)
    elapsed = time.perf_counter() - start
    stats = engine.io_snapshot()
    return QueryMeasurement(
        elapsed_ms=elapsed * 1000.0,
        io_reads=stats.reads,
        io_total=stats.total_io,
        result_size=len(result),
    )


def run_workload(
    engine: SearchEngine, queries: Sequence, label: str = ""
) -> WorkloadSummary:
    """Measure a whole workload (each query starts cold, per the paper)."""
    summary = WorkloadSummary(label or engine.name)
    for query in queries:
        summary.measurements.append(measure_query(engine, query))
    return summary


def time_call(fn: Callable, *args, **kwargs):
    """(result, seconds) of one call — used for build/update timings."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def snapshot_divergences(
    rnd,
    patched,
    fresh,
    *,
    probes: int = 3,
    k: int = 5,
    max_radius: float = 30.0,
    directory: Optional[str] = None,
) -> List[str]:
    """Probe two FrozenRoad snapshots for byte-identity; return divergences.

    The single definition of the incremental-freeze equivalence contract —
    a patched snapshot must match a fresh ``freeze()`` on results *and*
    SearchStats for every declared query kind, plus a predicate-filtered
    kNN (the patched mask / abstract state) when any object carries
    attributes.  The stats comparison is the whole ``SearchStats``: the
    visit-set footprints drive result-cache invalidation, so a patched
    snapshot reporting a different footprint than a fresh freeze is a
    divergence even when the answers agree.  Every suite holding a
    snapshot to this contract (the patch, serialize and multi-directory
    properties, the serving tests) asserts the returned list is empty, so
    no two can enforce different contracts.

    ``directory`` routes the probes on ``patched`` to one directory of a
    multi-directory snapshot (``fresh`` answers from its own default), so
    a combined snapshot can be held byte-identical to the per-directory
    single freezes it replaces.  ``None`` probes ``patched``'s default.
    """
    from repro.core.search import SearchStats
    from repro.queries.types import (
        AggregateKNNQuery,
        KNNQuery,
        ODMatrixQuery,
        Predicate,
        RangeQuery,
        RouteKNNQuery,
        ServiceAreaQuery,
    )

    # A predicate matching at least one snapshotted object, if any carries
    # attributes — exercises the patched _rnet/_obj masks and abstracts.
    predicate = None
    for obj in patched.object_refs(directory):
        if obj.attrs:
            key, value = sorted(obj.attrs.items())[0]
            predicate = Predicate.of(**{key: value})
            break

    divergences: List[str] = []
    for _ in range(probes):
        node = patched.node_ids[rnd.randrange(patched.num_nodes)]
        radius = rnd.uniform(0.0, max_radius)
        other = patched.node_ids[rnd.randrange(patched.num_nodes)]
        queries = [
            KNNQuery(node, k),
            RangeQuery(node, radius),
            AggregateKNNQuery((node, other), k),
            ODMatrixQuery((node, other), (other, node)),
            ServiceAreaQuery(node, (max_radius / 2.0, max_radius)),
            RouteKNNQuery((node, other), k),
        ]
        if predicate is not None:
            queries.append(KNNQuery(node, k, predicate))
        for query in queries:
            s_patched, s_fresh = SearchStats(), SearchStats()
            got = patched.execute(query, directory=directory, stats=s_patched)
            want = fresh.execute(query, stats=s_fresh)
            if got != want:
                divergences.append(f"{query}: {got} != {want}")
            if s_patched != s_fresh:
                divergences.append(f"{query} stats: {s_patched} != {s_fresh}")
    return divergences
