"""The replica hand-off: where an admitted batch actually executes.

:class:`~repro.serving.service.RoadService` hands every batch to one
*replica set*, picked once at construction: :class:`LocalReplicas` (the
primary executor's own snapshot, the batch run inside the call or on a
pool thread) or :class:`~repro.serving.process_pool.ProcessReplicaPool`
(worker processes attached to one shared-memory snapshot).  Replicas
decide *where* a batch runs, never *what* it runs on: a set holds at
most one snapshot.  Both have the surface the process pool has always
had:

``submit(queries, directory, *, footprints=False)``
    Execute one batch; returns a :class:`concurrent.futures.Future`
    resolving to what :func:`execute_batch` returns.  A batch the set
    cannot take (closed, degraded, every worker dead) raises instead.
``apply(report)``
    Patch the snapshot the set holds with one maintenance report.
``replace_snapshot(snapshot)``
    Swap in a freshly frozen snapshot.
``stats()``
    Pool counters and liveness under mode-independent key names.
``path_stats()``
    ChoosePath cache sizes held outside the primary's snapshot (what
    process workers cached; nothing for local replicas).
``replicas`` / ``frozen`` / ``workers`` / ``closed``
    The snapshot held (``()`` when batches run on the primary), the one
    submits are validated against (``None``: the primary), the worker
    count, and whether ``close()`` — idempotent, and remembered — has
    run.
"""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor
from typing import TYPE_CHECKING, Any, Dict, Optional, Sequence, Tuple

from repro.serving.result_cache import node_footprint

if TYPE_CHECKING:  # pragma: no cover - annotations only
    import threading

    from repro.core.dispatch import QueryExecutor
    from repro.core.frozen import FrozenRoad
    from repro.core.maintenance import MaintenanceReport

#: Counter names every replica set reports (``ProcessReplicaPool.stats()``
#: field names, so ``replica_pool_stats()`` is uniform across modes).
POOL_COUNTERS = ("batches", "queries", "syncs", "reloads", "retries", "worker_deaths")


def execute_batch(
    executor: "QueryExecutor",
    queries: Sequence[object],
    directory: str,
    footprints: bool,
) -> Any:
    """Execute one batch on one executor — the only place that does.

    Without ``footprints`` the batch is one ``execute_many`` (the
    per-predicate batch caches apply) and the answers come back as a
    list.  With it each query runs individually under its own
    :class:`~repro.core.search.SearchStats` and the result is
    ``(answers, [(visited_nodes, visited_rnets, bypassed_rnets), ...])``
    — the per-query visit sets the result cache records as invalidation
    footprints, converted here (on the replica's thread or in its
    process; each set to a sorted tuple) so the cache keeps these very
    objects instead of copying them under its lock.
    """
    if not footprints:
        return executor.execute_many(queries, directory=directory)
    from repro.core.search import SearchStats

    answers = []
    visited = []
    for query in queries:
        stats = SearchStats()
        answers.append(executor.execute(query, directory=directory, stats=stats))
        visited.append(
            (
                node_footprint(stats.visited_nodes),
                node_footprint(stats.visited_rnets),
                node_footprint(stats.bypassed_rnets),
            )
        )
    return answers, visited


class LocalReplicas:
    """Batches run on the primary executor, under the one executor lock.

    ``workers == 0`` runs a batch inside :meth:`submit`; ``workers > 0``
    hands it to a pool of that many threads.  Either way the batch holds
    ``executor_lock`` — the lock the service takes around every other
    touch of the executor (maintenance, directory management, the sync
    path) — so a write never lands under an executing batch, and the
    primary's own snapshot, which the executor patches itself, is the
    only one there is.  The kernel is pure Python under one GIL, so the
    threads buy loop liveness, not parallelism.  The counters are
    touched only by the dispatching thread — informational, not
    synchronised.
    """

    replicas: Tuple["FrozenRoad", ...] = ()
    frozen: Optional["FrozenRoad"] = None

    def __init__(
        self,
        executor: "QueryExecutor",
        executor_lock: "threading.Lock",
        workers: int = 0,
    ) -> None:
        self._executor = executor
        self._executor_lock = executor_lock
        self.workers = workers
        self._pool = (
            ThreadPoolExecutor(max_workers=workers, thread_name_prefix="road-svc")
            if workers
            else None
        )
        self._counters = dict.fromkeys(POOL_COUNTERS, 0)
        self.closed = False

    def submit(
        self, queries: Sequence[object], directory: str, *, footprints: bool = False
    ) -> "Future[Any]":
        """Run the batch now, or hand it to a pool thread.

        Inline, a failure raises like a refused hand-off.
        """
        self._counters["batches"] += 1
        self._counters["queries"] += len(queries)
        if self._pool is not None:
            return self._pool.submit(self._run, queries, directory, footprints)
        future: "Future[Any]" = Future()
        future.set_result(self._run(queries, directory, footprints))
        return future

    def _run(self, queries: Sequence[object], directory: str, footprints: bool) -> Any:
        with self._executor_lock:
            return execute_batch(self._executor, queries, directory, footprints)

    def apply(self, report: "MaintenanceReport") -> None:
        """Nothing to patch: the primary executor reconciles itself."""

    def replace_snapshot(self, snapshot: "FrozenRoad") -> None:
        """Nothing to swap: batches run on the primary's own snapshot."""

    def stats(self) -> Dict[str, object]:
        """``syncs``/``reloads``/``retries``/``worker_deaths`` stay 0:
        there is no snapshot of its own to patch or swap, and threads
        neither re-attach nor die silently."""
        return {
            **self._counters,
            "workers": self.workers,
            "alive": 0 if self.closed else self.workers,
            "closed": self.closed,
            # A failed patch raises straight to the maintenance caller.
            "degraded": False,
        }

    def path_stats(self) -> Dict[str, int]:
        """Nothing beyond the primary's snapshot: batches run on it."""
        return {}

    def close(self) -> None:
        """Let in-flight batches finish, then stop the pool threads."""
        self.closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True)
