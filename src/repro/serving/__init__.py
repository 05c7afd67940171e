"""repro.serving — the unified serving API.

Four layers:

* :mod:`repro.serving.dispatch` — the query-dispatch protocol: the
  :class:`QueryExecutor` ABC all engines implement, answering each
  declared query kind (:data:`repro.queries.types.QUERY_TYPES`) through
  the executor method the kind names, and the typed
  :class:`UnsupportedQueryError` / :class:`UnknownDirectoryError` /
  :class:`UnknownNodeError` errors.
* :mod:`repro.serving.metrics` / :mod:`repro.serving.wire` /
  :mod:`repro.serving.http` — the observability and HTTP edge: the
  :class:`MetricsRegistry` threaded through the service and scraped by
  ``GET /metrics``, the JSON wire codec, and the stdlib-only ASGI app
  (``python -m repro.serving.http`` hosts it).
* :mod:`repro.serving.service` — the :class:`RoadService` facade: typed
  :class:`ServiceConfig` (the ``REPRO_*`` env vars become overrides),
  sync ``run``/``run_many``, and an asyncio front-end (``await
  service.submit(query)``) whose per-predicate admission buckets flush
  within the event-loop tick while a replica is free — and are held, for
  at most ``max_delay_ms``, only while every replica is busy — all
  through one pipeline: coalesce → cache-split → execute → populate →
  deliver.
* :mod:`repro.serving.replicas` / :mod:`repro.serving.process_pool` —
  what the execute stage hands a batch to, behind one ``submit`` /
  ``apply`` / ``replace_snapshot`` / ``stats`` / ``close`` surface: the
  primary executor itself, inline or on pool threads under its one lock
  (``replica_mode="thread"``), or worker processes attached to one
  shared-memory snapshot (``replica_mode="process"``,
  :class:`~repro.serving.process_pool.ProcessReplicaPool`) kept current
  by patching it in place.

The service layer is imported lazily (PEP 562): the core engine modules
import the dispatch protocol from here, while the service imports those
same engines — laziness breaks the cycle without a shim module.
"""

from repro.serving.dispatch import (
    DEFAULT_DIRECTORY,
    BatchContext,
    QueryExecutor,
    UnknownDirectoryError,
    UnknownNodeError,
    UnsupportedQueryError,
)

__all__ = [
    "DEFAULT_DIRECTORY",
    "BatchContext",
    "MetricError",
    "MetricsRegistry",
    "ProcessPoolError",
    "ProcessReplicaPool",
    "QueryExecutor",
    "ResultCache",
    "RoadService",
    "RoadServiceApp",
    "ServiceConfig",
    "ServiceError",
    "UnknownDirectoryError",
    "UnknownNodeError",
    "UnsupportedQueryError",
    "WireError",
    "WorkerError",
    "serve",
]

_SERVICE_EXPORTS = ("RoadService", "ServiceConfig", "ServiceError")
_POOL_EXPORTS = ("ProcessPoolError", "ProcessReplicaPool", "WorkerError")
_CACHE_EXPORTS = ("ResultCache",)
_METRICS_EXPORTS = ("MetricError", "MetricsRegistry")
_HTTP_EXPORTS = ("RoadServiceApp", "serve")
_WIRE_EXPORTS = ("WireError",)


def __getattr__(name: str):
    if name in _SERVICE_EXPORTS:
        from repro.serving import service

        return getattr(service, name)
    if name in _POOL_EXPORTS:
        from repro.serving import process_pool

        return getattr(process_pool, name)
    if name in _CACHE_EXPORTS:
        from repro.serving import result_cache

        return getattr(result_cache, name)
    if name in _METRICS_EXPORTS:
        from repro.serving import metrics

        return getattr(metrics, name)
    if name in _HTTP_EXPORTS:
        from repro.serving import http

        return getattr(http, name)
    if name in _WIRE_EXPORTS:
        from repro.serving import wire

        return getattr(wire, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(__all__)
