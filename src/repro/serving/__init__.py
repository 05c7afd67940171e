"""repro.serving — the unified serving API, on top of the library.

The layers import downwards only: ``queries`` ← ``core`` ← {``baselines``,
``serving``}; this package never imports the paper's comparison
engines.  The dispatch protocol every engine implements lives in
:mod:`repro.core.dispatch` and is re-exported here.  The executor
:meth:`RoadService.build` creates, a
:class:`~repro.core.owner.SnapshotOwner`, is the only code holding the
ROAD: it serves every query from its compiled snapshot, applies every
write and keeps that snapshot current, while this package admits
queries, caches answers and fans each write's report out.

* :mod:`~repro.serving.config` — the typed :class:`ServiceConfig`.
* :mod:`~repro.serving.service` — the :class:`RoadService` admission
  pipeline: coalesce → cache-split → execute → populate → deliver.
* :mod:`~repro.serving.replicas` / :mod:`~repro.serving.process_pool`
  — where a batch executes: the primary executor itself, inline or on
  pool threads under its one lock, or worker processes attached to one
  shared-memory snapshot the owner froze, patched in place per report.
* :mod:`~repro.serving.result_cache` — the cross-request result cache.
* :mod:`~repro.serving.metrics` / :mod:`~repro.serving.wire` /
  :mod:`~repro.serving.http` — ``GET /metrics``, the JSON wire codec,
  and the stdlib-only ASGI app.  ``python -m repro.serving.http`` runs
  that module, so the package does not import it: import
  ``RoadServiceApp`` / ``serve`` from it directly.
"""

from repro.core.dispatch import (
    DEFAULT_DIRECTORY,
    BatchContext,
    QueryExecutor,
    UnknownDirectoryError,
    UnknownNodeError,
    UnsupportedQueryError,
)
from repro.serving.config import ServiceConfig
from repro.serving.metrics import MetricError, MetricsRegistry
from repro.serving.process_pool import (
    ProcessPoolError,
    ProcessReplicaPool,
    WorkerError,
)
from repro.serving.result_cache import ResultCache
from repro.serving.service import RoadService, ServiceError
from repro.serving.wire import WireError

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
    "ServiceConfig",
    "ServiceError",
    "UnknownDirectoryError",
    "UnknownNodeError",
    "UnsupportedQueryError",
    "WireError",
    "WorkerError",
]
