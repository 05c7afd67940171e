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

The names of :mod:`~repro.serving.service` (asyncio) and
:mod:`~repro.serving.process_pool` (``multiprocessing.connection``)
resolve on first use: a process worker imports the pool module alone and
never loads the asyncio front-end, and a service without process
replicas never loads the pool.
"""

from importlib import import_module
from typing import TYPE_CHECKING, Any, List

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
from repro.serving.result_cache import ResultCache
from repro.serving.wire import WireError

if TYPE_CHECKING:  # pragma: no cover - the lazy names, for type checkers
    from repro.serving.process_pool import (
        ProcessPoolError,
        ProcessReplicaPool,
        WorkerError,
    )
    from repro.serving.service import RoadService, ServiceError

#: Lazily resolved public name -> the module that defines it.
_LAZY = {
    "ProcessPoolError": "repro.serving.process_pool",
    "ProcessReplicaPool": "repro.serving.process_pool",
    "RoadService": "repro.serving.service",
    "ServiceError": "repro.serving.service",
    "WorkerError": "repro.serving.process_pool",
}

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


def __getattr__(name: str) -> Any:
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> List[str]:
    return sorted({*globals(), *_LAZY})
