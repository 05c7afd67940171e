"""The typed serving configuration: :class:`ServiceConfig` and the
``REPRO_*`` environment overrides :meth:`ServiceConfig.from_env` reads.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict

from repro.baselines.road_adapter import MODE_ENV, ROAD_MODES

#: ROAD serving modes — the one source of truth lives on the engine.
MODES = ROAD_MODES

#: Where replica batches execute: pool threads on the primary's own
#: snapshot, or worker processes over one shared-memory snapshot.
REPLICA_MODES = ("thread", "process")

#: Environment overrides honoured by :meth:`ServiceConfig.from_env`
#: (beside ``MODE_ENV``).
REPLICAS_ENV = "REPRO_REPLICAS"
REPLICA_MODE_ENV = "REPRO_REPLICA_MODE"
RESULT_CACHE_ENV = "REPRO_RESULT_CACHE"
CACHE_BUDGET_ENV = "REPRO_CACHE_BUDGET"


def _parse_bool(name: str, raw: str) -> bool:
    """A strict boolean env flag — a typo must not silently disable."""
    value = raw.strip().lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off", ""):
        return False
    raise ValueError(f"{name} must be a boolean flag, got {raw!r}")


def _parse_int(name: str, raw: str) -> int:
    """An integer env override — a typo must name its variable."""
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None


@dataclass(frozen=True)
class ServiceConfig:
    """Typed serving configuration: what was previously ``REPRO_*`` sprawl.

    ``mode``, ``levels`` and ``fanout`` configure the ROAD serving path
    exactly like the eponymous
    :class:`~repro.baselines.road_adapter.ROADEngine` knobs.
    The remaining fields drive the async front-end: ``max_batch`` caps
    how many queries one admission flush may hold, ``max_delay_ms`` is
    the upper bound on how long an under-full bucket is held while
    every replica is busy (with a replica free it is flushed within the
    event-loop tick and never meets the timer), ``replicas`` how many
    workers execute batches (0 = inside the flush, on the event-loop
    thread), and ``replica_mode`` what a worker *is*: ``"thread"``
    workers are pool threads running batches on the primary executor
    itself, one at a time under its lock (one interpreter: the event
    loop stays live, nothing runs in parallel), ``"process"`` workers
    are processes attached to one shared ``backend="shm"`` snapshot
    (:class:`~repro.serving.process_pool.ProcessReplicaPool`) — real
    CPU parallelism at one snapshot's memory cost.
    """

    mode: str = "charged"
    levels: int = 4
    fanout: int = 4
    max_batch: int = 64
    max_delay_ms: float = 2.0
    replicas: int = 0
    replica_mode: str = "thread"
    #: Serve repeated queries from a cross-request result cache whose
    #: entries are invalidated by maintenance-report footprints
    #: (:mod:`repro.serving.result_cache`).  Coalescing dedupes
    #: *in-flight* twins inside one flush, the cache dedupes *across*
    #: flushes.
    result_cache: bool = False
    #: Max cached entries (LRU evicts beyond this).
    cache_budget: int = 2048

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_delay_ms < 0:
            raise ValueError(f"max_delay_ms must be >= 0, got {self.max_delay_ms}")
        if self.replicas < 0:
            raise ValueError(f"replicas must be >= 0, got {self.replicas}")
        if self.replica_mode not in REPLICA_MODES:
            raise ValueError(
                f"replica_mode must be one of {REPLICA_MODES}, "
                f"got {self.replica_mode!r}"
            )
        if self.cache_budget < 1:
            raise ValueError(
                f"cache_budget must be >= 1, got {self.cache_budget}"
            )

    @classmethod
    def from_env(cls, **overrides: Any) -> "ServiceConfig":
        """A config from the ``REPRO_*`` environment overrides.

        Explicit keyword arguments beat the environment; the environment
        beats the defaults.  This is the one place the serving stack
        reads those variables — everything else takes a config object
        (``max_delay_ms``, keyword only, bounds a hold while every
        replica is busy).
        """
        env: Dict[str, Any] = {}
        if MODE_ENV in os.environ:
            env["mode"] = os.environ[MODE_ENV].lower()
        if REPLICAS_ENV in os.environ:
            env["replicas"] = _parse_int(REPLICAS_ENV, os.environ[REPLICAS_ENV])
        if REPLICA_MODE_ENV in os.environ:
            env["replica_mode"] = os.environ[REPLICA_MODE_ENV].lower()
        if RESULT_CACHE_ENV in os.environ:
            env["result_cache"] = _parse_bool(
                RESULT_CACHE_ENV, os.environ[RESULT_CACHE_ENV]
            )
        if CACHE_BUDGET_ENV in os.environ:
            env["cache_budget"] = _parse_int(
                CACHE_BUDGET_ENV, os.environ[CACHE_BUDGET_ENV]
            )
        env.update(overrides)
        return cls(**env)
