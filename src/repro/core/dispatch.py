"""The query-dispatch protocol: one execution surface for every engine.

The paper pitches ROAD as a *search-engine framework* — one index, many
query kinds ("search by sweeping over Rnets", Fig. 1).  Every engine
here (charged :class:`~repro.core.framework.ROAD`, compiled
:class:`~repro.core.frozen.FrozenRoad`, the
:class:`~repro.baselines.road_adapter.ROADEngine` adapter, and the
Section-2 baselines) answers query objects the same way:

* a query kind is declared once, in :mod:`repro.queries.types`: its
  ``kind`` names the executor method that answers it, and its fields,
  in declaration order, are that method's positional arguments —
  ``execute(KNNQuery(3, 5, pred))`` calls ``executor.knn(3, 5, pred,
  directory=..., stats=...)``.  Only the classes in
  :data:`~repro.queries.types.QUERY_TYPES` are accepted, by exact type,
  so an object whose ``kind`` happens to name some other method is
  refused rather than called;

* a common :class:`QueryExecutor` ABC providing ``execute`` /
  ``execute_many`` / ``supports`` with **normalised signatures** —
  ``execute(query, *, directory=..., stats=...)`` everywhere.  An engine
  serves a kind by having its method; engines whose methods take other
  keywords override :meth:`QueryExecutor._dispatch`;

* :class:`RoadOwner`: the executors holding a live ROAD, where every
  write lands — one declared write
  (:data:`~repro.queries.writes.WRITE_TYPES`) per :meth:`RoadOwner.write`;

* typed errors: :class:`UnsupportedQueryError` (subclass of
  :class:`TypeError`, names the engine and the query type) and
  :class:`UnknownDirectoryError` (subclass of :class:`KeyError`, raised
  uniformly when ``directory=`` names a directory the engine does not
  serve — previously the charged path raised while the frozen path
  silently ignored the argument) and :class:`UnknownNodeError` (also a
  :class:`KeyError`; the admission path's refusal of a node id the
  executor's :meth:`QueryExecutor.has_node` does not know).

Batching is part of the protocol, not of each engine: the default
``execute_many`` runs every query through one shared
:class:`BatchContext`, whose :meth:`BatchContext.cache` memoises
per-predicate state (the charged path's
:class:`~repro.core.search.AbstractCache`) across the whole batch.  A
baseline engine therefore gets batch execution — and the batch server
front-end (:class:`repro.serving.RoadService`) — for free.  The protocol
lives in ``repro.core`` because the engines implement it: no module
below :mod:`repro.serving` imports the serving tier.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import fields
from operator import attrgetter
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.queries.types import QUERY_TYPES, ResultRow
from repro.queries.writes import DEFAULT_DIRECTORY as DEFAULT_DIRECTORY

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.core.frozen import FrozenRoad
    from repro.core.maintenance import MaintenanceReport

#: Declared query class -> ``(kind, args)``: the name of the executor
#: method answering it, and a getter for its field values in declaration
#: order (that method's positional arguments).  Every query class has at
#: least two fields, so each getter returns a tuple.
_DECLARED: Dict[type, Tuple[str, Callable[[object], Tuple[object, ...]]]] = {
    query_type: (
        query_type.kind,
        attrgetter(*(field.name for field in fields(query_type))),
    )
    for query_type in QUERY_TYPES
}


class UnsupportedQueryError(TypeError):
    """An engine does not serve this query object.

    Raised for anything that is not one of the declared query classes
    (:data:`~repro.queries.types.QUERY_TYPES`, exact type) and for a
    declared kind the engine has no method for.  Subclasses
    :class:`TypeError` so callers of the earliest ``execute`` (which
    raised bare ``TypeError``) keep working.
    """

    def __init__(self, executor: object, query: object) -> None:
        self.engine = type(executor).__name__
        self.query_type = type(query).__name__
        super().__init__(
            f"{self.engine} does not serve query type {self.query_type}"
        )


class UnknownDirectoryError(KeyError):
    """``directory=`` names a directory this engine does not serve.

    Subclasses :class:`KeyError` so callers of the earliest charged
    path (which raised bare ``KeyError``) keep working.
    """

    def __init__(self, executor: object, directory: str, known: Iterable[str]) -> None:
        self.engine = type(executor).__name__
        self.directory = directory
        self.known = tuple(known)
        super().__init__(
            f"{self.engine} serves no directory {directory!r} "
            f"(attached: {', '.join(map(repr, self.known)) or 'none'})"
        )

    def __str__(self) -> str:
        # KeyError.__str__ repr-wraps its single argument (stray outer
        # quotes in f-strings); render the plain sentence instead.
        return self.args[0]


class UnknownNodeError(KeyError):
    """A query names a node id the executor's network does not hold.

    Raised at admission (``RoadService.submit``), so one caller's bad id
    rejects that call alone instead of failing the batch it joined.
    """

    def __init__(self, executor: object, node: object) -> None:
        self.engine = type(executor).__name__
        self.node = node
        super().__init__(f"{self.engine} holds no node {node!r}")

    def __str__(self) -> str:
        return self.args[0]  # see UnknownDirectoryError.__str__


class BatchContext:
    """Shared state for one ``execute`` call or one ``execute_many`` batch.

    :meth:`QueryExecutor._dispatch` receives the context instead of loose
    keyword arguments: ``directory`` (already validated by the
    executor), optional ``stats`` to accumulate into, and :meth:`cache`
    — a memo the whole batch shares, used by the charged ``ROAD`` to
    build one :class:`~repro.core.search.AbstractCache` per distinct
    predicate per batch rather than one per query.
    """

    __slots__ = ("directory", "stats", "_memo")

    def __init__(self, directory: str, stats: Optional[object] = None) -> None:
        self.directory = directory
        self.stats = stats
        self._memo: Dict[object, object] = {}

    def cache(self, key: object, factory: Callable[[], object]) -> object:
        """Memoised per-batch state (e.g. a predicate's AbstractCache)."""
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = factory()
            return value


class QueryExecutor(ABC):
    """One LDSQ execution surface: anything that can serve query objects.

    A subclass serves a query kind by having the method the kind names
    (:mod:`repro.queries.types`); ``execute`` / ``execute_many`` /
    ``supports`` are inherited, with identical signatures everywhere.

    ``execute_many`` is the single-threaded batch entry point the async
    front-end coalesces into; the default implementation already shares
    one :class:`BatchContext` (per-predicate caches) across the batch,
    so engines only override it to redirect batches wholesale (e.g.
    :class:`~repro.baselines.road_adapter.ROADEngine` forwarding to its
    frozen snapshot).
    """

    # -- directory surface ---------------------------------------------
    @property
    def directory_names(self) -> List[str]:
        """Directories this executor serves (baselines: just the default)."""
        return [DEFAULT_DIRECTORY]

    @property
    def default_directory(self) -> str:
        """The directory queries target when ``directory`` is omitted.

        Engines serving named providers override this — a frozen
        snapshot (single- or multi-directory) reports its *configured*
        default, never merely the first directory it compiled — so
        queries need not name it.
        """
        return DEFAULT_DIRECTORY

    def check_directory(self, directory: Optional[str] = None) -> str:
        """Resolve/validate ``directory=``; raises
        :class:`UnknownDirectoryError` on a name this executor does not
        serve.  ``None`` means :attr:`default_directory`.  Returns the
        resolved name so callers can chain on it.
        """
        if directory is None:
            directory = self.default_directory
        if directory not in self.directory_names:
            raise UnknownDirectoryError(self, directory, self.directory_names)
        return directory

    def has_node(self, node: int) -> bool:
        """True if ``node`` is a node id queries may name.  Executors
        that know their node set override this; the default admits all.
        """
        return True

    @property
    def frozen(self) -> Optional["FrozenRoad"]:
        """The compiled snapshot a batch here reads (None: no snapshot)."""
        return None

    # -- dispatch -------------------------------------------------------
    def supports(self, query: object) -> bool:
        """True if :meth:`execute` can serve this query object: a declared
        query class (exact type) whose ``kind`` names a method here."""
        declared = _DECLARED.get(type(query))
        return declared is not None and hasattr(self, declared[0])

    def execute(
        self,
        query: object,
        *,
        directory: Optional[str] = None,
        stats: Optional[object] = None,
    ) -> List[ResultRow]:
        """Answer one query object through the method its kind names.

        ``directory=None`` targets :attr:`default_directory` — for a
        snapshot compiled from a named provider, its own directory.
        """
        ctx = BatchContext(self.check_directory(directory), stats)
        return self._dispatch(query, ctx)

    def execute_many(
        self,
        queries: Sequence,
        *,
        directory: Optional[str] = None,
        stats: Optional[object] = None,
    ) -> List[List[ResultRow]]:
        """Run a whole workload through one shared :class:`BatchContext`.

        Queries sharing a predicate share the context's memoised state
        (the charged path pays each Rnet pruning decision once per batch,
        not once per query).  The index must not change while the batch
        runs.
        """
        ctx = BatchContext(self.check_directory(directory), stats)
        return [self._dispatch(query, ctx) for query in queries]

    def _bind(
        self, query: object
    ) -> Tuple[Callable[..., List[ResultRow]], Tuple[object, ...]]:
        """The method answering ``query`` and its positional arguments.

        Raises :class:`UnsupportedQueryError` unless ``query`` is a
        declared query class (exact type) and this executor has the
        method its ``kind`` names.
        """
        declared = _DECLARED.get(type(query))
        if declared is not None:
            kind, args_of = declared
            method = getattr(self, kind, None)
            if method is not None:
                return method, args_of(query)
        raise UnsupportedQueryError(self, query)

    def _dispatch(self, query: object, ctx: BatchContext) -> List[ResultRow]:
        """Answer one query of a batch (engines whose methods take other
        keywords override this)."""
        method, args = self._bind(query)
        return method(*args, directory=ctx.directory, stats=ctx.stats)


class RoadOwner(QueryExecutor):
    """An executor that holds a live ROAD: the one place writes land.

    Each :meth:`write` runs on the ROAD, brings the owner's own snapshot
    (:attr:`frozen`) up to date before it returns and records its report
    in :attr:`last_report`.  Snapshots for other readers come from
    :meth:`freeze`; each patches itself from the reports, against the
    ROAD it was frozen from.
    """

    #: The report of the most recent maintenance operation.
    last_report: Optional["MaintenanceReport"] = None

    #: The directory surface (signatures: :class:`~repro.core.framework.ROAD`).
    attach_objects: Callable[..., Any]
    detach_objects: Callable[..., None]

    @abstractmethod
    def write(self, w: object) -> "MaintenanceReport":
        """Apply one declared write (:data:`~repro.queries.writes.WRITE_TYPES`,
        exact type) and return its report."""

    @abstractmethod
    def freeze(self, *, backend: Optional[str] = None) -> "FrozenRoad":
        """A fresh snapshot compiling every attached directory."""
