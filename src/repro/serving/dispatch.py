"""The query-dispatch protocol: one execution surface for every engine.

The paper pitches ROAD as a *search-engine framework* — one index, many
query kinds ("search by sweeping over Rnets", Fig. 1).  The reproduction
grew four execution surfaces (charged :class:`~repro.core.framework.ROAD`,
compiled :class:`~repro.core.frozen.FrozenRoad`, the
:class:`~repro.baselines.road_adapter.ROADEngine` adapter, and the
Section-2 baselines), each with its own ``isinstance`` ladder and
slightly different ``execute`` signatures.  This module replaces all of
them with a registry:

* a **handler registry** keyed on ``(engine key, query type)`` —
  engines register one handler per query class::

      @register_handler(KNNQuery, engine="frozen")
      def _knn(snapshot, query, ctx):
          return snapshot.knn(query.node, query.k, query.predicate,
                              stats=ctx.stats)

* a common :class:`QueryExecutor` ABC providing ``execute`` /
  ``execute_many`` with **normalised signatures** — ``execute(query, *,
  directory=..., stats=...)`` everywhere — by looking the handler up
  along the executor's MRO (``ROADEngine`` falls back to the generic
  ``"baseline"`` handlers for anything it does not override);

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
front-end (:class:`repro.serving.RoadService`) — for free.
"""

from __future__ import annotations

from abc import ABC
from functools import lru_cache
from typing import (
    Callable,
    ClassVar,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
)

from repro.queries.types import ResultRow

#: The implicit directory name every engine serves (the charged path can
#: attach more; see :meth:`repro.core.framework.ROAD.attach_objects`).
DEFAULT_DIRECTORY = "objects"

#: A registered query handler: ``(executor, query, ctx) -> results``.
#: The return type is a covariant ``Sequence`` of the result-row union
#: (:data:`repro.queries.types.ResultRow`), so a handler may keep the
#: precise ``List[ResultEntry]`` / ``List[ODMatrixEntry]`` annotation of
#: the method it wraps.
Handler = Callable[["QueryExecutor", object, "BatchContext"], Sequence[ResultRow]]

#: (engine key, query type) -> handler.
_HANDLERS: Dict[Tuple[str, Type], Handler] = {}


class UnsupportedQueryError(TypeError):
    """An engine has no registered handler for this query type.

    Subclasses :class:`TypeError` so callers of the pre-registry
    ``execute`` (which raised bare ``TypeError``) keep working.
    """

    def __init__(self, executor: object, query: object) -> None:
        self.engine = type(executor).__name__
        self.query_type = type(query).__name__
        supported = ", ".join(
            sorted(q.__name__ for q in supported_queries(type(executor)))
        )
        super().__init__(
            f"{self.engine} has no handler for query type {self.query_type}"
            + (f" (supported: {supported})" if supported else "")
        )


class UnknownDirectoryError(KeyError):
    """``directory=`` names a directory this engine does not serve.

    Subclasses :class:`KeyError` so callers of the pre-registry charged
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

    Handlers receive the context instead of loose keyword arguments:
    ``directory`` (already validated by the executor), optional ``stats``
    to accumulate into, and :meth:`cache` — a memo the whole batch
    shares, used by the charged handlers to build one
    :class:`~repro.core.search.AbstractCache` per distinct predicate per
    batch rather than one per query.
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


def register_handler(
    query_type: Type, *, engine: str
) -> Callable[[Handler], Handler]:
    """Class decorator-factory registering a handler for one query type.

    ``engine`` is the executor's :attr:`QueryExecutor.dispatch_engine`
    key.  Registering the same (engine, query type) twice raises — a
    double registration is always a bug (two modules fighting over a
    dispatch slot), never a feature.
    """

    def decorate(handler: Handler) -> Handler:
        key = (engine, query_type)
        if key in _HANDLERS:
            raise ValueError(
                f"handler for {query_type.__name__} on engine {engine!r} "
                f"already registered ({_HANDLERS[key]!r})"
            )
        _HANDLERS[key] = handler
        return handler

    return decorate


@lru_cache(maxsize=None)
def _dispatch_chain(executor_type: Type) -> Tuple[str, ...]:
    """The executor's engine keys, most specific first (its MRO order).

    Only classes that *declare* ``dispatch_engine`` in their own body
    contribute a key, so ``ROADEngine`` (key ``"road"``) falls back to
    ``SearchEngine``'s generic ``"baseline"`` handlers, while a plain
    baseline only sees ``"baseline"``.  The chain is a pure function of
    the type (independent of the handler registry), so it is memoised —
    per-query dispatch on the hot serving path must not re-walk the MRO.
    """
    chain: List[str] = []
    for klass in executor_type.__mro__:
        key = klass.__dict__.get("dispatch_engine")
        if key is not None and key not in chain:
            chain.append(key)
    return tuple(chain)


def lookup_handler(executor_type: Type, query_type: Type) -> Optional[Handler]:
    """The handler serving ``query_type`` on this executor, if any.

    Walks the executor's dispatch chain, then the query type's MRO — so
    a handler registered for a query base class serves subclasses too.
    """
    for engine in _dispatch_chain(executor_type):
        for qt in query_type.__mro__:
            handler = _HANDLERS.get((engine, qt))
            if handler is not None:
                return handler
    return None


def supported_queries(executor_type: Type) -> Tuple[Type, ...]:
    """Query types this executor type has handlers for (for messages/tests)."""
    chain = _dispatch_chain(executor_type)
    return tuple(
        sorted(
            {qt for (engine, qt) in _HANDLERS if engine in chain},
            key=lambda qt: qt.__name__,
        )
    )


class QueryExecutor(ABC):
    """One LDSQ execution surface: anything that can serve query objects.

    Subclasses declare a :attr:`dispatch_engine` key and register one
    handler per supported query class; ``execute`` / ``execute_many`` /
    ``supports`` are inherited, with identical signatures everywhere.

    ``execute_many`` is the single-threaded batch entry point the async
    front-end coalesces into; the default implementation already shares
    one :class:`BatchContext` (per-predicate caches) across the batch,
    so engines only override it to redirect batches wholesale (e.g.
    :class:`~repro.baselines.road_adapter.ROADEngine` forwarding to its
    frozen snapshot).
    """

    #: Registry key for this executor family; subclasses redeclare it.
    dispatch_engine: ClassVar[Optional[str]] = None

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
        resolved name so handlers can chain on it.
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

    # -- dispatch -------------------------------------------------------
    def supports(self, query: object) -> bool:
        """True if :meth:`execute` can serve this query object."""
        return lookup_handler(type(self), type(query)) is not None

    def execute(
        self,
        query: object,
        *,
        directory: Optional[str] = None,
        stats: Optional[object] = None,
    ) -> List[ResultRow]:
        """Run one query object through the registered handler.

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

    def _dispatch(self, query: object, ctx: BatchContext) -> List[ResultRow]:
        handler = lookup_handler(type(self), type(query))
        if handler is None:
            raise UnsupportedQueryError(self, query)
        return list(handler(self, query, ctx))
