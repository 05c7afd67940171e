"""The byte-identity contract as one stateful model.

A charged :class:`~repro.core.framework.ROAD` — the oracle, itself held
to the brute-force Dijkstra of :mod:`tests.oracle` — takes every write.
A built :class:`~repro.serving.RoadService` on one execution arm of
:data:`tests.oracle.ARMS` serves the same network and objects and takes
the same writes.  ``@initialize`` draws the shape of both: ``levels``
1-4, ``fanout`` 2 or 4, Lemma-4 shortcut reduction on or off, exact or
counting abstracts, one to three directories, and the result cache on
or off.  Every maintenance operation is a rule: reweigh, insert,
delete, retag, ``add_edge``, ``remove_edge``, and the two writes that
flip a leaf's pruning answer (an insert onto an object-free leaf, the
delete of a leaf's last object).

After every step:

* every resident cache entry equals a fresh uncached run, its answer
  and its recorded ``(nodes, rnets, bypassed)`` footprint both — the
  write it survived could not have changed either;
* the oracle answers a standing batch holding every kind of
  :data:`~repro.queries.types.QUERY_TYPES` (re-asked after each write,
  plus a few fresh queries) like a fresh freeze of itself, whole
  ``SearchStats`` included, and like brute force;
* the service answers the batch byte-equal to the oracle, per
  directory (on the populate pass and, cache on, again on the hit
  pass);
* ``snapshot_divergences == []`` for every snapshot in
  ``serving_snapshots``, per directory, against a fresh freeze of the
  oracle;
* serving and probing the frozen snapshots causes no pager traffic;
* both ROADs' ``hierarchy.validate()`` holds, and each write's report
  on the served side equals the oracle's.

On the inline arm the service is reached over the wire, in process:
each write is ``encode_write`` -> ``POST /maintenance`` (a payload may
leave out the optional ``directory`` and an insert's empty ``attrs``)
and each batch is ``encode_query`` -> ``POST /query`` ->
``decode_result``, so the JSON form of every write and query kind is
inside the contract too.  The thread and process arms call the service
directly.

Each arm is its own test case with its own example budget: only the
process arm patches a shared-memory snapshot its workers re-sync from.
Those cases draw the shape at random, so one run's few examples reach
only part of the lattice.  ``test_corner`` pins the shape instead: each
arm runs every row of :data:`CORNERS` once per run, a covering set in
which every ``levels`` x ``fanout`` cell and every value of every other
axis meets that arm (the process arm runs half the rows, which still
hold every value of every axis).  The corners take part of each arm's
examples and the drawn cases keep the rest: inline 8 + 12, thread
8 + 4, process 4 + 2.

No case shrinks a failing example (:data:`NO_SHRINK`): the model's
steps are costly, and shrinking one failure took minutes where finding
it took a second.  A failure reports the example as found.
"""

import asyncio
import json
import random
import unittest

import pytest
from hypothesis import Phase, event, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.core.framework import ROAD
from repro.core.frozen_backends import shared_memory_available
from repro.core.object_abstract import counting_abstract, exact_abstract
from repro.core.search import SearchStats
from repro.eval.metrics import snapshot_divergences
from repro.objects.model import SpatialObject
from repro.queries.types import (
    QUERY_TYPES,
    AggregateKNNQuery,
    KNNQuery,
    ODMatrixQuery,
    Predicate,
    RangeQuery,
    RouteKNNQuery,
    ServiceAreaQuery,
)
from repro.queries.writes import (
    DEFAULT_DIRECTORY,
    AddEdge,
    DeleteObject,
    InsertObject,
    RemoveEdge,
    UpdateEdgeDistance,
    UpdateObjectAttrs,
)
from repro.serving.http import RoadServiceApp
from repro.serving.replicas import execute_batch
from repro.serving.result_cache import canonical_key, node_footprint, query_nodes
from repro.serving.wire import decode_result, encode_query, encode_write
from tests.conftest import random_connected_network
from tests.oracle import (
    DIRECTORIES,
    assert_od_matches_dijkstra,
    assert_same_result,
    brute_knn,
    brute_range,
    build_arm,
    random_objects,
    serving_snapshots,
)

_PREDICATES = (None, Predicate.of(type="a"), Predicate.of(type="b"))


def _nodes(rnd, n, low, high):
    return tuple(rnd.randrange(n) for _ in range(rnd.randint(low, high)))


#: A random query of each declared kind over nodes ``0..n-1``.
_MAKERS = {
    KNNQuery: lambda rnd, n, kw: KNNQuery(
        rnd.randrange(n), rnd.randint(1, 4), **kw
    ),
    RangeQuery: lambda rnd, n, kw: RangeQuery(
        rnd.randrange(n), rnd.uniform(2.0, 30.0), **kw
    ),
    AggregateKNNQuery: lambda rnd, n, kw: AggregateKNNQuery(
        _nodes(rnd, n, 2, 3), rnd.randint(1, 3),
        agg=rnd.choice(["sum", "max", "min"]), **kw,
    ),
    ODMatrixQuery: lambda rnd, n, kw: ODMatrixQuery(
        _nodes(rnd, n, 2, 2), _nodes(rnd, n, 2, 2)
    ),
    ServiceAreaQuery: lambda rnd, n, kw: ServiceAreaQuery(
        rnd.randrange(n),
        tuple(rnd.uniform(2.0, 30.0) for _ in range(rnd.randint(1, 2))),
        **kw,
    ),
    RouteKNNQuery: lambda rnd, n, kw: RouteKNNQuery(
        _nodes(rnd, n, 2, 3), rnd.randint(1, 3), **kw
    ),
}
assert set(_MAKERS) == set(QUERY_TYPES), "a query kind the model never asks"


def _random_query(rnd, n, kind):
    predicate = rnd.choice(_PREDICATES)
    return _MAKERS[kind](rnd, n, {} if predicate is None else {"predicate": predicate})


async def _post(app, path, payload):
    """One in-process ASGI ``POST``: (status, decoded JSON body)."""
    messages = [{"type": "http.request", "body": json.dumps(payload).encode()}]
    out = {}

    async def receive():
        return messages.pop() if messages else {"type": "http.disconnect"}

    async def send(message):
        if message["type"] == "http.response.start":
            out["status"] = message["status"]
        else:
            out["body"] = json.loads(message["body"])

    await app({"type": "http", "method": "POST", "path": path}, receive, send)
    return out["status"], out["body"]


class ByteIdentityModel(RuleBasedStateMachine):
    """Oracle ROAD and served twin under one interleaving of writes."""

    #: The key of :data:`tests.oracle.ARMS` the served side runs on.
    arm: str

    @initialize(
        seed=st.integers(0, 10_000),
        levels=st.integers(1, 4),
        fanout=st.sampled_from([2, 4]),
        reduce=st.booleans(),
        counting=st.booleans(),
        directories=st.integers(1, len(DIRECTORIES)),
        cached=st.booleans(),
    )
    def build(self, seed, levels, fanout, reduce, counting, directories, cached):
        self.rnd = rnd = random.Random(seed)
        self.network = random_connected_network(
            rnd, rnd.randint(12, 30), rnd.randint(0, 12)
        )
        self.names = DIRECTORIES[:directories]
        objects = {
            name: random_objects(rnd, self.network, rnd.randint(2, 8))
            for name in self.names
        }
        factory = counting_abstract if counting else exact_abstract
        self.service = build_arm(
            self.network, objects["objects"], self.arm,
            engine=dict(
                providers={name: objects[name] for name in self.names[1:]},
                abstract_factory=factory,
                reduce_shortcuts=reduce,
            ),
            levels=levels, fanout=fanout,
            result_cache=cached, cache_budget=32,
        )
        #: ``None`` with the cache off.  The budget outlasts one batch on
        #: every directory, so a re-asked batch is answered from it.
        self.cache = self.service._result_cache
        #: The inline arm's wire edge; ``None`` on the other arms.
        self.app = RoadServiceApp(self.service) if self.arm == "inline" else None
        self.road = ROAD.build(
            self.network, levels=levels, fanout=fanout, reduce_shortcuts=reduce
        )
        for name in self.names:
            self.road.attach_objects(
                objects[name], name=name, abstract_factory=factory
            )
        n = self.network.num_nodes
        self.standing = [_random_query(rnd, n, kind) for kind in QUERY_TYPES]
        self.standing.append(_random_query(rnd, n, rnd.choice(QUERY_TYPES)))
        #: Every query asked, by its cache key (the first one asked).
        self.asked = {}
        #: Edges ``add_edge`` opened, which ``remove_edge`` may close.
        self.added = []

    def teardown(self):
        service = getattr(self, "service", None)
        if service is not None:
            service.close()

    # ------------------------------------------------------------------
    # Writes: the oracle first, then the service, reports compared
    # ------------------------------------------------------------------
    def _write(self, write):
        report = self.road.write(write)
        if self.app is None:
            self.service.write(write)
        else:
            payload = encode_write(write)
            if payload.get("directory") == DEFAULT_DIRECTORY and self.rnd.random() < 0.5:
                del payload["directory"]
            if payload.get("object", {}).get("attrs") == {}:
                del payload["object"]["attrs"]
            status, body = asyncio.run(_post(self.app, "/maintenance", payload))
            assert status == 200, body
            assert body["kind"] == write.kind
        assert self.service.executor.last_report == report
        event(f"write: {report.kind}")
        return report

    def _edges(self):
        return sorted((u, v) for u, v, _ in self.network.edges())

    def _objects(self, name):
        return self.road.directory(name).objects

    def _leaf(self, u, v):
        return self.road.hierarchy.leaf_of_edge(u, v).rnet_id

    def _hosted(self, name):
        """Leaf Rnet id -> the objects of directory ``name`` on it."""
        hosted = {}
        for obj in self._objects(name):
            hosted.setdefault(self._leaf(*obj.edge), []).append(obj)
        return hosted

    def _deletable(self):
        """Directories a delete may shrink: each keeps one object."""
        return [name for name in self.names if len(self._objects(name)) > 1]

    def _free_leaf_edges(self):
        """``(directory, edge)`` on a leaf that directory holds no object on."""
        free = []
        for name in self.names:
            hosted = self._hosted(name)
            free += [
                (name, edge)
                for leaf in self.road.hierarchy.leaves()
                if leaf.rnet_id not in hosted
                for edge in sorted(leaf.edges)
            ]
        return free

    def _lone_objects(self):
        """``(directory, object id)`` of the last object on its leaf."""
        return [
            (name, objects[0].object_id)
            for name in self._deletable()
            for objects in self._hosted(name).values()
            if len(objects) == 1
        ]

    def _removable(self):
        return [
            edge
            for edge in self.added
            if not any(self._objects(name).on_edge(*edge) for name in self.names)
        ]

    def _insert(self, name, edge, fraction, kind):
        """Insert typed ``kind``, or untyped when ``kind`` is None."""
        u, v = edge
        obj = SpatialObject(
            self._objects(name).next_id(), (u, v),
            fraction * self.network.edge_distance(u, v),
            {} if kind is None else {"type": kind},
        )
        return self._write(InsertObject(obj, name))

    @rule(data=st.data(), factor=st.sampled_from([0.2, 0.5, 1.8, 3.0]))
    def reweigh(self, data, factor):
        u, v = data.draw(st.sampled_from(self._edges()))
        self._write(
            UpdateEdgeDistance(u, v, self.network.edge_distance(u, v) * factor)
        )

    @rule(
        data=st.data(),
        fraction=st.floats(0.0, 1.0),
        kind=st.sampled_from(["a", "b", None]),
    )
    def insert(self, data, fraction, kind):
        name = data.draw(st.sampled_from(self.names))
        self._insert(name, data.draw(st.sampled_from(self._edges())), fraction, kind)

    @precondition(lambda self: self._deletable())
    @rule(data=st.data())
    def delete(self, data):
        name = data.draw(st.sampled_from(self._deletable()))
        object_id = data.draw(st.sampled_from(self._objects(name).ids()))
        self._write(DeleteObject(object_id, name))

    @rule(data=st.data(), kind=st.sampled_from(["a", "b", "c"]))
    def retag(self, data, kind):
        name = data.draw(st.sampled_from(self.names))
        object_id = data.draw(st.sampled_from(self._objects(name).ids()))
        self._write(UpdateObjectAttrs(object_id, {"type": kind}, name))

    @rule(data=st.data(), distance=st.floats(0.5, 8.0))
    def add_edge(self, data, distance):
        n = self.network.num_nodes
        a, b = data.draw(
            st.sampled_from(
                [
                    (a, b)
                    for a in range(n)
                    for b in range(a + 1, n)
                    if not self.network.has_edge(a, b)
                ]
            )
        )
        assert self._write(AddEdge(a, b, distance)).structural
        self.added.append((a, b))

    @precondition(lambda self: self._removable())
    @rule(data=st.data())
    def remove_edge(self, data):
        edge = data.draw(st.sampled_from(self._removable()))
        assert self._write(RemoveEdge(*edge)).structural
        self.added.remove(edge)

    @precondition(lambda self: self._free_leaf_edges())
    @rule(
        data=st.data(),
        fraction=st.floats(0.0, 1.0),
        kind=st.sampled_from(["a", "b"]),
    )
    def flip_on(self, data, fraction, kind):
        """An insert onto an object-free leaf turns its abstract on."""
        name, edge = data.draw(st.sampled_from(self._free_leaf_edges()))
        report = self._insert(name, edge, fraction, kind)
        assert self._leaf(*edge) in report.mask_rnets
        event("flip: insert onto an object-free leaf")

    @precondition(lambda self: self._lone_objects())
    @rule(data=st.data())
    def flip_off(self, data):
        """Deleting a leaf's last object turns its abstract off."""
        name, object_id = data.draw(st.sampled_from(self._lone_objects()))
        edge = self._objects(name).get(object_id).edge
        report = self._write(DeleteObject(object_id, name))
        assert self._leaf(*edge) in report.mask_rnets
        event("flip: delete a leaf's last object")

    # ------------------------------------------------------------------
    # The contract, after every step
    # ------------------------------------------------------------------
    @invariant()
    def contract_holds(self):
        fresh = {name: self.road.freeze(directory=name) for name in self.names}
        self._resident_entries_are_fresh(fresh)
        n = self.network.num_nodes
        batch = self.standing + [
            _random_query(self.rnd, n, self.rnd.choice(QUERY_TYPES))
            for _ in range(2)
        ]
        want = [
            self._oracle_answer(name, query, fresh[name])
            for name in self.names
            for query in batch
        ]
        pager = self.service.executor.road.pager
        before = pager.stats.snapshot()
        assert self._served(batch) == want
        if self.cache is not None:  # the hit pass: nothing executes
            misses = self.cache.misses
            assert self._served(batch) == want
            assert self.cache.misses == misses
        for name in self.names:
            for snapshot in serving_snapshots(self.service):
                divergences = snapshot_divergences(
                    self.rnd, snapshot, fresh[name],
                    probes=1, k=3, max_radius=20.0, directory=name,
                )
                assert divergences == [], (name, divergences)
        diff = pager.stats.diff(before)
        assert (diff.reads, diff.writes, diff.hits, diff.misses) == (0, 0, 0, 0), (
            f"frozen queries touched the pager: {diff}"
        )
        self.road.hierarchy.validate()
        self.service.executor.road.hierarchy.validate()

    def _served(self, batch):
        """The service's answers to ``batch`` on every directory, as one
        admission wave (on the inline arm, one ``POST /query`` per
        directory)."""
        asked = [(name, query) for name in self.names for query in batch]
        for name, query in asked:
            self.asked.setdefault(canonical_key(name, query), query)

        async def wave():
            if self.app is None:
                return await asyncio.gather(
                    *(self.service.submit(q, directory=name) for name, q in asked)
                )
            wire = [encode_query(query) for query in batch]
            replies = await asyncio.gather(
                *(
                    _post(self.app, "/query", {"queries": wire, "directory": name})
                    for name in self.names
                )
            )
            assert [status for status, _ in replies] == [200] * len(self.names)
            return [
                decode_result(result)
                for _, body in replies
                for result in body["results"]
            ]

        return asyncio.run(wave())

    def _oracle_answer(self, name, query, fresh):
        """The oracle's answer, checked against its own fresh freeze
        (whole stats) and, where a brute force exists, against it."""
        charged, frozen = SearchStats(), SearchStats()
        answer = self.road.execute(query, directory=name, stats=charged)
        assert fresh.execute(query, stats=frozen) == answer, query
        assert frozen == charged, query
        directory = self.road.directory(name)
        kind = type(query)
        if kind is KNNQuery:
            assert_same_result(answer, brute_knn(
                self.network, directory.objects, query.node, query.k,
                query.predicate,
            ))
        elif kind is RangeQuery:
            assert_same_result(answer, brute_range(
                self.network, directory.objects, query.node, query.radius,
                query.predicate,
            ))
        elif kind is ODMatrixQuery:
            assert_od_matches_dijkstra(
                self.network, query.sources, query.targets, answer
            )
        if kind in (KNNQuery, RangeQuery):
            # One abstract answer per examined Rnet: bypassed iff the
            # directory says it cannot hold a match.
            assert charged.bypassed_rnets == {
                rnet_id
                for rnet_id in charged.visited_rnets
                if not directory.rnet_may_contain(rnet_id, query.predicate)
            }
        return answer

    def _resident_entries_are_fresh(self, fresh):
        if self.cache is None:
            return
        for key, entry in list(self.cache._entries.items()):
            name, query = key[0], self.asked[key]
            answers, [(nodes, rnets, bypassed)] = execute_batch(
                fresh[name], [query], name, footprints=True
            )
            assert entry.answer == answers[0], query
            assert (entry.nodes, entry.rnets, entry.bypassed) == (
                node_footprint(set(nodes) | set(query_nodes(query))),
                rnets,
                bypassed,
            ), query


class InlineModel(ByteIdentityModel):
    arm = "inline"


class ThreadModel(ByteIdentityModel):
    arm = "thread"


class ProcessModel(ByteIdentityModel):
    arm = "process"


#: Every Hypothesis phase but ``shrink``.
NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)

TestInline = InlineModel.TestCase
TestInline.settings = settings(
    max_examples=12, stateful_step_count=8, deadline=None, phases=NO_SHRINK
)
TestThread = ThreadModel.TestCase
TestThread.settings = settings(
    max_examples=4, stateful_step_count=8, deadline=None, phases=NO_SHRINK
)
TestProcess = unittest.skipUnless(
    shared_memory_available(), "host has no POSIX shared memory (/dev/shm)"
)(ProcessModel.TestCase)
TestProcess.settings = settings(
    max_examples=2, stateful_step_count=12, deadline=None, phases=NO_SHRINK
)


#: ``(levels, fanout, reduce, counting, directories, cached)``: every
#: ``levels`` x ``fanout`` cell once; any two of fanout, reduction,
#: counting and the cache meet in all four value pairs; every directory
#: count is served with the cache on and off.  Each half alone holds
#: every ``levels``, both values of every binary axis and every
#: directory count.
CORNERS = (
    (1, 4, True, True, 3, True),
    (2, 4, False, True, 2, False),
    (3, 2, False, True, 1, True),
    (4, 4, False, False, 3, True),
    (1, 2, False, False, 1, False),
    (2, 2, True, False, 2, True),
    (3, 4, True, False, 3, False),
    (4, 2, True, True, 1, False),
)

#: The process arm runs the first half: with a worker spawned per
#: example, an example costs it about four times what it costs the
#: other arms.
_ARM_CORNERS = {
    "inline": CORNERS,
    "thread": CORNERS,
    "process": CORNERS[:4] if shared_memory_available() else (),
}


def _pinned(arm, shape):
    """The model on ``arm`` with every axis but the seed fixed to ``shape``."""

    class Pinned(ByteIdentityModel):
        @initialize(seed=st.integers(0, 10_000))
        def build(self, seed):
            ByteIdentityModel.build(self, seed, *shape)

    Pinned.arm = arm
    return Pinned


def _corner_id(shape):
    levels, fanout, reduce, counting, directories, cached = shape
    return "-".join([
        f"L{levels}F{fanout}",
        "reduced" if reduce else "full",
        "counting" if counting else "exact",
        f"dirs{directories}",
        "cached" if cached else "uncached",
    ])


@pytest.mark.parametrize(
    "arm, shape",
    [
        pytest.param(arm, shape, id=f"{arm}-{_corner_id(shape)}")
        for arm, shapes in _ARM_CORNERS.items()
        for shape in shapes
    ],
)
def test_corner(arm, shape):
    run_state_machine_as_test(
        _pinned(arm, shape),
        settings=settings(
            max_examples=1, stateful_step_count=8, deadline=None, phases=NO_SHRINK
        ),
    )
