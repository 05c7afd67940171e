"""The query-dispatch protocol: kind-named methods, typed errors.

Every engine answers ``execute`` / ``execute_many`` with the same
signatures, through the method each declared query kind names; the
behaviour matrix below pins which kinds each engine serves.  Unknown
query types raise a typed :class:`UnsupportedQueryError` naming the
engine, and ``directory=`` is honoured (and rejected with
:class:`UnknownDirectoryError`) uniformly — previously the charged path
raised ``KeyError`` while the frozen path silently ignored the argument.
"""

from dataclasses import fields

import pytest

from repro.baselines import (
    DistanceIndexEngine,
    EuclideanEngine,
    NetworkExpansionEngine,
    ROADEngine,
)
from repro.core.framework import ROAD
from repro.core.owner import SnapshotOwner
from repro.graph.generators import grid_network
from repro.objects.placement import place_uniform
from repro.queries.types import (
    QUERY_TYPES,
    AggregateKNNQuery,
    KNNQuery,
    Predicate,
    RangeQuery,
)
from repro.queries.workload import mixed_workload
from repro.serving import QueryExecutor, UnknownDirectoryError, UnsupportedQueryError
from tests.oracle import QUERY_SAMPLES, assert_same_result


@pytest.fixture(scope="module")
def setting():
    network = grid_network(8, 8, seed=13)
    objects = place_uniform(
        network, 16, seed=5, attr_choices={"type": ["a", "b"]}
    )
    road = ROAD.build(network.copy(), levels=3, fanout=4)
    road.attach_objects(objects)
    executors = {
        "ROAD": road,
        "FrozenRoad": road.freeze(),
        "ROADEngine": ROADEngine(network.copy(), objects, levels=3),
        "SnapshotOwner": SnapshotOwner.build(network.copy(), objects, levels=3),
        "NetExp": NetworkExpansionEngine(network.copy(), objects),
        "Euclidean": EuclideanEngine(network.copy(), objects),
        "DistIdx": DistanceIndexEngine(network.copy(), objects),
    }
    return network, objects, executors


ALL = [
    "ROAD",
    "FrozenRoad",
    "ROADEngine",
    "SnapshotOwner",
    "NetExp",
    "Euclidean",
    "DistIdx",
]
#: Executors with a multi-source expansion (aggregate kNN support).
AGGREGATE_CAPABLE = ["ROAD", "FrozenRoad", "SnapshotOwner"]

#: The query kinds each executor serves: the ROAD family every declared
#: kind, the paper's four compared engines (the figures' ``ROADEngine``
#: and the Section-2 baselines) kNN and range only.
SUPPORTED_QUERIES = {
    name: set(QUERY_TYPES) if name in AGGREGATE_CAPABLE else {KNNQuery, RangeQuery}
    for name in ALL
}


def answering(executor):
    """The object whose methods answer ``executor``'s queries: a
    ``SnapshotOwner`` forwards to its snapshot."""
    if isinstance(executor, SnapshotOwner):
        return executor.frozen
    return executor


class TestRegistryRoundTrip:
    """Every declared kind is served on every engine the same way."""

    @pytest.mark.parametrize("name", ALL)
    def test_all_executors_are_query_executors(self, setting, name):
        _, _, executors = setting
        assert isinstance(executors[name], QueryExecutor)

    @pytest.mark.parametrize("name", ALL)
    def test_knn_round_trip(self, setting, name):
        _, _, executors = setting
        executor = executors[name]
        got = executor.execute(KNNQuery(0, 3))
        assert got == answering(executor).knn(0, 3)
        assert len(got) == 3

    @pytest.mark.parametrize("name", ALL)
    def test_range_round_trip(self, setting, name):
        _, _, executors = setting
        executor = executors[name]
        assert executor.execute(RangeQuery(0, 250.0)) == answering(executor).range(
            0, 250.0
        )

    @pytest.mark.parametrize("name", AGGREGATE_CAPABLE)
    def test_aggregate_round_trip(self, setting, name):
        _, _, executors = setting
        executor = executors[name]
        query = AggregateKNNQuery((0, 20), 2)
        assert executor.execute(query) == answering(executor).aggregate_knn(
            (0, 20), 2
        )

    @pytest.mark.parametrize("name", ALL)
    def test_execute_many_matches_execute(self, setting, name):
        network, _, executors = setting
        executor = executors[name]
        queries = mixed_workload(
            network, 12, k=2, radius=200.0, seed=3,
            predicates=[Predicate.of(type="a")],
        )
        assert executor.execute_many(queries) == [
            executor.execute(q) for q in queries
        ]

    def test_all_engines_answer_equivalently(self, setting):
        network, _, executors = setting
        queries = mixed_workload(network, 10, k=3, radius=300.0, seed=7)
        reference = executors["ROAD"].execute_many(queries)
        for name in ALL[1:]:
            answers = executors[name].execute_many(queries)
            for got, want in zip(answers, reference):
                # ROAD-family paths are byte-identical; baselines may
                # differ in the last float ulp (their own precomputation
                # order), so compare through the tolerant oracle check.
                assert_same_result(
                    got, [(entry.distance, entry.object_id) for entry in want]
                )


class TestUnsupportedQuery:
    @pytest.mark.parametrize("name", ALL)
    def test_unknown_query_type_names_engine(self, setting, name):
        _, _, executors = setting
        executor = executors[name]
        with pytest.raises(UnsupportedQueryError) as excinfo:
            executor.execute("not a query")
        assert type(executor).__name__ in str(excinfo.value)
        assert excinfo.value.engine == type(executor).__name__
        assert excinfo.value.query_type == "str"
        # The typed error is still a TypeError for callers expecting one.
        assert isinstance(excinfo.value, TypeError)

    @pytest.mark.parametrize("name", ["NetExp", "Euclidean", "DistIdx"])
    def test_baselines_reject_aggregate_by_name(self, setting, name):
        _, _, executors = setting
        executor = executors[name]
        query = AggregateKNNQuery((0, 5), 2)
        assert not executor.supports(query)
        with pytest.raises(UnsupportedQueryError, match=type(executor).__name__):
            executor.execute(query)
        with pytest.raises(UnsupportedQueryError):
            executor.execute_many([KNNQuery(0, 1), query])

    @pytest.mark.parametrize("name", ALL)
    def test_supports_agrees_with_supported_queries(self, setting, name):
        _, _, executors = setting
        executor = executors[name]
        assert {
            query_type
            for query_type in QUERY_TYPES
            if executor.supports(QUERY_SAMPLES[query_type])
        } == SUPPORTED_QUERIES[name]

    @pytest.mark.parametrize("name", ALL)
    @pytest.mark.parametrize("query_type", QUERY_TYPES, ids=lambda t: t.__name__)
    def test_execute_answers_through_the_named_method(
        self, setting, query_type, name
    ):
        _, _, executors = setting
        executor = executors[name]
        query = QUERY_SAMPLES[query_type]
        if query_type not in SUPPORTED_QUERIES[name]:
            with pytest.raises(UnsupportedQueryError, match=type(executor).__name__):
                executor.execute(query)
            return
        method = getattr(answering(executor), query.kind)
        args = [getattr(query, field.name) for field in fields(query)]
        assert executor.execute(query) == method(*args)


class TestDirectoryDrift:
    """Regression: ``directory=`` must be honoured by *every* engine.

    The early frozen path and ROADEngine silently ignored the
    argument — a query against a directory the snapshot never compiled
    would answer from the wrong object set.
    """

    @pytest.mark.parametrize("name", ALL)
    def test_unknown_directory_raises_everywhere(self, setting, name):
        _, _, executors = setting
        executor = executors[name]
        with pytest.raises(UnknownDirectoryError) as excinfo:
            executor.execute(KNNQuery(0, 1), directory="nope")
        assert excinfo.value.directory == "nope"
        assert excinfo.value.engine == type(executor).__name__
        # Still a KeyError for callers of the early charged path.
        assert isinstance(excinfo.value, KeyError)
        with pytest.raises(UnknownDirectoryError):
            executor.execute_many([KNNQuery(0, 1)], directory="nope")

    @pytest.mark.parametrize("name", ALL)
    def test_default_directory_accepted_everywhere(self, setting, name):
        _, _, executors = setting
        executor = executors[name]
        assert "objects" in executor.directory_names
        assert executor.execute(KNNQuery(0, 2), directory="objects") == (
            executor.execute(KNNQuery(0, 2))
        )

    def test_charged_named_directory_still_served(self, setting):
        network, _, executors = setting
        road = executors["ROAD"]
        extra = place_uniform(network, 6, seed=99)
        road.attach_objects(extra, name="extra")
        try:
            got = road.execute(KNNQuery(0, 2), directory="extra")
            assert {entry.object_id for entry in got} <= set(extra.ids())
        finally:
            road.detach_objects("extra")

    def test_frozen_snapshot_names_its_directory(self, setting):
        _, _, executors = setting
        frozen = executors["FrozenRoad"]
        assert frozen.directory_names == ["objects"]

    def test_non_default_directory_snapshot_serves_by_default(self, setting):
        """Regression: a snapshot frozen from a named provider must keep
        serving ``execute(query)`` without the caller re-naming the
        directory (``directory=None`` means the executor's own default)."""
        network, _, executors = setting
        road = executors["ROAD"]
        hotels = place_uniform(network, 6, seed=77)
        road.attach_objects(hotels, name="hotels")
        try:
            snapshot = road.freeze(directory="hotels")
            assert snapshot.default_directory == "hotels"
            got = snapshot.execute(KNNQuery(0, 2))
            assert got == snapshot.execute(KNNQuery(0, 2), directory="hotels")
            assert {entry.object_id for entry in got} <= set(hotels.ids())
            with pytest.raises(UnknownDirectoryError):
                snapshot.execute(KNNQuery(0, 2), directory="objects")
        finally:
            road.detach_objects("hotels")

    def test_unknown_directory_str_is_plain_sentence(self, setting):
        _, _, executors = setting
        with pytest.raises(UnknownDirectoryError) as excinfo:
            executors["ROAD"].execute(KNNQuery(0, 1), directory="nope")
        rendered = f"{excinfo.value}"
        assert rendered.startswith("ROAD serves no directory")
        assert not rendered.startswith('"')
