"""The stdlib generators against the numpy/scipy ones, bit for bit.

:mod:`repro.graph.generators` replaced numpy's ``RandomState``, scipy's
Delaunay and numpy's ``hypot`` with stdlib code that must reproduce every
network, object set and workload exactly: coordinates, edge sets and
distances are compared as ``float.hex``, nodes and edges in the order the
networks hold them.  The reference is the former code, kept in
:mod:`tests.graph.reference_generators`.  Runs only where numpy and scipy
are installed (CI gives it a step of its own); the package needs neither.
"""

import pytest

pytest.importorskip("numpy")
pytest.importorskip("scipy")

import numpy as np  # noqa: E402

from repro.graph import generators  # noqa: E402
from repro.objects import placement  # noqa: E402
from repro.queries import workload  # noqa: E402
from tests.graph import reference_generators as reference  # noqa: E402

ATTRS = {"type": ["restaurant", "hotel", "fuel"], "open": ["day", "night"]}


def network_bits(network):
    """Everything a generated network holds, floats as hex, in order."""
    return (
        network.metric,
        [(n, *(c.hex() for c in network.coords(n))) for n in network.node_ids()],
        [(u, v, d.hex()) for u, v, d in network.edges()],
    )


def object_bits(objects):
    return [
        (o.object_id, o.edge, o.delta.hex(), sorted(o.attrs.items()))
        for o in (objects.get(i) for i in objects.ids())
    ]


@pytest.mark.parametrize(
    "profile, num_nodes",
    [("ca_like", 2100), ("na_like", 4000), ("sf_like", 4000), ("ca_like", 21048)],
)
def test_dataset_profiles(profile, num_nodes):
    ours = getattr(generators, profile)(num_nodes)
    theirs = getattr(reference, profile)(num_nodes)
    assert network_bits(ours) == network_bits(theirs)


@pytest.mark.parametrize(
    "num_nodes, ratio, seed, clusters",
    [
        (3, 1.0, 0, 0),
        (60, 1.1, 1, 0),
        (300, 1.2, 2, 0),
        (500, 1.5, 3, 3),
        (800, 3.5, 4, 0),  # more than Delaunay supplies: every edge kept
        (1000, 1.05, 5, 7),
        (1500, 1.02, 6, 12),
        (2000, 1.3, 2**32 - 1, 1),
    ],
)
def test_road_network(num_nodes, ratio, seed, clusters):
    ours = generators.road_network(num_nodes, ratio, seed=seed, clusters=clusters)
    theirs = reference.road_network(num_nodes, ratio, seed=seed, clusters=clusters)
    assert network_bits(ours) == network_bits(theirs)


@pytest.mark.parametrize("removal_prob", [0.0, 0.2])
def test_grid_network(removal_prob):
    kw = dict(seed=5, removal_prob=removal_prob)
    assert network_bits(generators.grid_network(12, 9, **kw)) == network_bits(
        reference.grid_network(12, 9, **kw)
    )


def test_travel_time_metric():
    base = generators.ca_like(400, seed=3)
    assert network_bits(generators.travel_time_metric(base, seed=8)) == network_bits(
        reference.travel_time_metric(base, seed=8)
    )


@pytest.mark.parametrize("seed", [0, 17])
def test_placement(seed):
    network = generators.ca_like(2100)
    for attrs in (None, ATTRS):
        assert object_bits(
            placement.place_uniform(network, 300, seed=seed, attr_choices=attrs)
        ) == object_bits(
            reference.place_uniform(network, 300, seed=seed, attr_choices=attrs)
        )
        assert object_bits(
            placement.place_clustered(
                network, 300, clusters=6, seed=seed, attr_choices=attrs
            )
        ) == object_bits(
            reference.place_clustered(
                network, 300, clusters=6, seed=seed, attr_choices=attrs
            )
        )


def test_workloads():
    network = generators.ca_like(2100)
    for seed in (0, 9):
        assert workload.random_query_nodes(
            network, 200, seed=seed
        ) == reference.random_query_nodes(network, 200, seed=seed)
        ours = workload.mixed_workload(network, 200, radius=40.0, seed=seed)
        theirs = reference.mixed_workload(network, 200, radius=40.0, seed=seed)
        assert repr(ours) == repr(theirs)


@pytest.mark.parametrize("seed", [0, 1, 4_294_967_295])
def test_random_state_draws(seed):
    """Each replayed draw, interleaved so a misplaced word shows."""
    ours, theirs = generators.LegacyRandomState(seed), np.random.RandomState(seed)
    for top in (1, 2, 3, 5, 64, 1000, 2**31, 2**32):
        assert ours.randint(top) == theirs.randint(top)
        want = theirs.randint(-7, top - 7, size=5).tolist()
        assert ours.randint(-7, top - 7, size=5) == want
        assert ours.random_sample() == theirs.random_sample()
    want = theirs.uniform(-2.0, 3.0, (5, 2)).ravel().tolist()
    assert ours.uniform(-2.0, 3.0, size=10) == want
    assert ours.normal(0.0, 3.0, size=7) == theirs.normal(0.0, 3.0, 7).tolist()
    # An odd count left a cached normal value; a uniform draw must not eat it.
    assert ours.uniform(0.0, 1.0) == theirs.uniform(0.0, 1.0)
    want = theirs.normal(1.0, 2.0, (2, 2)).ravel().tolist()
    assert ours.normal(1.0, 2.0, size=4) == want
    a, b = list(range(40)), list(range(40))
    ours.shuffle(a)
    theirs.shuffle(b)
    assert a == b
    assert ours.choice(500, 9) == theirs.choice(500, size=9, replace=False).tolist()


def test_hypot_matches_numpy():
    rng = np.random.RandomState(2)
    for scale in (1.0, 1e3, 1e-160, 1e-300, 1e160, 1e300):
        xs = rng.uniform(-1.0, 1.0, 20_000) * scale
        ys = rng.uniform(-1.0, 1.0, 20_000) * scale
        pairs = zip(xs.tolist(), ys.tolist())
        ours = [generators.glibc_hypot(x, y).hex() for x, y in pairs]
        assert ours == [h.hex() for h in np.hypot(xs, ys).tolist()]
    special = [0.0, -0.0, 5e-324, 1.0, float("inf"), float("-inf"), float("nan")]
    for x in special:
        for y in special:
            assert generators.glibc_hypot(x, y).hex() == float(np.hypot(x, y)).hex()


def test_delaunay_edges_match_scipy_on_border_bands():
    """The clustered profile's clipped, jittered border bands, on which
    floating-point in-circle tests are least sure."""
    from scipy.spatial import Delaunay

    rng = np.random.RandomState(11)
    points = np.clip(rng.normal(500.0, 900.0, (3000, 2)), 0.0, 1000.0)
    points += rng.uniform(-0.1, 0.1, points.shape)
    want = set()
    for simplex in Delaunay(points).simplices:
        a, b, c = sorted(int(v) for v in simplex)
        want |= {(a, b), (b, c), (a, c)}
    xs, ys = points[:, 0].tolist(), points[:, 1].tolist()
    assert generators.delaunay_edges(xs, ys) == sorted(want)
