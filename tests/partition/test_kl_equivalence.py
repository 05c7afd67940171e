"""Differential test: the integer FM pass against the reference pass.

:func:`repro.partition.kl.refine_bisection` must make the decisions of the
dict-keyed pass in :mod:`tests.partition.reference_kl` — the same halves
(down to their iteration order, which later levels and float weight sums
read), the same cut — for every weighting, balance tolerance and pass
budget.  Graphs come from stdlib ``random`` only, so this file runs in the
no-numpy CI leg.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.partition import kl
from repro.partition.kl import refine_bisection
from tests.conftest import random_connected_network
from tests.partition import reference_kl


def _instance(seed, num_nodes, extra_edges, weighting, spatial):
    """A random network, an initial bisection of its edges and weights."""
    rnd = random.Random(seed)
    network = random_connected_network(rnd, num_nodes, extra_edges)
    edges = sorted((u, v) for u, v, _ in network.edges())
    if spatial:  # a geometric-looking start: split by midpoint x
        edges.sort(key=lambda e: network.coords(e[0])[0] + network.coords(e[1])[0])
    else:
        rnd.shuffle(edges)
    half = rnd.randint(1, len(edges) - 1)
    left, right = set(edges[:half]), set(edges[half:])
    if weighting == "unit":
        weights = None
    elif weighting == "integral":  # object weights: 1 + k * emphasis
        weights = {e: 1.0 + 4.0 * rnd.randint(0, 3) for e in edges}
    else:
        weights = {e: rnd.uniform(0.1, 5.0) for e in edges}
    return network, left, right, weights


def _assert_same(network, left, right, **kwargs):
    got = refine_bisection(network, left, right, **kwargs)
    want = reference_kl.refine_bisection(network, left, right, **kwargs)
    assert got[2] == want[2]
    # Equal lists: the same halves, in the same iteration order.
    assert list(got[0]) == list(want[0]) and list(got[1]) == list(want[1])


@settings(max_examples=200)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_nodes=st.integers(3, 150),
    extra_edges=st.integers(0, 60),
    weighting=st.sampled_from(["unit", "integral", "float"]),
    spatial=st.booleans(),
    balance_tol=st.sampled_from([0.1, 0.25, 10.0]),
    max_passes=st.sampled_from([0, 1, 8]),
)
def test_matches_reference_pass(
    seed, num_nodes, extra_edges, weighting, spatial, balance_tol, max_passes
):
    network, left, right, weights = _instance(
        seed, num_nodes, extra_edges, weighting, spatial
    )
    _assert_same(
        network, left, right,
        weights=weights, balance_tol=balance_tol, max_passes=max_passes,
    )


@pytest.fixture
def heaps(monkeypatch):
    """Every FM pass's heap, as left behind when the pass returned."""
    seen = []
    kl_heapify = kl.heapify

    def recording_heapify(heap):
        seen.append(heap)
        kl_heapify(heap)

    monkeypatch.setattr(kl, "heapify", recording_heapify)
    return seen


@pytest.mark.parametrize("weighting", ["unit", "integral"])
def test_early_stop_fires_and_changes_nothing(heaps, weighting):
    """A full pass drains its heap; a stopped one leaves entries behind."""
    network, left, right, weights = _instance(5, 300, 60, weighting, spatial=True)
    _assert_same(network, left, right, weights=weights, max_passes=8)
    stopped = sum(1 for heap in heaps if heap)
    assert stopped >= 1
    assert len(heaps) >= 2  # at least one improving pass, then the last


def test_float_weights_run_every_pass_to_the_end(heaps):
    """Moving a float weight forward and back need not restore its sums."""
    network, left, right, weights = _instance(5, 300, 60, "float", spatial=True)
    _assert_same(network, left, right, weights=weights, max_passes=8)
    assert heaps and not any(heaps)
