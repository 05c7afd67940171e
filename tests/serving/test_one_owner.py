"""One owner for the served ROAD: every write reaches each snapshot once.

The executor :meth:`RoadService.build` creates, a
:class:`~repro.core.owner.SnapshotOwner`, is the only code holding the
ROAD.  A write through the service lands on it, the owner patches
(or, for a directory-membership change, re-freezes) its own ``list``
snapshot inside the call, and the service fans the owner's report out
to the process pool, whose ``shm`` snapshot the owner froze and which
patches itself from the report (or is replaced by a fresh freeze of the
owner's).  This suite counts, per write and per execution arm, how often
each snapshot was touched, and holds every snapshot byte-identical to a
fresh freeze afterwards.
"""

import random

import pytest

from repro.core.framework import ROAD
from repro.core.frozen import FrozenRoad
from repro.eval.metrics import snapshot_divergences
from repro.graph.generators import grid_network
from repro.objects.model import SpatialObject
from repro.objects.placement import place_uniform
from repro.queries.writes import AddEdge, RemoveEdge, UpdateObjectAttrs
from tests.oracle import ARMS, build_arm


@pytest.fixture
def touches(monkeypatch):
    """Every snapshot patch and every freeze: ``(what, backend, report)``."""
    seen = []
    apply, freeze = FrozenRoad.apply, ROAD.freeze

    def counting_apply(self, report, road=None):
        seen.append(("apply", self.backend, report))
        return apply(self, report, road)

    def counting_freeze(self, **kwargs):
        snapshot = freeze(self, **kwargs)
        seen.append(("freeze", snapshot.backend, None))
        return snapshot

    monkeypatch.setattr(FrozenRoad, "apply", counting_apply)
    monkeypatch.setattr(ROAD, "freeze", counting_freeze)
    return seen


def _writes(network):
    """The six maintenance operations, then attach and detach, in an
    order where each one's precondition holds."""
    u, v, distance = sorted(network.edges())[0]
    a, b = 0, 27
    assert not network.has_edge(a, b)
    fresh = SpatialObject(10_000, (u, v), 0.0, {"type": "cafe"})
    hotels = place_uniform(network, 5, seed=41)
    return [
        ("insert_object", lambda s: s.insert_object(fresh)),
        ("update_object_attrs",
         lambda s: s.write(UpdateObjectAttrs(fresh.object_id, {"type": "fuel"}))),
        ("delete_object", lambda s: s.delete_object(fresh.object_id)),
        ("update_edge_distance",
         lambda s: s.update_edge_distance(u, v, distance * 1.5)),
        ("add_edge", lambda s: s.write(AddEdge(a, b, 1.0))),
        ("remove_edge", lambda s: s.write(RemoveEdge(a, b))),
        ("attach_objects", lambda s: s.attach_objects(hotels, name="hotels")),
        ("detach_objects", lambda s: s.detach_objects("hotels")),
    ]


@pytest.mark.parametrize("arm", list(ARMS))
def test_each_write_reaches_each_snapshot_once(arm, touches):
    network = grid_network(8, 8, seed=3)
    objects = place_uniform(
        network, 20, seed=8, attr_choices={"type": ["cafe", "fuel"]}
    )
    service = build_arm(network, objects, arm)
    engine = service.executor
    pooled = 1 if arm == "process" else 0
    try:
        for op, write in _writes(engine.network):
            before = engine.last_report
            del touches[:]
            write(service)
            applies = [t for t in touches if t[0] == "apply"]
            freezes = [t for t in touches if t[0] == "freeze"]
            backends = sorted(backend for _, backend, _ in touches)
            if op.endswith("_objects"):
                # Membership: one re-freeze per snapshot, no patch, no report.
                assert not applies, op
                assert backends == ["list"] + ["shm"] * pooled, op
                assert engine.last_report is before, op
            else:
                assert not freezes, op
                assert backends == ["list"] + ["shm"] * pooled, op
                (report,) = {id(r): r for _, _, r in applies}.values()
                assert engine.last_report is report, op
                assert report is not before, op
            fresh = engine.road.freeze()
            for snapshot in (engine.frozen, *service.replicas):
                assert snapshot_divergences(
                    random.Random(7), snapshot, fresh, probes=2
                ) == [], (op, snapshot.backend)
    finally:
        service.close()
