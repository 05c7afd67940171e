#!/usr/bin/env python
"""Multiple content providers on one map (Sections 1 and 3.4).

The Web-LBS deployment model the paper motivates: a map service provider
maintains the network (one Route Overlay), while independent content
providers map their own objects onto it on the fly — each in its own
Association Directory.  "Depending on application needs, other objects can
be placed into the same Association Directory or in a separate [one] ...
multiple Association Directories that carry different types of objects can
be accessed simultaneously."

Queries go through one :class:`repro.serving.RoadService` front door:
``directory=`` selects the provider on every engine uniformly, and a
directory nobody attached raises a typed ``UnknownDirectoryError``
instead of being silently ignored.  Run with::

    python examples/multi_provider_directory.py
"""

from repro import (
    KNNQuery,
    Predicate,
    RangeQuery,
    ROAD,
    RoadService,
    UnknownDirectoryError,
)
from repro.core.object_abstract import bloom_abstract
from repro.graph import na_like
from repro.objects import place_clustered, place_uniform


def main() -> None:
    # The map provider's asset: network + Route Overlay, built once.
    atlas = na_like(num_nodes=2000, seed=21)
    road = ROAD.build(atlas, levels=4, fanout=4)
    service = RoadService(road)
    print(f"map service: {atlas.num_nodes} nodes indexed, "
          f"{road.overlay.page_count} overlay pages")

    # Provider 1: a hotel-booking site (typed inventory, exact abstracts).
    hotels = place_clustered(
        atlas, 60, clusters=5, seed=1,
        attr_choices={"stars": ["2", "3", "4", "5"]},
    )
    road.attach_objects(hotels, name="hotels")

    # Provider 2: an EV-charging operator (Bloom-filter abstracts: compact,
    # fine for append-mostly inventories).
    chargers = place_uniform(
        atlas, 40, seed=2, attr_choices={"plug": ["ccs", "chademo", "type2"]},
    )
    road.attach_objects(
        chargers, name="chargers", abstract_factory=bloom_abstract(num_bits=512)
    )

    # Provider 3: a roadside-assistance fleet (tiny, volatile).
    fleet = place_uniform(atlas, 8, seed=3)
    road.attach_objects(fleet, name="assistance")

    print(f"providers attached: {', '.join(sorted(road.directory_names))}")

    traveller = 1200

    # Each provider's data is queried independently over the same overlay
    # — same query objects, same service, different ``directory=``.
    print("\nnearest 4-star-or-better hotels:")
    for stars in ("4", "5"):
        query = KNNQuery(traveller, 2, Predicate.of(stars=stars))
        for entry in service.run(query, directory="hotels"):
            print(f"  {stars}* hotel {entry.object_id}: {entry.distance:.0f} m")

    print("\nCCS chargers within 15 km:")
    query = RangeQuery(traveller, 15_000.0, Predicate.of(plug="ccs"))
    found = service.run(query, directory="chargers")
    for entry in found[:5]:
        print(f"  charger {entry.object_id}: {entry.distance:.0f} m")
    print(f"  ({len(found)} total)")

    print("\nclosest assistance vehicle:")
    entry = service.run(KNNQuery(traveller, 1), directory="assistance")[0]
    print(f"  vehicle {entry.object_id}: {entry.distance:.0f} m")

    # Providers update independently: the fleet moves, hotels re-price,
    # chargers come online — the Route Overlay is never touched.
    vehicle = road.directory("assistance").objects.ids()[0]
    u, v, d = next(atlas.edges())
    road.directory("assistance").relocate(vehicle, (u, v), d / 2)
    road.update_object_attrs(
        road.directory("hotels").objects.ids()[0], {"stars": "1"},
        directory="hotels",
    )
    print("\nfleet relocated + hotel re-rated; overlay untouched "
          f"({road.overlay.page_count} pages, unchanged)")

    # Serving tier: compile ALL providers into ONE frozen snapshot.  The
    # Route Overlay entry arrays — the memory that scales with the map —
    # are built once and shared; each provider adds only its object spans
    # and abstract slots.  Compare against per-provider snapshots:
    snapshot = road.freeze()
    combined = snapshot.memory_stats()
    singles = sum(
        road.freeze(directory=name).memory_stats()["total_bytes"]
        for name in road.directory_names
    )
    print(f"\none frozen snapshot for {len(snapshot.directory_names)} "
          f"providers: {combined['total_bytes'] / 1024:.0f} KiB resident "
          f"vs {singles / 1024:.0f} KiB as separate snapshots "
          f"({singles / combined['total_bytes']:.1f}x saved)")
    for name, breakdown in combined["directories"].items():
        print(f"  {name}: {breakdown['object_array_bytes']} B object "
              f"arrays, {breakdown['object_refs']} slots")
    entry = snapshot.knn(traveller, 1, directory="chargers")[0]
    print(f"  (snapshot serves every provider: nearest charger "
          f"{entry.object_id} at {entry.distance:.0f} m)")

    # One provider leaving does not disturb the others — and asking for
    # it afterwards fails loudly, on every serving path.
    road.detach_objects("assistance")
    print(f"assistance provider detached; remaining: "
          f"{', '.join(sorted(road.directory_names))}")
    try:
        service.run(KNNQuery(traveller, 1), directory="assistance")
    except UnknownDirectoryError as exc:
        print(f"querying the departed provider: {exc}")
    assert service.run(KNNQuery(traveller, 1), directory="hotels")


if __name__ == "__main__":
    main()
