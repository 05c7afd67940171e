"""Association Directory (Section 3.4, Figure 7).

The Association Directory maps objects onto the network: a B+-tree keyed by
node IDs *and* Rnet IDs.  A node key yields the objects on the node's
incident edges with their offsets δ(o, n); an Rnet key yields the Rnet's
object abstract.  "Nodes and Rnets that do not have objects are not kept in
the B+-tree" — absence means *no object*, which is what lets ChoosePath
prune object-free Rnets with a single failed lookup.

Key encoding: node and Rnet ids share one integer key space by tagging the
low bit — ``node_id * 2`` for nodes, ``rnet_id * 2 + 1`` for Rnets (the
paper simply posits unique IDs; one tagged space keeps the single-B+-tree
design of Figure 7).

Several directories (different content providers / object types) can
coexist on the same network: construct one per object set with distinct
``name``s, optionally sharing one pager.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

from repro.graph.network import RoadNetwork
from repro.core.object_abstract import AbstractFactory, ObjectAbstract, exact_abstract
from repro.core.rnet import Rnet, RnetHierarchy
from repro.objects.model import ObjectSet, SpatialObject
from repro.queries.types import Predicate
from repro.storage.bptree import BPlusTree
from repro.storage.codecs import attrs_size, object_record_size
from repro.storage.pager import PageManager


class DirectoryError(Exception):
    """Raised on invalid object operations."""


def _node_key(node_id: int) -> int:
    return node_id * 2


def _rnet_key(rnet_id: int) -> int:
    return rnet_id * 2 + 1


class AssociationDirectory:
    """Disk-resident object directory for one object set on one network."""

    def __init__(
        self,
        pager: PageManager,
        network: RoadNetwork,
        hierarchy: RnetHierarchy,
        objects: Optional[ObjectSet] = None,
        *,
        abstract_factory: AbstractFactory = exact_abstract,
        name: str = "assoc-dir",
    ) -> None:
        self._pager = pager
        self.network = network
        self.hierarchy = hierarchy
        self.name = name
        self._abstract_factory = abstract_factory
        self._tree = BPlusTree(pager, name=name)
        self._objects = ObjectSet()
        if objects is not None:
            for obj in objects:
                self.insert(obj)
        pager.flush()

    # ------------------------------------------------------------------
    # Lookup (charged I/O) — the SearchObject primitive of the algorithms
    # ------------------------------------------------------------------
    def node_objects(self, node: int) -> List[Tuple[SpatialObject, float]]:
        """Objects associated with a node as (object, δ(o, node)) pairs."""
        entries = self._tree.get(_node_key(node))
        return list(entries) if entries else []

    def rnet_abstract(self, rnet_id: int) -> Optional[ObjectAbstract]:
        """The Rnet's abstract, or None when the Rnet holds no object."""
        return self._tree.get(_rnet_key(rnet_id))

    def rnet_may_contain(self, rnet_id: int, predicate: Predicate) -> bool:
        """SearchObject(AD, R): can R contain an object of interest?"""
        abstract = self.rnet_abstract(rnet_id)
        if abstract is None:
            return False
        return abstract.may_contain(predicate)

    def pruning_keys(self, edge: Tuple[int, int]) -> Dict[int, Hashable]:
        """The :meth:`~repro.core.object_abstract.ObjectAbstract.pruning_key`
        of every Rnet in ``edge``'s chain (``None``: no abstract), uncharged.

        An object write on ``edge`` can change how a search treats an
        Rnet of the chain — bypass or descend, for any predicate — only
        if it moves that Rnet's key (Section 5.1).  An edge the network
        lacks has no chain, so the write itself refuses it.
        """
        if not self.network.has_edge(*edge):
            return {}
        leaf = self.hierarchy.leaf_of_edge(*edge)
        keys: Dict[int, Hashable] = {}
        for rnet in self.hierarchy.ancestors(leaf.rnet_id):
            abstract = self._tree.peek(_rnet_key(rnet.rnet_id))
            keys[rnet.rnet_id] = None if abstract is None else abstract.pruning_key()
        return keys

    # ------------------------------------------------------------------
    # Object updates (Section 5.1) — Route Overlay is never touched
    # ------------------------------------------------------------------
    def insert(self, obj: SpatialObject) -> None:
        """Associate an object with its edge's endpoints and Rnet chain."""
        u, v = obj.edge
        if not self.network.has_edge(u, v):
            raise DirectoryError(f"object {obj.object_id}: no edge {obj.edge}")
        distance = self.network.edge_distance(u, v)
        if obj.delta > distance + 1e-9:
            raise DirectoryError(
                f"object {obj.object_id}: offset beyond edge length"
            )
        self._objects.add(obj)
        self._attach_to_node(u, obj, obj.offset_from(u, distance))
        self._attach_to_node(v, obj, obj.offset_from(v, distance))
        leaf = self.hierarchy.leaf_of_edge(u, v)
        for rnet in self.hierarchy.ancestors(leaf.rnet_id):
            abstract = self._tree.get(_rnet_key(rnet.rnet_id))
            if abstract is None:
                abstract = self._abstract_factory()
            abstract.add(obj)
            self._tree.insert(
                _rnet_key(rnet.rnet_id), abstract, size=abstract.size_bytes
            )

    def delete(self, object_id: int) -> SpatialObject:
        """Remove an object from nodes and from the abstracts of its Rnets."""
        obj = self._objects.remove(object_id)
        u, v = obj.edge
        self._detach_from_node(u, object_id)
        self._detach_from_node(v, object_id)
        leaf = self.hierarchy.leaf_of_edge(u, v)
        for rnet in self.hierarchy.ancestors(leaf.rnet_id):
            key = _rnet_key(rnet.rnet_id)
            abstract = self._tree.get(key)
            if abstract is None:
                continue
            if not abstract.remove(obj):
                abstract = self._rebuild_abstract(rnet)
            if abstract.count == 0:
                self._tree.delete(key)
            else:
                self._tree.insert(key, abstract, size=abstract.size_bytes)
        return obj

    def update_attrs(self, object_id: int, attrs: Dict[str, str]) -> SpatialObject:
        """Change an object's attributes (abstracts are updated)."""
        old = self.delete(object_id)
        updated = SpatialObject(object_id, old.edge, old.delta, dict(attrs))
        self.insert(updated)
        return updated

    def relocate(self, object_id: int, edge: Tuple[int, int], delta: float) -> SpatialObject:
        """Move an object to a new position (delete + insert)."""
        old = self.delete(object_id)
        moved = SpatialObject(object_id, edge, delta, dict(old.attrs))
        self.insert(moved)
        return moved

    def rescale_edge(self, u: int, v: int, factor: float) -> int:
        """Scale offsets of objects on edge (u, v) after a distance change.

        Edge distances are metric values (length, time, toll); an object
        keeps its *relative* position along the segment, so offsets scale
        by ``new_distance / old_distance``.  Abstracts are unaffected.
        Returns the number of objects rescaled.
        """
        if factor <= 0:
            raise DirectoryError("rescale factor must be positive")
        hosted = self._objects.on_edge(u, v)
        if not hosted:
            return 0
        distance = self.network.edge_distance(u, v)
        replacements: Dict[int, SpatialObject] = {}
        for obj in hosted:
            scaled = SpatialObject(
                obj.object_id, obj.edge, obj.delta * factor, dict(obj.attrs)
            )
            self._objects.remove(obj.object_id)
            self._objects.add(scaled)
            replacements[obj.object_id] = scaled
        for node in (u, v):
            key = _node_key(node)
            entries = self._tree.get(key) or []
            rewritten = []
            for obj, delta in entries:
                fresh = replacements.get(obj.object_id)
                if fresh is None:
                    rewritten.append((obj, delta))
                else:
                    rewritten.append((fresh, fresh.offset_from(node, distance)))
            self._tree.insert(key, rewritten, size=self._entries_size(rewritten))
        return len(replacements)

    # ------------------------------------------------------------------
    # Bulk export / teardown
    # ------------------------------------------------------------------
    def peek_node_objects(self, node: int) -> List[Tuple[SpatialObject, float]]:
        """A node's (object, δ) entries, uncharged.

        The single-key counterpart of :meth:`export_entries`: bypasses the
        buffer and counts no I/O, for maintenance-time snapshot patching
        (:meth:`repro.core.frozen.FrozenRoad.apply_object_delta`).  Queries
        must use :meth:`node_objects` and pay the descent.
        """
        entries = self._tree.peek(_node_key(node))
        return list(entries) if entries else []

    def peek_rnet_abstract(self, rnet_id: int) -> Optional[ObjectAbstract]:
        """An Rnet's abstract (or None), uncharged — see
        :meth:`peek_node_objects`."""
        return self._tree.peek(_rnet_key(rnet_id))

    def export_entries(
        self,
    ) -> Tuple[
        Dict[int, List[Tuple[SpatialObject, float]]], Dict[int, ObjectAbstract]
    ]:
        """One charged leaf walk exporting the whole directory.

        Returns ``(node_entries, abstracts)``: per-node (object, δ) lists in
        stored order and per-Rnet object abstracts.  Used by
        :meth:`repro.core.framework.ROAD.freeze` to snapshot the directory.
        """
        node_entries: Dict[int, List[Tuple[SpatialObject, float]]] = {}
        abstracts: Dict[int, ObjectAbstract] = {}
        for key, value in self._tree.items():
            if key % 2 == 0:
                node_entries[key // 2] = list(value)
            else:
                abstracts[key // 2] = value
        return node_entries, abstracts

    def peek_entries(
        self,
    ) -> Tuple[
        Dict[int, List[Tuple[SpatialObject, float]]], Dict[int, ObjectAbstract]
    ]:
        """Uncharged :meth:`export_entries` — same payload, no I/O.

        The bulk member of the ``peek_*`` family: snapshot recompiles
        (:meth:`repro.core.frozen.FrozenRoad._recompile`) re-export the
        directory mid-maintenance, and charging that walk would leak
        maintenance overhead into the query-time I/O figures.
        """
        node_entries: Dict[int, List[Tuple[SpatialObject, float]]] = {}
        abstracts: Dict[int, ObjectAbstract] = {}
        for key, value in self._tree.peek_items():
            if key % 2 == 0:
                node_entries[key // 2] = list(value)
            else:
                abstracts[key // 2] = value
        return node_entries, abstracts

    def free_pages(self) -> int:
        """Release every page of the directory's B+-tree.

        Called by :meth:`repro.core.framework.ROAD.detach_objects`; the
        directory must not be used afterwards.  Returns pages freed.
        """
        return self._tree.destroy()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def objects(self) -> ObjectSet:
        """The authoritative object collection (no I/O charged)."""
        return self._objects

    @property
    def object_count(self) -> int:
        """Number of associated objects."""
        return len(self._objects)

    @property
    def page_count(self) -> int:
        """Pages allocated to the directory."""
        return self._tree.page_count

    @property
    def size_bytes(self) -> int:
        """On-disk footprint."""
        return self._tree.size_bytes

    def get_object(self, object_id: int) -> SpatialObject:
        """Object by id (no I/O charged; for result materialisation)."""
        return self._objects.get(object_id)

    # ------------------------------------------------------------------
    # Internal
    # ------------------------------------------------------------------
    def _attach_to_node(self, node: int, obj: SpatialObject, delta: float) -> None:
        key = _node_key(node)
        entries = self._tree.get(key) or []
        entries.append((obj, delta))
        self._tree.insert(key, entries, size=self._entries_size(entries))

    def _detach_from_node(self, node: int, object_id: int) -> None:
        key = _node_key(node)
        entries = self._tree.get(key) or []
        entries = [(o, d) for o, d in entries if o.object_id != object_id]
        if entries:
            self._tree.insert(key, entries, size=self._entries_size(entries))
        else:
            self._tree.delete(key)

    @staticmethod
    def _entries_size(entries: List[Tuple[SpatialObject, float]]) -> int:
        return sum(
            object_record_size(attrs_size(obj.attrs)) for obj, _ in entries
        )

    def _rebuild_abstract(self, rnet: Rnet) -> ObjectAbstract:
        """Recount an Rnet's abstract from the authoritative object list.

        Needed for fixed-size abstracts (Bloom, signature) that cannot
        delete members.
        """
        abstract = self._abstract_factory()
        for obj in self._objects:
            leaf = self.hierarchy.leaf_of_edge(*obj.edge)
            if any(a.rnet_id == rnet.rnet_id for a in self.hierarchy.ancestors(leaf.rnet_id)):
                abstract.add(obj)
        return abstract
