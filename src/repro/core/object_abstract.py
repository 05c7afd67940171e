"""Object abstracts (Definition 2).

The object abstract ``O(R)`` of an Rnet summarises the objects residing on
its edges so a search can decide, at a border node, whether the Rnet can be
bypassed.  Correctness only needs *no false negatives*: if an object of
interest is inside, the abstract must say "maybe".

Section 3.4 lists implementation choices — "aggregated attribute values
[20], bloom filter [1], signature [5] can be used to represent an object
abstract with fewer storage overheads".  All are provided behind one
interface:

* :class:`ExactAbstract` — per-(attribute, value) counters; exact pruning
  for the equality-conjunction predicates of :mod:`repro.queries`.
* :class:`CountingAbstract` — object count only; prunes empty Rnets but
  never prunes on attributes (maximally compact).
* :class:`BloomAbstract` — Bloom filter over attribute tokens + count.
* :class:`SignatureAbstract` — superimposed-coding signature + count.

Bloom filters and signatures cannot delete; their ``remove`` returns False
to request a rebuild from the authoritative object list (the Association
Directory owns that).
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Optional

from repro.objects.bloom import BloomFilter
from repro.objects.model import SpatialObject
from repro.objects.signature import Signature, SignatureScheme
from repro.queries.types import Predicate
from repro.storage.codecs import INT_SIZE, str_size

#: Factory signature: builds one empty abstract.
AbstractFactory = Callable[[], "ObjectAbstract"]


class ObjectAbstract:
    """Interface: a summary of the objects inside one Rnet."""

    def add(self, obj: SpatialObject) -> None:
        """Account for a newly associated object."""
        raise NotImplementedError

    def remove(self, obj: SpatialObject) -> bool:
        """Remove an object; return False if a rebuild is required."""
        raise NotImplementedError

    def may_contain(self, predicate: Predicate) -> bool:
        """False only if *no* object satisfying ``predicate`` can be inside."""
        raise NotImplementedError

    def pruning_key(self) -> Hashable:
        """Everything :meth:`may_contain` reads, as one hashable value.

        Equal keys give equal ``may_contain`` answers for every
        predicate, so a write that leaves an Rnet's key unchanged cannot
        change a search through that Rnet (the Association Directory
        reports the Rnets whose key moved, Section 5.1).
        """
        raise NotImplementedError

    @property
    def count(self) -> int:
        """Number of objects summarised."""
        raise NotImplementedError

    @property
    def size_bytes(self) -> int:
        """Serialized size used for page-occupancy accounting."""
        raise NotImplementedError


class CountingAbstract(ObjectAbstract):
    """Just an object count: prunes object-free Rnets, ignores attributes."""

    def __init__(self) -> None:
        self._count = 0

    def add(self, obj: SpatialObject) -> None:
        self._count += 1

    def remove(self, obj: SpatialObject) -> bool:
        if self._count <= 0:
            return False
        self._count -= 1
        return True

    def may_contain(self, predicate: Predicate) -> bool:
        return self._count > 0

    def pruning_key(self) -> Hashable:
        return self._count > 0

    @property
    def count(self) -> int:
        return self._count

    @property
    def size_bytes(self) -> int:
        return INT_SIZE


class ExactAbstract(ObjectAbstract):
    """Aggregated attribute-value counters [20].

    Prunes an Rnet when some required (key, value) pair has no object —
    exact for single-attribute predicates, conservative (no false
    negatives) for multi-attribute conjunctions.
    """

    def __init__(self) -> None:
        self._count = 0
        self._attr_counts: Dict[str, Dict[str, int]] = {}

    def add(self, obj: SpatialObject) -> None:
        self._count += 1
        for key, value in obj.attrs.items():
            per_key = self._attr_counts.setdefault(key, {})
            per_key[value] = per_key.get(value, 0) + 1

    def remove(self, obj: SpatialObject) -> bool:
        if self._count <= 0:
            return False
        self._count -= 1
        for key, value in obj.attrs.items():
            per_key = self._attr_counts.get(key)
            if per_key is None or per_key.get(value, 0) <= 0:
                return False
            per_key[value] -= 1
            if per_key[value] == 0:
                del per_key[value]
                if not per_key:
                    del self._attr_counts[key]
        return True

    def may_contain(self, predicate: Predicate) -> bool:
        if self._count == 0:
            return False
        for key, value in predicate.required:
            if self._attr_counts.get(key, {}).get(value, 0) == 0:
                return False
        return True

    def pruning_key(self) -> Hashable:
        # Only positive counters are kept, so the pairs present are the
        # pairs a required (key, value) can find.
        return self._count > 0, frozenset(
            (key, value)
            for key, values in self._attr_counts.items()
            for value in values
        )

    @property
    def count(self) -> int:
        return self._count

    @property
    def size_bytes(self) -> int:
        size = INT_SIZE
        for key, values in self._attr_counts.items():
            size += str_size(key)
            for value in values:
                size += str_size(value) + INT_SIZE
        return size


class BloomAbstract(ObjectAbstract):
    """Bloom filter over attribute tokens [1]; fixed-size, no deletes."""

    def __init__(self, num_bits: int = 256, num_hashes: int = 3) -> None:
        self._bloom = BloomFilter(num_bits=num_bits, num_hashes=num_hashes)
        self._count = 0

    def add(self, obj: SpatialObject) -> None:
        self._count += 1
        for key, value in obj.attrs.items():
            self._bloom.add(f"{key}={value}")

    def remove(self, obj: SpatialObject) -> bool:
        return False  # Bloom filters cannot delete: caller must rebuild

    def may_contain(self, predicate: Predicate) -> bool:
        if self._count == 0:
            return False
        return all(
            f"{key}={value}" in self._bloom
            for key, value in predicate.required
        )

    def pruning_key(self) -> Hashable:
        return self._count > 0, self._bloom.bits

    @property
    def count(self) -> int:
        return self._count

    @property
    def size_bytes(self) -> int:
        return INT_SIZE + self._bloom.size_bytes


class SignatureAbstract(ObjectAbstract):
    """Superimposed-coding signature [5]; fixed-size, no deletes."""

    def __init__(self, scheme: Optional[SignatureScheme] = None) -> None:
        self._signature = Signature(scheme or SignatureScheme())

    def add(self, obj: SpatialObject) -> None:
        self._signature.add_object(obj.attrs)

    def remove(self, obj: SpatialObject) -> bool:
        return False  # signatures cannot delete: caller must rebuild

    def may_contain(self, predicate: Predicate) -> bool:
        return self._signature.may_contain(predicate.as_dict())

    def pruning_key(self) -> Hashable:
        return self._signature.count > 0, self._signature.bits

    @property
    def count(self) -> int:
        return self._signature.count

    @property
    def size_bytes(self) -> int:
        return INT_SIZE + self._signature.size_bytes


def exact_abstract() -> ObjectAbstract:
    """Default factory: :class:`ExactAbstract`."""
    return ExactAbstract()


def counting_abstract() -> ObjectAbstract:
    """Factory: :class:`CountingAbstract`."""
    return CountingAbstract()


def bloom_abstract(num_bits: int = 256) -> AbstractFactory:
    """Factory-of-factories: Bloom abstracts of a given width."""

    def make() -> ObjectAbstract:
        return BloomAbstract(num_bits=num_bits)

    return make


def signature_abstract(scheme: Optional[SignatureScheme] = None) -> AbstractFactory:
    """Factory-of-factories: signature abstracts sharing one scheme."""
    shared = scheme or SignatureScheme()

    def make() -> ObjectAbstract:
        return SignatureAbstract(shared)

    return make
