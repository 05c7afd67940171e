"""Object abstracts: no false negatives, update semantics, sizes, and
pruning keys."""

import random

import pytest

from repro.core.object_abstract import (
    BloomAbstract,
    CountingAbstract,
    ExactAbstract,
    SignatureAbstract,
    bloom_abstract,
    counting_abstract,
    exact_abstract,
    signature_abstract,
)
from repro.objects.model import SpatialObject
from repro.queries.types import ANY, Predicate


def obj(object_id=1, **attrs):
    return SpatialObject(object_id, (1, 2), 0.5, attrs)


ALL_FACTORIES = [
    exact_abstract,
    counting_abstract,
    bloom_abstract(),
    signature_abstract(),
]


@pytest.mark.parametrize("factory", ALL_FACTORIES)
class TestCommonContract:
    def test_empty_abstract_contains_nothing(self, factory):
        abstract = factory()
        assert abstract.count == 0
        assert not abstract.may_contain(ANY)
        assert not abstract.may_contain(Predicate.of(type="hotel"))

    def test_added_object_always_findable(self, factory):
        abstract = factory()
        abstract.add(obj(type="hotel"))
        assert abstract.count == 1
        assert abstract.may_contain(ANY)
        assert abstract.may_contain(Predicate.of(type="hotel"))

    def test_multiple_objects_counted(self, factory):
        abstract = factory()
        abstract.add(obj(1, type="hotel"))
        abstract.add(obj(2, type="fuel"))
        assert abstract.count == 2
        assert abstract.may_contain(Predicate.of(type="hotel"))
        assert abstract.may_contain(Predicate.of(type="fuel"))

    def test_size_bytes_positive(self, factory):
        abstract = factory()
        abstract.add(obj(type="hotel"))
        assert abstract.size_bytes > 0


class TestExactAbstract:
    def test_wrong_value_pruned(self):
        abstract = ExactAbstract()
        abstract.add(obj(type="hotel"))
        assert not abstract.may_contain(Predicate.of(type="fuel"))
        assert not abstract.may_contain(Predicate.of(stars="5"))

    def test_remove_reverts_counts(self):
        abstract = ExactAbstract()
        o = obj(type="hotel")
        abstract.add(o)
        assert abstract.remove(o)
        assert abstract.count == 0
        assert not abstract.may_contain(Predicate.of(type="hotel"))

    def test_remove_keeps_remaining_values(self):
        abstract = ExactAbstract()
        a, b = obj(1, type="hotel"), obj(2, type="hotel")
        abstract.add(a)
        abstract.add(b)
        abstract.remove(a)
        assert abstract.may_contain(Predicate.of(type="hotel"))

    def test_remove_from_empty_requests_rebuild(self):
        assert not ExactAbstract().remove(obj())

    def test_multi_attribute_conjunction_conservative(self):
        abstract = ExactAbstract()
        abstract.add(obj(1, type="hotel", city="SF"))
        abstract.add(obj(2, type="fuel", city="LA"))
        # No single object is (hotel, LA), but per-value counts cannot rule
        # it out: must answer "maybe" (no false negatives, possible FP).
        assert abstract.may_contain(Predicate.of(type="hotel", city="LA"))
        assert not abstract.may_contain(Predicate.of(type="bank"))

    def test_size_grows_with_distinct_values(self):
        abstract = ExactAbstract()
        abstract.add(obj(1, type="hotel"))
        small = abstract.size_bytes
        abstract.add(obj(2, type="fuel"))
        assert abstract.size_bytes > small


class TestCountingAbstract:
    def test_ignores_attributes(self):
        abstract = CountingAbstract()
        abstract.add(obj(type="hotel"))
        assert abstract.may_contain(Predicate.of(type="fuel"))  # conservative

    def test_remove(self):
        abstract = CountingAbstract()
        abstract.add(obj())
        assert abstract.remove(obj())
        assert abstract.count == 0
        assert not abstract.remove(obj())

    def test_fixed_size(self):
        abstract = CountingAbstract()
        before = abstract.size_bytes
        for i in range(10):
            abstract.add(obj(i, type=f"t{i}"))
        assert abstract.size_bytes == before


class TestFixedSizeAbstracts:
    @pytest.mark.parametrize("cls", [BloomAbstract, SignatureAbstract])
    def test_remove_requests_rebuild(self, cls):
        abstract = cls()
        o = obj(type="hotel")
        abstract.add(o)
        assert not abstract.remove(o)

    def test_bloom_prunes_unseen_values(self):
        abstract = BloomAbstract(num_bits=512)
        abstract.add(obj(type="hotel"))
        misses = sum(
            not abstract.may_contain(Predicate.of(type=f"value-{i}"))
            for i in range(50)
        )
        assert misses > 40

    def test_signature_prunes_unseen_values(self):
        abstract = SignatureAbstract()
        abstract.add(obj(type="hotel"))
        misses = sum(
            not abstract.may_contain(Predicate.of(type=f"value-{i}"))
            for i in range(50)
        )
        assert misses > 40

    def test_bloom_size_fixed(self):
        abstract = BloomAbstract(num_bits=256)
        before = abstract.size_bytes
        for i in range(20):
            abstract.add(obj(i, type=f"t{i}"))
        assert abstract.size_bytes == before

    def test_factories_share_signature_scheme(self):
        factory = signature_abstract()
        a, b = factory(), factory()
        assert a._signature.scheme is b._signature.scheme


#: A predicate sample: the unconstrained one, every single pair of a small
#: vocabulary (seen and unseen), and some conjunctions.
VOCABULARY = {"type": ["hotel", "fuel", "cafe"], "stars": ["3", "5"]}
PREDICATES = (
    [ANY, Predicate.of(type="bank")]
    + [
        Predicate.of(**{key: value})
        for key, values in VOCABULARY.items()
        for value in values
    ]
    + [
        Predicate.of(type=kind, stars=stars)
        for kind in VOCABULARY["type"]
        for stars in VOCABULARY["stars"]
    ]
)


def answers(abstract):
    return tuple(abstract.may_contain(predicate) for predicate in PREDICATES)


def random_abstracts(factory, seed, count=300):
    """Abstracts over random object multisets: adds, and for abstracts
    that can delete, removes — so many distinct histories share a key."""
    rnd = random.Random(seed)
    out = []
    for _ in range(count):
        abstract, live = factory(), []
        for step in range(rnd.randrange(0, 6)):
            if live and rnd.random() < 0.3 and abstract.remove(live[-1]):
                live.pop()
                continue
            attrs = {
                key: rnd.choice(values)
                for key, values in VOCABULARY.items()
                if rnd.random() < 0.7
            }
            new = obj(step, **attrs)
            abstract.add(new)
            live.append(new)
        out.append(abstract)
    return out


@pytest.mark.parametrize("factory", ALL_FACTORIES)
class TestPruningKey:
    def test_equal_keys_give_equal_answers(self, factory):
        by_key = {}
        for abstract in random_abstracts(factory, seed=7):
            by_key.setdefault(abstract.pruning_key(), set()).add(answers(abstract))
        assert all(len(seen) == 1 for seen in by_key.values()), by_key
        # The sample is not degenerate: keys repeat and differ.
        assert 1 < len(by_key) < 300

    def test_empty_and_non_empty_keys_differ(self, factory):
        abstract = factory()
        empty = abstract.pruning_key()
        hash(empty)
        abstract.add(obj(type="hotel"))
        assert abstract.pruning_key() != empty
        assert factory().pruning_key() == empty

    def test_a_repeated_pair_keeps_the_key(self, factory):
        abstract = factory()
        abstract.add(obj(1, type="hotel"))
        before = abstract.pruning_key()
        abstract.add(obj(2, type="hotel"))
        assert abstract.pruning_key() == before


@pytest.mark.parametrize(
    "factory", [exact_abstract, bloom_abstract(), signature_abstract()]
)
def test_a_first_pair_moves_the_key(factory):
    abstract = factory()
    abstract.add(obj(1, type="hotel"))
    before = abstract.pruning_key()
    abstract.add(obj(2, type="fuel"))
    assert abstract.pruning_key() != before


def test_counting_key_ignores_attributes():
    abstract = CountingAbstract()
    abstract.add(obj(1, type="hotel"))
    before = abstract.pruning_key()
    abstract.add(obj(2, type="fuel"))
    assert abstract.pruning_key() == before


@pytest.mark.parametrize("factory", [exact_abstract, counting_abstract])
def test_removing_the_last_object_restores_the_empty_key(factory):
    abstract = factory()
    empty = abstract.pruning_key()
    hotel = obj(1, type="hotel")
    abstract.add(hotel)
    assert abstract.remove(hotel)
    assert abstract.pruning_key() == empty


def test_exact_key_moves_on_a_last_pair_only():
    abstract = ExactAbstract()
    first, second = obj(1, type="hotel"), obj(2, type="hotel")
    fuel = obj(3, type="fuel")
    for o in (first, second, fuel):
        abstract.add(o)
    full = abstract.pruning_key()
    abstract.remove(first)  # one hotel is left: the pair stays
    assert abstract.pruning_key() == full
    abstract.remove(fuel)  # the last fuel: the pair goes
    assert abstract.pruning_key() != full
    only_hotels = ExactAbstract()
    only_hotels.add(obj(4, type="hotel"))
    assert abstract.pruning_key() == only_hotels.pruning_key()
