"""Bloom filter [1].

Section 3.4 suggests Bloom filters as one compact representation of an
object abstract: a fixed bitmap answering "might this Rnet contain an object
of interest?" with no false negatives.  Hashing uses ``hashlib`` digests so
behaviour is stable across processes (Python's ``hash`` of strings is
salted per run).
"""

from __future__ import annotations

import hashlib
import math
from typing import Hashable, Iterable


class BloomFilter:
    """Fixed-size Bloom filter over hashable items.

    Parameters
    ----------
    num_bits:
        Bitmap width ``m``.
    num_hashes:
        Number of hash functions ``k``; defaults to the optimum for the
        expected load if ``expected_items`` is given, else 3.
    expected_items:
        Optional sizing hint used only to pick ``num_hashes``.
    """

    def __init__(
        self,
        num_bits: int = 256,
        num_hashes: int = 0,
        expected_items: int = 0,
    ) -> None:
        if num_bits < 8:
            raise ValueError("num_bits must be >= 8")
        self.num_bits = num_bits
        if num_hashes > 0:
            self.num_hashes = num_hashes
        elif expected_items > 0:
            # k* = (m/n) ln 2, clamped to something sane
            self.num_hashes = max(1, min(8, round(num_bits / expected_items * math.log(2))))
        else:
            self.num_hashes = 3
        self._bits = 0
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def _positions(self, item: Hashable) -> Iterable[int]:
        # Double hashing over a stable digest: h_i = h1 + i*h2 (mod m).
        digest = hashlib.blake2b(repr(item).encode(), digest_size=16).digest()
        h1 = int.from_bytes(digest[:8], "little")
        h2 = int.from_bytes(digest[8:], "little") | 1
        for i in range(self.num_hashes):
            yield (h1 + i * h2) % self.num_bits

    def add(self, item: Hashable) -> None:
        """Insert an item."""
        for pos in self._positions(item):
            self._bits |= 1 << pos
        self._count += 1

    def __contains__(self, item: Hashable) -> bool:
        return all(self._bits >> pos & 1 for pos in self._positions(item))

    def union(self, other: "BloomFilter") -> "BloomFilter":
        """OR-combine two filters of identical geometry (Lemma 1 roll-up)."""
        if (self.num_bits, self.num_hashes) != (other.num_bits, other.num_hashes):
            raise ValueError("cannot union Bloom filters of different shapes")
        merged = BloomFilter(self.num_bits, self.num_hashes)
        merged._bits = self._bits | other._bits
        merged._count = self._count + other._count
        return merged

    def clear(self) -> None:
        """Remove everything (rebuild path for maintenance)."""
        self._bits = 0
        self._count = 0

    @property
    def bits(self) -> int:
        """The bitmap as an integer (bit ``i`` set = position ``i`` hit)."""
        return self._bits

    @property
    def fill_ratio(self) -> float:
        """Fraction of set bits — a false-positive-rate proxy."""
        return bin(self._bits).count("1") / self.num_bits

    @property
    def size_bytes(self) -> int:
        """Serialized size of the bitmap."""
        return self.num_bits // 8

    def false_positive_rate(self) -> float:
        """Expected FP rate for the current load: (1 - e^{-kn/m})^k."""
        if self._count == 0:
            return 0.0
        k, n, m = self.num_hashes, self._count, self.num_bits
        return (1.0 - math.exp(-k * n / m)) ** k
