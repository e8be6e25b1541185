"""A small Bloom filter for per-chunk equality pruning.

One filter summarises the values of one column chunk; an equality scan
probes it before touching the chunk.  ``might_contain`` has no false
negatives (a chunk holding the probe value is never pruned) and a
tunable false-positive rate (~1–3% at the default 10 bits/value, k=4).

Membership is keyed on Python's ``hash()``, which respects numeric
equality classes (``hash(2) == hash(2.0)``), so an ``int`` cell matches a
``float`` probe exactly as Python ``==`` would.  The bit array is a plain
Python int used as a bitset — no allocation per probe, arbitrary size.
The build hashes the batch once and runs the k mixes over all of it in
wrapping ``uint64`` arithmetic — the same bits as mixing value by value
(:meth:`BloomFilter._indices`, which probes still use).
"""

import numpy as np

_U64 = 0xFFFFFFFFFFFFFFFF
_MIX1 = np.uint64(0xFF51AFD7ED558CCD)
_MIX2 = np.uint64(0xC4CEB9FE1A85EC53)
_S33, _S29, _S32 = np.uint64(33), np.uint64(29), np.uint64(32)


class BloomFilter:
    """Immutable-after-build Bloom filter over a batch of hashable values."""

    __slots__ = ("bits", "mask", "k")

    def __init__(self, values, bits_per_value=10, k=4):
        n = max(1, len(values) if hasattr(values, "__len__") else 1)
        size = 64
        while size < n * bits_per_value:
            size <<= 1
        self.mask = size - 1
        self.k = k
        # hash() is a signed 64-bit int; its two's-complement view is
        # hash(value) & _U64.
        h = np.fromiter(map(hash, values), np.int64).view(np.uint64)
        bitset = np.zeros(size, dtype=np.uint8)
        mask = np.uint64(self.mask)
        for _ in range(k):
            h = (h ^ (h >> _S33)) * _MIX1
            h = (h ^ (h >> _S29)) * _MIX2
            h = h ^ (h >> _S32)
            bitset[(h & mask).astype(np.intp)] = 1
        self.bits = int.from_bytes(
            np.packbits(bitset, bitorder="little").tobytes(), "little"
        )

    def _indices(self, value):
        # splitmix64-style avalanche over hash(value): k successive mixes
        # give k near-independent bit positions.
        h = hash(value) & _U64
        for _ in range(self.k):
            h = (h ^ (h >> 33)) * 0xFF51AFD7ED558CCD & _U64
            h = (h ^ (h >> 29)) * 0xC4CEB9FE1A85EC53 & _U64
            h ^= h >> 32
            yield h & self.mask

    def might_contain(self, value):
        """False only when ``value`` is definitely absent from the batch."""
        try:
            return all((self.bits >> index) & 1 for index in self._indices(value))
        except TypeError:
            return True  # unhashable probe: never prune on its account

    @property
    def n_bits(self):
        return self.mask + 1

    def __repr__(self):
        return "<BloomFilter m=%d k=%d>" % (self.n_bits, self.k)
