"""A real Bloom filter with genuine false positives.

Section II-A: every single-page block carries a Bloom filter so point
lookups can skip blocks that cannot contain the key; Section VI-A sets the
budget to 15 bits per element.  False positives matter to the reproduction
because the paper charges LSM variants with many sorted tables per level
(SM-tree, and LSbM's compaction-buffer lists) for "reading false blocks
caused by false bloom filter tests" (Section III) — so the filter must
actually produce them rather than being an oracle.

A block keeps its filter as one int (:mod:`repro.sstable.block`).  This
is the standalone filter over the same masks, computed and not kept: a
filter of thousands of keys parks no kilobyte masks in the mask tables,
and it is an independent reference for the blocks' filters.
"""

from __future__ import annotations

import math

from repro.bloom.hashing import filter_geometry, probe_mask


class BloomFilter:
    """Fixed-size Bloom filter over signed 64-bit integer keys; its bits are
    one int, OR-ed with each key's probe mask."""

    __slots__ = ("_bits", "_num_bits", "_num_hashes", "_num_keys")

    def __init__(self, expected_keys: int, bits_per_key: int) -> None:
        if expected_keys < 0:
            raise ValueError(f"expected_keys must be >= 0, got {expected_keys}")
        if bits_per_key < 1:
            raise ValueError(f"bits_per_key must be >= 1, got {bits_per_key}")
        self._num_bits, self._num_hashes = filter_geometry(expected_keys, bits_per_key)
        self._bits = 0
        self._num_keys = 0

    @classmethod
    def build(cls, keys: list[int], bits_per_key: int) -> "BloomFilter":
        """Build a filter sized for and populated with ``keys``."""
        bloom = cls(len(keys), bits_per_key)
        for key in keys:
            bloom.add(key)
        return bloom

    def add(self, key: int) -> None:
        """Insert ``key`` into the filter."""
        self._bits |= probe_mask(key, self._num_bits, self._num_hashes)
        self._num_keys += 1

    def may_contain(self, key: int) -> bool:
        """Membership check: ``False`` is definite, ``True`` is probabilistic."""
        mask = probe_mask(key, self._num_bits, self._num_hashes)
        return self._bits & mask == mask

    @property
    def num_bits(self) -> int:
        return self._num_bits

    @property
    def num_hashes(self) -> int:
        return self._num_hashes

    @property
    def num_keys(self) -> int:
        return self._num_keys

    def fill_fraction(self) -> float:
        """Fraction of bits set.

        ``fill_fraction() ** num_hashes`` is the instance-exact expected
        FP rate for independent uniform probes — unlike
        :meth:`theoretical_fp_rate`, it reflects this filter's realized
        fill rather than the ensemble average, which matters for small
        filters.
        """
        return self._bits.bit_count() / self._num_bits

    def theoretical_fp_rate(self) -> float:
        """Expected false-positive rate for the current fill level."""
        if self._num_keys == 0:
            return 0.0
        exponent = -self._num_hashes * self._num_keys / self._num_bits
        return (1.0 - math.exp(exponent)) ** self._num_hashes
