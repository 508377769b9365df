"""Deterministic hashing for Bloom filters, and the process-wide mask tables.

Python's built-in ``hash`` is randomized per process, which would make
simulation runs non-reproducible, so the filters use a 64-bit FNV-1a hash
followed by a splitmix64 finalizer.  Two independent 32-bit values are
extracted and combined with double hashing (Kirsch & Mitzenmacher) to
derive the k probe positions — the same construction LevelDB uses.

A key's k probes are one int *mask*, a pure function of the key and the
geometry ``(num_bits, num_hashes)``; each geometry has one process-wide
:class:`MaskTable` of them, since hot keys are probed millions of times.
"""

from __future__ import annotations

import math

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1

#: The most masks one :class:`MaskTable` holds before it is cleared.
MASK_TABLE_LIMIT = 262144


def fnv1a_64(data: bytes) -> int:
    """64-bit FNV-1a hash of ``data``."""
    value = _FNV_OFFSET
    for byte in data:
        value ^= byte
        value = (value * _FNV_PRIME) & _MASK64
    return value


def splitmix64(value: int) -> int:
    """The splitmix64 finalizer; a cheap, well-mixed 64-bit permutation."""
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def hash_pair(key: int) -> tuple[int, int]:
    """Two independent 32-bit hash values for a signed 64-bit key."""
    mixed = splitmix64(fnv1a_64(key.to_bytes(8, "little", signed=True)))
    return mixed & 0xFFFFFFFF, (mixed >> 32) & 0xFFFFFFFF


def filter_geometry(num_keys: int, bits_per_key: int) -> tuple[int, int]:
    """``(num_bits, num_hashes)`` of a filter for ``num_keys`` keys: at
    least 8 bits; k = ln(2) * bits/key (the FP-optimal k), clamped 1..30."""
    num_hashes = max(1, min(30, round(math.log(2) * bits_per_key)))
    return max(8, num_keys * bits_per_key), num_hashes


def probe_mask(key: int, num_bits: int, num_hashes: int) -> int:
    """The bits a filter of ``num_bits``/``num_hashes`` probes for ``key``.

    Enhanced double hashing (Dillinger & Manolios): on a small filter,
    plain ``h1 + i*h2`` cycles through a few bits whenever ``gcd(h2 % m,
    m)`` is large, inflating the false-positive rate; the accelerating
    increment ``y += i + 1`` keeps the probes out of short cycles.
    """
    h1, h2 = hash_pair(key)
    x, y = h1 % num_bits, h2 % num_bits
    mask = 0
    for i in range(num_hashes):
        mask |= 1 << x
        x = (x + y) % num_bits
        y = (y + i + 1) % num_bits
    return mask


class MaskTable(dict):
    """``key -> probe mask`` for one geometry; a missing mask is computed
    and kept, after clearing the table if it holds the limit already
    (which changes no answer, only what is recomputed)."""

    __slots__ = ("num_bits", "num_hashes")

    def __init__(self, num_bits: int, num_hashes: int) -> None:
        super().__init__()
        self.num_bits = num_bits
        self.num_hashes = num_hashes

    def __missing__(self, key: int) -> int:
        if len(self) >= MASK_TABLE_LIMIT:
            self.clear()
        mask = self[key] = probe_mask(key, self.num_bits, self.num_hashes)
        return mask


#: Every mask table of the process, by geometry.
_TABLES: dict[tuple[int, int], MaskTable] = {}


def mask_table(num_keys: int, bits_per_key: int) -> MaskTable:
    """The mask table of a filter sized for ``num_keys`` keys."""
    geometry = filter_geometry(num_keys, bits_per_key)
    table = _TABLES.get(geometry)
    if table is None:
        table = _TABLES[geometry] = MaskTable(*geometry)
    return table
