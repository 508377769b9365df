"""A key-value store cache (Cassandra-style row cache).

Section I-A's first existing solution: "build a key-value store in DRAM on
top of the LSM-tree ... an independent buffer in memory without any address
indexing to the data source on disks."  Reads check it first by *key*; on a
miss the LSM-tree is consulted and the result is installed.  Because
entries are rows, not blocks, it cannot serve range queries and it competes
with the DB buffer cache for the same DRAM budget — the two weaknesses the
paper's Fig. 11 quantifies (68 QPS for range scans).
"""

from __future__ import annotations

from repro.cache.lru import LRUCache


class KVStoreCache(LRUCache):
    """Bounded key→value LRU cache.

    The residency order maps each key to its row, so the order is the
    whole store.  The row cache is keyed by key, not file, so compactions
    never invalidate it.
    """

    def __init__(self, capacity_pairs: int) -> None:
        super().__init__(capacity_pairs, "kv")

    @property
    def capacity_pairs(self) -> int:
        return self._capacity

    def get(self, key: int) -> tuple[bool, object | None]:
        """Look up ``key``; returns ``(hit, value)``."""
        order = self._order
        if key in order:
            order.move_to_end(key)
            self.stats.hits += 1
            return True, order[key]
        self.stats.misses += 1
        return False, None

    def put(self, key: int, value: object) -> None:
        """Install or refresh ``key``.

        Used both to fill on read miss and to keep a written row coherent
        (a write-through update, as Cassandra's row cache does).
        """
        order = self._order
        if key in order:
            order[key] = value
            order.move_to_end(key)
            return
        self._insert(key, value)

    def invalidate(self, key: int) -> bool:
        """Drop ``key`` if resident (alternative write policy)."""
        if key not in self._order:
            return False
        del self._order[key]
        self.stats.invalidations += 1
        return True

    def clear(self) -> None:
        """Drop everything (crash simulation: the row cache is DRAM)."""
        self._order.clear()
