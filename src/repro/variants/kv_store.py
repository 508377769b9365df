"""bLSM fronted by a key-value store cache (Cassandra-style).

Section VI-D's K-V cache test: "Among the 6GB cache spaces, 3GB is
allocated to the Key-Value store cache, and the rest memory space is
allocated to a DB buffer cache."  Point reads check the K-V store first;
on a miss the bLSM-tree answers (through the halved DB block cache) and
the row is installed.  Writes update the row cache write-through.

Range queries cannot use a key-indexed cache at all, so they pay the full
price of the halved block cache *and* of compaction-induced invalidations
— the combination behind the 68 QPS bar in Fig. 11.  ``scan`` is
therefore inherited from :class:`~repro.lsm.blsm.BLSMTree` unchanged;
only the key-addressed operations pass through the row cache.
"""

from __future__ import annotations

from repro.cache.kv_cache import KVStoreCache
from repro.config import SystemConfig
from repro.lsm.base import GetResult, ReadCost
from repro.lsm.blsm import BLSMTree
from repro.sstable.entry import Entry, value_for

#: The row cache's share of the DRAM cache budget (Section VI-D: 3 of 6 GB).
KV_FRACTION = 0.5


def _row_cache_kb(config: SystemConfig) -> int:
    return int(config.cache_size_kb * KV_FRACTION)


def block_cache_blocks(config: SystemConfig) -> int:
    """Capacity of the DB block cache left beside the row cache."""
    block_kb = config.cache_size_kb - _row_cache_kb(config)
    return max(1, block_kb // config.block_size_kb)


class KVCachedBLSM(BLSMTree):
    """bLSM engine + front K-V row cache splitting the DRAM budget.

    Built over a substrate whose DB cache holds the budget's remainder
    (:func:`block_cache_blocks`; the registry's ``"kv"`` wiring).
    """

    name = "blsm+kvcache"

    def __init__(self, substrate) -> None:
        config = substrate.config
        self.kv_cache = KVStoreCache(
            max(1, _row_cache_kb(config) // config.pair_size_kb)
        )
        # Registered before the engine registers itself, so snapshots
        # list the row cache between the block cache and the engine.
        self.kv_cache.bind_observability(substrate.bus, "kv")
        substrate.registry.register(self.kv_cache.metrics)
        super().__init__(substrate)

    # ------------------------------------------------------------------
    # Write path: write-through into the row cache.
    # ------------------------------------------------------------------
    def put(self, key: int) -> int:
        seq = super().put(key)
        if self.kv_cache.get(key)[0]:
            self.kv_cache.put(key, value_for(key, seq))
        return seq

    def delete(self, key: int) -> int:
        seq = super().delete(key)
        self.kv_cache.invalidate(key)
        return seq

    def adopt_entries(self, entries: list[Entry]) -> int:
        # Row-cached values for adopted keys would be stale: drop them.
        for entry in entries:
            self.kv_cache.invalidate(entry.key)
        return super().adopt_entries(entries)

    # ------------------------------------------------------------------
    # Read path: K-V store first, the bLSM descent on a miss.
    # ------------------------------------------------------------------
    def get(self, key: int) -> GetResult:
        if self._closed:  # Before the row cache, which could answer.
            self._check_open()
        hit, value = self.kv_cache.get(key)
        if hit:
            cost = ReadCost()
            cost.cache_hit_blocks += 1  # Priced like a DRAM hit.
            return GetResult(True, value, cost)  # type: ignore[arg-type]
        result = super().get(key)
        if result.found and result.value is not None:
            self.kv_cache.put(key, result.value)
        return result

    def simulate_crash(self) -> int:
        """Crash: the row cache is DRAM too — it dies with the memtable."""
        lost = super().simulate_crash()
        self.kv_cache.clear()
        return lost
