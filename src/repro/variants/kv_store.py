"""bLSM fronted by a key-value store cache (Cassandra-style).

Section VI-D's K-V cache test: "Among the 6GB cache spaces, 3GB is
allocated to the Key-Value store cache, and the rest memory space is
allocated to a DB buffer cache."  Point reads check the K-V store first;
on a miss the bLSM-tree answers (through the halved DB block cache) and
the row is installed.  Writes update the row cache write-through.

Range queries cannot use a key-indexed cache at all, so they pay the full
price of the halved block cache *and* of compaction-induced invalidations
— the combination behind the 68 QPS bar in Fig. 11.

The class wraps :class:`~repro.lsm.blsm.BLSMTree` rather than subclassing
it: the K-V store is an application-tier component sitting in front of the
storage engine, exactly as deployed in practice.
"""

from __future__ import annotations

from repro.cache.db_cache import DBBufferCache
from repro.cache.kv_cache import KVStoreCache
from repro.config import SystemConfig
from repro.lsm.base import GetResult, ReadCost, ScanResult
from repro.lsm.blsm import BLSMTree
from repro.clock import VirtualClock
from repro.sstable.entry import Entry, value_for


class KVCachedBLSM:
    """bLSM engine + front K-V row cache splitting the DRAM budget."""

    name = "blsm+kvcache"

    def __init__(
        self,
        config: SystemConfig | None = None,
        clock: VirtualClock | None = None,
        disk=None,
        kv_fraction: float = 0.5,
        *,
        substrate=None,
    ) -> None:
        if not 0.0 < kv_fraction < 1.0:
            raise ValueError(f"kv_fraction must be in (0, 1), got {kv_fraction}")
        if substrate is not None:
            config = substrate.config
        if config is None:
            raise ValueError("KVCachedBLSM requires a config or a substrate")
        self.config = config
        kv_kb = int(config.cache_size_kb * kv_fraction)
        block_kb = config.cache_size_kb - kv_kb
        self.kv_cache = KVStoreCache(max(1, kv_kb // config.pair_size_kb))
        self.db_cache = DBBufferCache(max(1, block_kb // config.block_size_kb))
        if substrate is not None:
            engine_substrate = substrate.with_caches(self.db_cache)
            self.kv_cache.bind_observability(
                engine_substrate.registry, engine_substrate.bus, "kv"
            )
            self.engine = BLSMTree(substrate=engine_substrate)
        else:
            self.engine = BLSMTree(config, clock, disk, db_cache=self.db_cache)

    # ------------------------------------------------------------------
    # Write path: write-through into the row cache.
    # ------------------------------------------------------------------
    def put(self, key: int) -> int:
        seq = self.engine.put(key)
        if self.kv_cache.get(key)[0]:
            self.kv_cache.put(key, value_for(key, seq))
        return seq

    def delete(self, key: int) -> int:
        seq = self.engine.delete(key)
        self.kv_cache.invalidate(key)
        return seq

    # ------------------------------------------------------------------
    # Read path: K-V store first, engine on a miss.
    # ------------------------------------------------------------------
    def get(self, key: int) -> GetResult:
        hit, value = self.kv_cache.get(key)
        if hit:
            cost = ReadCost()
            cost.cache_hit_blocks += 1  # Priced like a DRAM hit.
            return GetResult(True, value, cost)  # type: ignore[arg-type]
        result = self.engine.get(key)
        if result.found and result.value is not None:
            self.kv_cache.put(key, result.value)
        return result

    def scan(self, low: int, high: int) -> ScanResult:
        """Ranges bypass the row cache — it has no key-order structure."""
        return self.engine.scan(low, high)

    # ------------------------------------------------------------------
    # Pass-throughs so the driver can treat this like an engine.
    # ------------------------------------------------------------------
    def tick(self, now: int) -> None:
        self.engine.tick(now)

    def bulk_load(self, entries: list[Entry]) -> None:
        self.engine.bulk_load(entries)

    def adopt_entries(self, entries: list[Entry]) -> int:
        # Row-cached values for adopted keys would be stale: drop them.
        for entry in entries:
            self.kv_cache.invalidate(entry.key)
        return self.engine.adopt_entries(entries)

    def run_compactions(self) -> None:
        self.engine.run_compactions()

    @property
    def db_size_kb(self) -> int:
        return self.engine.db_size_kb

    @property
    def stats(self):
        return self.engine.stats

    @property
    def memtable(self):
        return self.engine.memtable

    @property
    def disk(self):
        return self.engine.disk

    @property
    def substrate(self):
        return self.engine.substrate

    @property
    def registry(self):
        return self.engine.registry

    @property
    def bus(self):
        return self.engine.bus

    @property
    def metric_cache(self) -> DBBufferCache:
        """The block cache is the reported series; the row cache sits
        in front of the engine and has its own hit accounting."""
        return self.db_cache

    @property
    def compaction_buffer_kb(self) -> None:
        return None

    @property
    def l0_pressure(self) -> float:
        return self.engine.l0_pressure

    @property
    def write_stalled(self) -> bool:
        return self.engine.write_stalled

    @property
    def wal(self):
        return self.engine.wal

    @property
    def last_seq(self) -> int:
        return self.engine.last_seq

    def simulate_crash(self) -> int:
        """Crash: the row cache is DRAM too — it dies with the memtable."""
        lost = self.engine.simulate_crash()
        self.kv_cache.clear()
        return lost

    def recover(self) -> int:
        return self.engine.recover()

    def close(self) -> None:
        self.engine.close()


def unwrap(engine):
    """The underlying LSM engine (the K-V cached variant wraps one)."""
    if isinstance(engine, KVCachedBLSM):
        return engine.engine
    return engine
