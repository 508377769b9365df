"""Unit tests for :mod:`repro.cache` — DB, OS and K-V caches and the
registry source that reads their counters."""

import random

import pytest

from repro.cache.db_cache import DBBufferCache
from repro.cache.kv_cache import KVStoreCache
from repro.cache.os_cache import OSBufferCache
from repro.cache.stats import CacheStats
from repro.config import SystemConfig
from repro.sim.experiment import build_engine


class TestLRUPolicy:
    """The one replacement rule (:class:`repro.cache.lru.LRUCache`),
    driven through the K-V cache's public ``get``/``put``/``invalidate``."""

    def test_evicts_least_recent(self):
        cache = KVStoreCache(3)
        for key in (1, 2, 3):
            cache.put(key, key)
        assert cache.get(1) == (True, 1)
        cache.put(4, 4)  # Evicts 2: 1 was touched after it.
        assert cache.get(2) == (False, None)
        assert list(cache._order) == [3, 1, 4]
        assert cache.stats.evictions == 1

    def test_remove_is_not_eviction(self):
        cache = KVStoreCache(2)
        cache.put(1, 1)
        cache.put(2, 2)
        assert cache.invalidate(1) is True
        assert cache.get(1) == (False, None)
        assert len(cache) == 1
        assert cache.stats.evictions == 0


class TestCacheStats:
    def test_hit_ratio(self):
        stats = CacheStats(hits=3, misses=1)
        assert stats.hit_ratio == 0.75

    def test_hit_ratio_empty(self):
        assert CacheStats().hit_ratio == 0.0

    def test_interval_hit_ratio(self):
        earlier = CacheStats(hits=10, misses=10)
        later = CacheStats(hits=19, misses=11)
        assert later.interval_hit_ratio(earlier) == 0.9

    def test_interval_with_no_new_accesses(self):
        stats = CacheStats(hits=5, misses=5)
        assert stats.interval_hit_ratio(stats.snapshot()) == 0.0


class TestDBBufferCache:
    def test_miss_then_hit(self):
        cache = DBBufferCache(4)
        assert cache.access(1, 0) is False
        assert cache.access(1, 0) is True
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_lru_eviction_at_capacity(self):
        cache = DBBufferCache(2)
        cache.access(1, 0)
        cache.access(1, 1)
        cache.access(1, 0)  # Refresh block 0.
        cache.access(2, 0)  # Evicts (1, 1).
        assert cache.contains(1, 0)
        assert not cache.contains(1, 1)
        assert cache.stats.evictions == 1

    def test_per_file_counter_tracks_inserts_and_evictions(self):
        cache = DBBufferCache(2)
        cache.access(7, 0)
        cache.access(7, 1)
        assert cache.cached_blocks(7) == 2
        cache.access(8, 0)  # Evicts one block of file 7.
        assert cache.cached_blocks(7) == 1
        assert cache.cached_blocks(8) == 1

    def test_invalidate_file_drops_all_blocks(self):
        cache = DBBufferCache(8)
        for block in range(3):
            cache.access(5, block)
        cache.access(6, 0)
        dropped = cache.invalidate_file(5)
        assert dropped == 3
        assert cache.cached_blocks(5) == 0
        assert cache.contains(6, 0)
        assert cache.stats.invalidations == 3
        assert len(cache) == 1

    def test_invalidate_absent_file_is_noop(self):
        cache = DBBufferCache(4)
        assert cache.invalidate_file(99) == 0

    def test_insert_without_access_counts_no_hit(self):
        cache = DBBufferCache(4)
        cache.insert(1, 0)
        assert cache.stats.accesses == 0
        assert cache.contains(1, 0)

    def test_insert_existing_refreshes(self):
        cache = DBBufferCache(2)
        cache.insert(1, 0)
        cache.insert(1, 1)
        cache.insert(1, 0)  # Refresh, no growth.
        cache.insert(2, 0)  # Evicts (1, 1).
        assert cache.contains(1, 0)

    def test_eviction_drops_the_lru_block(self):
        cache = DBBufferCache(1)
        cache.access(1, 0)
        cache.access(2, 0)
        assert list(cache._order) == [(2, 0)]
        assert cache.stats.evictions == 1
        assert cache.resident_file_ids() == [2]

    def test_access_many_matches_per_key_access(self):
        keys = [(1, 0), (2, 0), (1, 0), (3, 0), (2, 0), (4, 0), (1, 0), (3, 0)]
        one, batch = DBBufferCache(3), DBBufferCache(3)
        hits = sum(one.access(*key) for key in keys)
        assert batch.access_many(keys) == hits
        assert list(batch._order) == list(one._order)
        assert batch.stats == one.stats

    def test_usage(self):
        cache = DBBufferCache(4)
        cache.access(1, 0)
        assert cache.usage == 0.25

    def test_resident_blocks_view(self):
        cache = DBBufferCache(4)
        cache.access(3, 1)
        cache.access(3, 2)
        assert cache.resident_blocks(3) == frozenset({1, 2})

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            DBBufferCache(0)


class TestOSBufferCache:
    def test_query_reads_counted(self):
        cache = OSBufferCache(4, page_size_kb=4)
        assert cache.read(0) is False
        assert cache.read(3) is True  # Same 4 KB page.
        assert cache.read(4) is False  # Next page.

    def test_compaction_reads_pollute_but_are_not_counted(self):
        cache = OSBufferCache(4, page_size_kb=4)
        cache.read_for_compaction(0, 16)  # Fills all 4 pages.
        assert len(cache) == 4
        assert cache.stats.accesses == 0
        assert cache.read(0) is True  # Pre-fetched by compaction.

    def test_compaction_stream_evicts_query_pages(self):
        """The Fig. 2 mechanism: compaction traffic causes capacity
        misses for query data."""
        cache = OSBufferCache(4, page_size_kb=4)
        cache.read(0)  # Hot query page.
        cache.read_for_compaction(100, 64)  # 16 pages stream through.
        assert cache.read(0) is False  # Evicted by the stream.

    def test_write_allocate_behaves_like_compaction_read(self):
        cache = OSBufferCache(8, page_size_kb=4)
        cache.write_allocate(0, 8)
        assert len(cache) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            OSBufferCache(0)
        with pytest.raises(ValueError):
            OSBufferCache(4, page_size_kb=0)


class TestKVStoreCache:
    def test_get_put_roundtrip(self):
        cache = KVStoreCache(4)
        assert cache.get(1) == (False, None)
        cache.put(1, "v1")
        assert cache.get(1) == (True, "v1")

    def test_lru_eviction(self):
        cache = KVStoreCache(2)
        cache.put(1, "a")
        cache.put(2, "b")
        cache.get(1)
        cache.put(3, "c")  # Evicts key 2.
        assert cache.get(2) == (False, None)
        assert cache.get(1)[0]

    def test_put_refreshes_value(self):
        cache = KVStoreCache(2)
        cache.put(1, "old")
        cache.put(1, "new")
        assert cache.get(1) == (True, "new")
        assert len(cache) == 1

    def test_invalidate(self):
        cache = KVStoreCache(2)
        cache.put(1, "a")
        assert cache.invalidate(1) is True
        assert cache.invalidate(1) is False
        assert cache.get(1) == (False, None)

    def test_usage(self):
        cache = KVStoreCache(4)
        cache.put(1, "a")
        assert cache.usage == 0.25

    def test_validation(self):
        with pytest.raises(ValueError):
            KVStoreCache(0)


#: Every counter each cache's registry source reads, in order.
_CACHE_COUNTERS = {
    "db": ("hits", "misses", "evictions", "invalidations"),
    "os": ("hits", "misses", "evictions", "compaction_pages"),
    "kv": ("hits", "misses", "evictions"),
}


def _cache_counts(caches) -> dict[str, float]:
    """What each cache's snapshot keys must read, from its own ints."""
    out = {}
    for name, cache in caches.items():
        for counter in _CACHE_COUNTERS[name]:
            if counter == "compaction_pages":
                value = cache._compaction_pages
            else:
                value = getattr(cache.stats, counter)
            out[f"cache.{name}.{counter}"] = value
    return out


def _drive(setup, ops: int, seed: int) -> None:
    engine, clock = setup.engine, setup.substrate.clock
    rng = random.Random(seed)
    for op in range(ops):
        engine.put(rng.randrange(2000))
        if op % 3 == 0:
            engine.get(rng.randrange(2000))
        if op % 100 == 0:
            clock.advance(1)
            engine.tick(clock.now)


class TestCounterPublication:
    @pytest.mark.parametrize(
        "engine_name", ["leveldb-oscache", "lsbm-dual", "blsm+kvcache"]
    )
    def test_registry_counters_mirror_cache_ints(self, engine_name):
        setup = build_engine(engine_name, SystemConfig.tiny())
        engine = setup.engine
        caches = {
            name: cache
            for name, cache in (
                ("db", engine.db_cache),
                ("os", engine.os_cache),
                ("kv", getattr(engine, "kv_cache", None)),
            )
            if cache is not None
        }
        _drive(setup, 3000, seed=0)
        snapshot = setup.substrate.registry.snapshot()
        published = {k: v for k, v in snapshot.items() if k.startswith("cache.")}
        expected = _cache_counts(caches)
        # Same names, same registration order, same values.
        assert list(published) == list(expected)
        assert published == expected
        assert all(expected[f"cache.{name}.evictions"] for name in caches)

