"""Golden tests: exact eviction orders and invalidation sequences.

Replacement behaviour is load-bearing for the whole reproduction — the
trim process keys off per-file residency counts, and Fig. 8's churn
curves depend on LRU ordering — so these tests pin the *exact* victim
sequences under interleaved get/put/invalidate scripts, not just
aggregate counts.
"""

from __future__ import annotations

import pytest

from repro.cache.db_cache import DBBufferCache
from repro.cache.kv_cache import KVStoreCache
from repro.cache.os_cache import OSBufferCache
from repro.obs.events import CacheInvalidated, EventBus

# ----------------------------------------------------------------------
# LRU: exact victim order, through each cache's own access path.
# ----------------------------------------------------------------------


class _Script:
    """Drives one cache with letter keys; ``order()`` reads ``_order`` back.

    Letter ``a`` is key 1, ``b`` key 2, ...: the DB cache's file id (one
    block per file), the OS cache's page, the K-V cache's key.
    """

    def __init__(self, kind: str, capacity: int) -> None:
        self.kind = kind
        if kind == "db":
            self.cache = DBBufferCache(capacity)
        elif kind == "os":
            self.cache = OSBufferCache(capacity, page_size_kb=4)
        else:
            self.cache = KVStoreCache(capacity)

    def _read(self, letter: str) -> bool:
        key = ord(letter) - ord("a") + 1
        if self.kind == "db":
            return self.cache.access(key, 0)
        if self.kind == "os":
            return self.cache.read(key * 4)
        hit, _ = self.cache.get(key)
        if not hit:
            self.cache.put(key, letter)
        return hit

    def insert(self, letter: str) -> None:
        assert self._read(letter) is False

    def touch(self, letter: str) -> None:
        assert self._read(letter) is True

    def remove(self, letter: str) -> None:
        key = ord(letter) - ord("a") + 1
        if self.kind == "db":
            assert self.cache.invalidate_file(key) == 1
        else:
            assert self.cache.invalidate(key) is True

    def order(self) -> str:
        keys = [k[0] if self.kind == "db" else k for k in self.cache._order]
        return "".join(chr(ord("a") + key - 1) for key in keys)


def _run(script: _Script, steps) -> None:
    """Apply ``(op, letter, order_after)`` steps, checking every order."""
    for op, letter, order_after in steps:
        getattr(script, op)(letter)
        assert script.order() == order_after, (op, letter)


ALL_CACHES = pytest.mark.parametrize("kind", ["db", "os", "kv"])


class TestLRUGolden:
    @ALL_CACHES
    def test_plain_insertion_order_evicts_fifo(self, kind):
        script = _Script(kind, 4)
        _run(script, [
            ("insert", "a", "a"),
            ("insert", "b", "ab"),
            ("insert", "c", "abc"),
            ("insert", "d", "abcd"),
            ("insert", "e", "bcde"),
            ("insert", "f", "cdef"),
            ("insert", "g", "defg"),
            ("insert", "h", "efgh"),
        ])
        assert script.cache.stats.evictions == 4

    @ALL_CACHES
    def test_touch_moves_to_mru(self, kind):
        script = _Script(kind, 4)
        _run(script, [
            ("insert", "a", "a"),
            ("insert", "b", "ab"),
            ("insert", "c", "abc"),
            ("insert", "d", "abcd"),
            ("touch", "a", "bcda"),
            ("touch", "c", "bdac"),
            ("insert", "e", "dace"),
            ("insert", "f", "acef"),
            ("insert", "g", "cefg"),
            ("insert", "h", "efgh"),
        ])
        assert script.cache.stats.evictions == 4

    # The OS page cache is keyed by address, not by file or key: nothing
    # ever removes a page except eviction, so it has no remove script.
    @pytest.mark.parametrize("kind", ["db", "kv"])
    def test_remove_is_not_an_eviction(self, kind):
        script = _Script(kind, 3)
        _run(script, [
            ("insert", "a", "a"),
            ("insert", "b", "ab"),
            ("insert", "c", "abc"),
            ("remove", "b", "ac"),
            ("insert", "d", "acd"),
        ])
        assert script.cache.stats.evictions == 0
        assert script.cache.stats.invalidations == 1
        _run(script, [("insert", "e", "cde")])
        assert script.cache.stats.evictions == 1

    @ALL_CACHES
    def test_interleaved_script(self, kind):
        script = _Script(kind, 3)
        _run(script, [
            ("insert", "a", "a"),
            ("insert", "b", "ab"),
            ("touch", "a", "ba"),
            ("insert", "c", "bac"),
            ("insert", "d", "acd"),  # Evicts b.
            ("touch", "c", "adc"),
            ("insert", "e", "dce"),
            ("insert", "f", "cef"),
            ("insert", "g", "efg"),
        ])
        assert script.cache.stats.evictions == 4


# ----------------------------------------------------------------------
# DB buffer cache: evictions, per-file counters and invalidation events.
# ----------------------------------------------------------------------


class TestDBCacheGolden:
    def test_eviction_sequence_under_interleaving(self):
        cache = DBBufferCache(capacity_blocks=3)
        cache.access(1, 0)  # miss, insert (1,0)
        cache.access(1, 1)  # miss, insert (1,1)
        cache.access(2, 0)  # miss, insert (2,0) — full
        cache.access(1, 0)  # hit: (1,0) becomes MRU
        cache.access(3, 0)  # miss: evicts LRU (1,1)
        assert list(cache._order) == [(2, 0), (1, 0), (3, 0)]
        assert cache.stats.evictions == 1
        cache.access(4, 0)  # miss: evicts (2,0)
        assert list(cache._order) == [(1, 0), (3, 0), (4, 0)]
        assert cache.stats.evictions == 2

    def test_invalidation_is_not_an_eviction(self):
        cache = DBBufferCache(capacity_blocks=4)
        cache.access(1, 0)
        cache.access(1, 1)
        cache.access(2, 0)
        dropped = cache.invalidate_file(1)
        assert dropped == 2
        assert list(cache._order) == [(2, 0)]
        assert cache.stats.evictions == 0
        assert cache.cached_blocks(1) == 0
        assert cache.cached_blocks(2) == 1

    def test_invalidation_emits_bus_event(self):
        cache = DBBufferCache(capacity_blocks=4)
        bus = EventBus()
        seen: list[CacheInvalidated] = []
        bus.subscribe(CacheInvalidated, seen.append)
        cache.bind_observability(bus, "db")
        cache.access(7, 0)
        cache.access(7, 1)
        cache.invalidate_file(7)
        assert len(seen) == 1
        assert seen[0].file_id == 7 and seen[0].blocks == 2

    def test_per_file_counters_track_interleaved_script(self):
        cache = DBBufferCache(capacity_blocks=2)
        cache.access(1, 0)
        cache.access(2, 0)
        cache.access(1, 0)  # hit — file 1 MRU
        cache.access(3, 0)  # evicts file 2's block
        assert cache.cached_blocks(1) == 1
        assert cache.cached_blocks(2) == 0
        assert cache.cached_blocks(3) == 1
        assert sorted(cache.resident_file_ids()) == [1, 3]
        assert cache.resident_blocks(1) == frozenset({0})

    def test_invalidate_absent_file_is_a_noop(self):
        cache = DBBufferCache(capacity_blocks=2)
        assert cache.invalidate_file(99) == 0
        assert cache.resident_file_ids() == []
