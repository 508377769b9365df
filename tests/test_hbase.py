"""Unit tests for the HBase-style minor/major compaction store."""

import random

import pytest

from repro.cache.db_cache import DBBufferCache
from repro.clock import VirtualClock
from repro.config import SystemConfig
from repro.sstable.entry import Entry, value_for
from repro.storage.disk import SimulatedDisk
from repro.substrate import Substrate
from repro.variants.hbase import HBaseStyleStore


def make_store(major_interval_s=None, **kwargs):
    config = SystemConfig.tiny()
    clock = VirtualClock()
    disk = SimulatedDisk(clock, config.seq_bandwidth_kb_per_s)
    cache = DBBufferCache(config.cache_blocks)
    store = HBaseStyleStore(
        Substrate(config, clock, disk, db_cache=cache),
        major_interval_s=major_interval_s,
        **kwargs,
    )
    return store, clock, disk, cache


class TestCorrectness:
    def test_model_equivalence(self):
        store, clock, *_ = make_store(major_interval_s=7)
        rng = random.Random(4)
        model = {}
        for step in range(4000):
            key = rng.randrange(1024)
            if rng.random() < 0.9:
                model[key] = store.put(key)
            else:
                store.delete(key)
                model.pop(key, None)
            if step % 29 == 0:
                clock.advance(1)
                store.tick(clock.now)
            if step % 11 == 0:
                probe = rng.randrange(1100)
                result = store.get(probe)
                if probe in model:
                    assert result.value == value_for(probe, model[probe])
                else:
                    assert not result.found
        low = 100
        got = {e.key: e.seq for e in store.scan(low, low + 200).entries}
        want = {k: s for k, s in model.items() if low <= k <= low + 200}
        assert got == want


class TestMinorCompactions:
    def test_store_file_count_bounded(self):
        store, *_ = make_store()
        rng = random.Random(5)
        for _ in range(3000):
            store.put(rng.randrange(4096))
        assert len(store.tables) <= store.max_store_files + 1
        assert store.minor_compactions > 0

    def test_minor_keeps_tombstones(self):
        """A minor compaction must not drop a tombstone: an older version
        of the key may hide in a table outside the merge window."""
        store, *_ = make_store(minor_merge_files=2, max_store_files=2)
        # Oldest table: key 5 present.
        store.bulk_load([Entry(k, 1) for k in range(0, 64)])
        store._seq = 100
        # Newer data incl. a tombstone for key 5, flushed across tables.
        store.delete(5)
        for key in range(1000, 1128):
            store.put(key)
        for _ in range(4):
            store.run_compactions()
        assert not store.get(5).found

    def test_minor_merges_contiguous_window(self):
        store, *_ = make_store(minor_merge_files=2, max_store_files=3)
        rng = random.Random(6)
        for _ in range(2000):
            store.put(rng.randrange(4096))
        # Recency order must be intact: newest versions still win.
        key = rng.randrange(4096)
        seq = store.put(key)
        assert store.get(key).value == value_for(key, seq)


class TestMajorCompactions:
    def test_major_collapses_store_and_drops_obsolete(self):
        store, clock, disk, _ = make_store(major_interval_s=5)
        rng = random.Random(7)
        for _ in range(2000):
            store.put(rng.randrange(256))  # Heavy overwriting.
        size_before = disk.live_kb
        clock.advance(10)
        store.tick(clock.now)
        assert store.major_compactions >= 1
        assert len(store.tables) == 1
        assert disk.live_kb < size_before

    def test_no_major_when_disabled(self):
        store, clock, *_ = make_store(major_interval_s=None)
        rng = random.Random(8)
        for _ in range(1500):
            store.put(rng.randrange(256))
        clock.advance(100_000)
        store.tick(clock.now)
        assert store.major_compactions == 0

    def test_obsolete_piles_up_without_major(self):
        """Section VII's warning, quantified: without major compactions
        obsolete versions accumulate on disk."""
        sizes = {}
        for label, interval in (("major", 5), ("nomajor", None)):
            store, clock, disk, _ = make_store(major_interval_s=interval)
            rng = random.Random(9)
            for step in range(3000):
                store.put(rng.randrange(256))
                if step % 50 == 0:
                    clock.advance(1)
                    store.tick(clock.now)
            sizes[label] = disk.live_kb
        assert sizes["nomajor"] > sizes["major"]


class TestInterference:
    def test_minor_compactions_still_invalidate_cache(self):
        """The paper's point: minor-only compaction does not solve the
        cache-invalidation problem."""
        store, clock, _, cache = make_store(major_interval_s=None)
        rng = random.Random(10)
        hot = list(range(256))
        for step in range(4000):
            store.put(rng.randrange(4096))
            store.get(rng.choice(hot))
            if step % 40 == 0:
                clock.advance(1)
                store.tick(clock.now)
        assert cache.stats.invalidations > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            make_store(minor_merge_files=1)
