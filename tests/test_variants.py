"""Unit tests for the comparison variants (warmup, K-V cache)."""

import random

import pytest

from repro.cache.db_cache import DBBufferCache
from repro.check.reflect import live_files
from repro.clock import VirtualClock
from repro.config import SystemConfig
from repro.sim.experiment import build_engine
from repro.sstable.entry import Entry, value_for
from repro.storage.disk import SimulatedDisk
from repro.substrate import Substrate
from repro.variants.warmup import WarmupBLSMTree


def make_warmup(config=None):
    config = config or SystemConfig.tiny()
    clock = VirtualClock()
    disk = SimulatedDisk(clock, config.seq_bandwidth_kb_per_s)
    cache = DBBufferCache(config.cache_blocks)
    return WarmupBLSMTree(Substrate(config, clock, disk, db_cache=cache)), cache


def make_kv(config=None):
    return build_engine("blsm+kvcache", config or SystemConfig.tiny()).engine


class TestWarmup:
    def test_correctness_preserved(self):
        engine, _ = make_warmup()
        rng = random.Random(17)
        model = {}
        for _ in range(3000):
            key = rng.randrange(2048)
            model[key] = engine.put(key)
            if rng.random() < 0.3:
                engine.get(rng.randrange(2048))
        for key in rng.sample(sorted(model), 200):
            assert engine.get(key).value == value_for(key, model[key])

    def test_compactions_warm_read_blocks(self):
        engine, cache = make_warmup()
        rng = random.Random(18)
        hot = list(range(256))
        for _ in range(3000):
            engine.put(rng.randrange(4096))
            engine.get(rng.choice(hot))
        assert engine.blocks_warmed > 0

    def test_warmed_blocks_enter_cache_without_access(self):
        engine, cache = make_warmup()
        rng = random.Random(19)
        for _ in range(500):
            engine.put(rng.randrange(1024))
            engine.get(rng.randrange(1024))
        inserted_without_access = cache.stats.insertions - cache.stats.misses
        assert inserted_without_access >= 0

    def test_warm_transplants_materialise_no_file(self, materialised):
        """Warming reads block key spans off the view: a compaction's
        outputs stay uncut until a point read reaches them."""
        engine, cache = make_warmup()
        rng = random.Random(18)
        hot = list(range(256))
        for _ in range(3000):
            cut = len(materialised)
            engine.put(rng.randrange(4096))
            assert len(materialised) == cut
            engine.get(rng.choice(hot))
        assert engine.blocks_warmed > 0
        warmed_unread = [
            file
            for file_id, file in live_files(engine).items()
            if file_id in engine._hot_marks and not file.materialised
        ]
        assert warmed_unread
        assert all(cache.cached_blocks(f.file_id) for f in warmed_unread[-1:])

    def test_no_reads_means_no_warming(self):
        engine, _ = make_warmup()
        rng = random.Random(20)
        for _ in range(2000):
            engine.put(rng.randrange(4096))
        assert engine.blocks_warmed == 0

    def test_hot_marks_die_with_their_files(self):
        """Every discard runs the variant's clean-up: after many
        compactions the sticky marks index live files only."""
        engine, _ = make_warmup()
        rng = random.Random(21)
        for _ in range(4000):
            engine.put(rng.randrange(2048))
            engine.get(rng.randrange(2048))
        assert engine.stats.compactions > 50
        assert engine._hot_marks
        assert set(engine._hot_marks) <= set(live_files(engine))

    def test_coalesce(self):
        merged = WarmupBLSMTree._coalesce([(5, 9), (0, 3), (2, 4), (12, 14)])
        assert merged == [(0, 4), (5, 9), (12, 14)]

    def test_overlaps_any(self):
        ranges = [(0, 4), (10, 14)]
        starts = [0, 10]
        assert WarmupBLSMTree._overlaps_any(3, 5, ranges, starts)
        assert WarmupBLSMTree._overlaps_any(14, 20, ranges, starts)
        assert not WarmupBLSMTree._overlaps_any(5, 9, ranges, starts)
        assert not WarmupBLSMTree._overlaps_any(-5, -1, ranges, starts)


class TestKVCachedBLSM:
    def test_read_through_and_hit(self):
        stack = make_kv()
        stack.put(5)
        first = stack.get(5)
        second = stack.get(5)
        assert first.found and second.found
        assert stack.kv_cache.stats.hits >= 1

    def test_write_through_keeps_row_fresh(self):
        stack = make_kv()
        stack.put(5)
        stack.get(5)  # Install in the row cache.
        seq = stack.put(5)  # Must refresh, not serve stale.
        assert stack.get(5).value == value_for(5, seq)

    def test_delete_invalidates_row(self):
        stack = make_kv()
        stack.put(5)
        stack.get(5)
        stack.delete(5)
        assert not stack.get(5).found

    def test_adopted_entries_replace_cached_rows(self):
        stack = make_kv()
        seq = stack.put(5)
        stack.get(5)  # Install in the row cache.
        stack.adopt_entries([Entry(5, seq + 10)])
        assert stack.get(5).value == value_for(5, seq + 10)

    def test_memory_budget_split(self):
        config = SystemConfig.tiny()
        stack = make_kv(config)
        kv_kb = stack.kv_cache.capacity_pairs * config.pair_size_kb
        block_kb = stack.db_cache.capacity_blocks * config.block_size_kb
        assert kv_kb + block_kb == pytest.approx(config.cache_size_kb, abs=8)
        # The block cache is half of what the other engines get.
        assert stack.db_cache.capacity_blocks < config.cache_blocks

    def test_scans_bypass_row_cache(self):
        stack = make_kv()
        for key in range(50):
            stack.put(key)
        hits_before = stack.kv_cache.stats.hits
        result = stack.scan(0, 49)
        assert len(result.entries) == 50
        assert stack.kv_cache.stats.hits == hits_before

    def test_engine_passthroughs(self):
        stack = make_kv()
        stack.bulk_load([Entry(k, 0) for k in range(64)])
        assert stack.get(10).found
        assert stack.db_size_kb > 0
        stack.tick(1)
        stack.close()
