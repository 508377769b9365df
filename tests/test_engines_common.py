"""Behavioural tests shared by every engine (parametrized fixture)."""

import random

import pytest

from repro.config import SystemConfig
from repro.errors import EngineError
from repro.sim.experiment import ENGINE_NAMES, build_engine
from repro.sstable.entry import Entry, value_for

from .conftest import make_engine


class TestBasicSemantics:
    def test_put_then_get(self, any_engine):
        engine, *_ = any_engine
        engine.put(42)
        result = engine.get(42)
        assert result.found
        assert result.value == value_for(42, 1)

    def test_absent_key_not_found(self, any_engine):
        engine, *_ = any_engine
        result = engine.get(123456)
        assert not result.found
        assert result.value is None

    def test_overwrite_returns_newest(self, any_engine):
        engine, *_ = any_engine
        engine.put(7)
        seq = engine.put(7)
        assert engine.get(7).value == value_for(7, seq)

    def test_delete_hides_key(self, any_engine):
        engine, *_ = any_engine
        engine.put(9)
        engine.delete(9)
        assert not engine.get(9).found

    def test_reinsert_after_delete(self, any_engine):
        engine, *_ = any_engine
        engine.put(9)
        engine.delete(9)
        seq = engine.put(9)
        assert engine.get(9).value == value_for(9, seq)

    def test_scan_returns_sorted_unique_range(self, any_engine):
        engine, *_ = any_engine
        for key in range(0, 100, 3):
            engine.put(key)
        result = engine.scan(10, 40)
        keys = [e.key for e in result.entries]
        assert keys == sorted(keys)
        assert keys == [k for k in range(0, 100, 3) if 10 <= k <= 40]

    def test_scan_excludes_deleted(self, any_engine):
        engine, *_ = any_engine
        for key in (10, 11, 12):
            engine.put(key)
        engine.delete(11)
        keys = [e.key for e in engine.scan(10, 12).entries]
        assert keys == [10, 12]

    def test_empty_scan(self, any_engine):
        engine, *_ = any_engine
        assert engine.scan(0, 100).entries == []


class TestBulkLoad:
    def test_bulk_load_visible_to_reads(self, any_engine):
        engine, *_ = any_engine
        engine.bulk_load([Entry(k, 0) for k in range(0, 200, 2)])
        assert engine.get(100).found
        assert not engine.get(101).found

    def test_bulk_load_then_updates_win(self, any_engine):
        engine, *_ = any_engine
        engine.bulk_load([Entry(k, 0) for k in range(100)])
        seq = engine.put(50)
        assert engine.get(50).value == value_for(50, seq)

    def test_bulk_load_occupies_disk(self, any_engine):
        engine, _, disk, _ = any_engine
        engine.bulk_load([Entry(k, 0) for k in range(256)])
        assert disk.live_kb >= 256


class TestCompactionBehaviour:
    def test_sustained_writes_trigger_compactions(self, any_engine):
        engine, *_ = any_engine
        rng = random.Random(3)
        for _ in range(1500):
            engine.put(rng.randrange(4096))
        assert engine.stats.flushes > 0
        assert engine.stats.compactions > 0

    def test_memtable_bounded_by_level0(self, any_engine):
        engine, *_ = any_engine
        for key in range(1000):
            engine.put(key)
        total_level0 = engine.memtable.size_kb
        c0_prime = getattr(engine, "c0_prime", None)
        if c0_prime is not None:
            total_level0 += c0_prime.size_kb
        assert total_level0 <= engine.config.level0_size_kb

    def test_reads_correct_across_many_compactions(self, any_engine):
        engine, *_ = any_engine
        rng = random.Random(11)
        model: dict[int, int] = {}
        for _ in range(2500):
            key = rng.randrange(2048)
            model[key] = engine.put(key)
        for key in rng.sample(sorted(model), 200):
            result = engine.get(key)
            assert result.found, key
            assert result.value == value_for(key, model[key])

    def test_disk_space_reclaimed_by_compactions(self, any_engine):
        """Obsolete versions must eventually be dropped: the database
        cannot grow without bound under pure overwrites."""
        engine, _, disk, _ = any_engine
        rng = random.Random(5)
        for _ in range(4000):
            engine.put(rng.randrange(256))  # Heavy overwriting.
        # 256 unique keys => far less than the 4000 KB written.
        assert disk.live_kb < 3000


class TestReadCosts:
    def test_cost_reported_for_gets(self, any_engine):
        engine, *_ = any_engine
        engine.bulk_load([Entry(k, 0) for k in range(512)])
        cost = engine.get(100).cost
        assert cost.block_reads >= 1

    def test_repeat_read_hits_cache(self, any_engine):
        engine, *_ = any_engine
        engine.bulk_load([Entry(k, 0) for k in range(512)])
        first = engine.get(100).cost
        second = engine.get(100).cost
        assert first.disk_random_blocks >= 1
        assert second.disk_random_blocks == 0
        assert second.cache_hit_blocks >= 1

    def test_memtable_read_touches_no_blocks(self, any_engine):
        engine, *_ = any_engine
        engine.put(5)
        cost = engine.get(5).cost
        assert cost.block_reads == 0

    def test_scan_reports_sequential_cost(self, any_engine):
        engine, *_ = any_engine
        engine.bulk_load([Entry(k, 0) for k in range(512)])
        cost = engine.scan(0, 63).cost
        assert cost.seq_runs >= 1
        assert cost.seq_kb > 0


class TestEngineLifecycle:
    def test_closed_engine_rejects_ops(self, any_engine):
        engine, *_ = any_engine
        engine.close()
        with pytest.raises(EngineError):
            engine.put(1)
        with pytest.raises(EngineError):
            engine.get(1)

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    def test_every_registered_engine_rejects_ops_once_closed(self, name):
        engine = build_engine(name, SystemConfig.tiny()).engine
        engine.put(1)
        engine.get(1)  # Installs the row in a K-V cache, if any.
        engine.close()
        for op in (
            lambda: engine.put(2),
            lambda: engine.delete(1),
            lambda: engine.get(1),
            lambda: engine.scan(0, 9),
        ):
            with pytest.raises(EngineError):
                op()


class TestDeterminism:
    @pytest.mark.parametrize("name", ["leveldb", "blsm", "sm", "lsbm"])
    def test_same_operations_same_state(self, name):
        """Two engines fed identical streams end bit-identical metrics —
        the property that makes experiments reproducible."""
        streams = []
        for _ in range(2):
            engine, _, disk, cache = make_engine(name)
            rng = random.Random(99)
            for _ in range(1200):
                engine.put(rng.randrange(2048))
                engine.get(rng.randrange(2048))
            streams.append(
                (
                    disk.live_kb,
                    engine.stats.compactions,
                    cache.stats.hits,
                    cache.stats.misses,
                )
            )
        assert streams[0] == streams[1]
