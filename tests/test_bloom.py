"""Unit tests for :mod:`repro.bloom` and the memory shape of block filters."""

import gc
import random

import pytest

from repro.bloom import BloomFilter, fnv1a_64, hash_pair, hashing, splitmix64
from repro.config import SystemConfig
from repro.sim.experiment import build_engine
from repro.sstable.block import Block


class TestHashing:
    def test_fnv_is_deterministic(self):
        assert fnv1a_64(b"abc") == fnv1a_64(b"abc")

    def test_fnv_differs_across_inputs(self):
        assert fnv1a_64(b"abc") != fnv1a_64(b"abd")

    def test_splitmix_is_a_permutation_sample(self):
        values = {splitmix64(i) for i in range(10_000)}
        assert len(values) == 10_000

    def test_hash_pair_deterministic_across_calls(self):
        assert hash_pair(12345) == hash_pair(12345)

    def test_hash_pair_handles_negative_keys(self):
        h1, h2 = hash_pair(-7)
        assert 0 <= h1 < 2**32
        assert 0 <= h2 < 2**32

    def test_hash_pair_components_differ(self):
        h1, h2 = hash_pair(99)
        assert h1 != h2


class TestBloomFilter:
    def test_no_false_negatives(self):
        keys = list(range(0, 5000, 3))
        bloom = BloomFilter.build(keys, bits_per_key=15)
        assert all(bloom.may_contain(k) for k in keys)

    def test_false_positive_rate_near_theory(self):
        rng = random.Random(42)
        keys = rng.sample(range(10**9), 4000)
        bloom = BloomFilter.build(keys, bits_per_key=15)
        key_set = set(keys)
        probes = [k for k in rng.sample(range(10**9), 20_000) if k not in key_set]
        fp = sum(bloom.may_contain(k) for k in probes) / len(probes)
        theory = bloom.theoretical_fp_rate()
        # 15 bits/key gives ~0.1%; allow generous sampling noise.
        assert fp < 10 * max(theory, 1e-4)

    def test_false_positives_exist_with_tiny_budget(self):
        """A 1-bit/key filter must actually produce false positives —
        the engines rely on paying for them."""
        keys = list(range(2000))
        bloom = BloomFilter.build(keys, bits_per_key=1)
        fp = sum(bloom.may_contain(k) for k in range(10_000, 30_000))
        assert fp > 0

    def test_empty_filter_rejects_everything(self):
        bloom = BloomFilter(expected_keys=0, bits_per_key=15)
        assert not bloom.may_contain(1)

    def test_num_hashes_near_optimal(self):
        bloom = BloomFilter(100, bits_per_key=15)
        assert bloom.num_hashes == 10  # round(ln2 * 15)

    def test_counts(self):
        bloom = BloomFilter(10, bits_per_key=8)
        bloom.add(1)
        bloom.add(2)
        assert bloom.num_keys == 2

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BloomFilter(-1, 15)
        with pytest.raises(ValueError):
            BloomFilter(10, 0)

    def test_theoretical_rate_zero_when_empty(self):
        assert BloomFilter(10, 15).theoretical_fp_rate() == 0.0


class TestMaskTable:
    def test_one_table_per_geometry(self):
        assert hashing.mask_table(4, 15) is hashing.mask_table(4, 15)
        # One key at 4 bits and two keys at 4 bits are both 8 bits, k=3.
        assert hashing.mask_table(1, 4) is hashing.mask_table(2, 4)
        assert hashing.mask_table(3, 15) is not hashing.mask_table(4, 15)
        table = hashing.mask_table(4, 15)
        assert (table.num_bits, table.num_hashes) == (60, 10)

    def test_a_full_table_is_cleared_and_answers_alike(self, monkeypatch):
        monkeypatch.setattr(hashing, "MASK_TABLE_LIMIT", 4)
        table = hashing.MaskTable(64, 4)
        masks = [table[key] for key in range(4)]
        assert len(table) == 4
        assert table[4] == hashing.probe_mask(4, 64, 4)
        assert list(table) == [4]
        assert [table[key] for key in range(4)] == masks
        assert masks == [hashing.probe_mask(key, 64, 4) for key in range(4)]


def _live(kind: type) -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is kind)


@pytest.mark.parametrize("engine_name", ["leveldb", "blsm", "lsbm"])
def test_point_reads_keep_masks_and_no_filter_object(engine_name, monkeypatch):
    """A point-read-heavy run creates no ``BloomFilter``; each mask table
    holds one mask per distinct key it was asked for, each computed once;
    and once the engine is collected no block, hence no block filter,
    survives: only the process-wide masks do."""
    filters_built = []
    monkeypatch.setattr(
        BloomFilter, "__init__", lambda self, *args: filters_built.append(args)
    )
    tables: dict = {}
    monkeypatch.setattr(hashing, "_TABLES", tables)
    computed = []
    probe_mask = hashing.probe_mask

    def counting_probe_mask(key, num_bits, num_hashes):
        computed.append((num_bits, num_hashes, key))
        return probe_mask(key, num_bits, num_hashes)

    monkeypatch.setattr(hashing, "probe_mask", counting_probe_mask)
    blocks_before = _live(Block)
    setup = build_engine(engine_name, SystemConfig.tiny())
    engine, clock = setup.engine, setup.clock
    rng = random.Random(7)
    for step in range(6000):
        key = rng.randrange(2048)
        if step % 4 == 0:
            engine.put(key)
        else:
            engine.get(key)
        if step % 16 == 0:
            clock.advance(1)
            engine.tick(clock.now)
    assert engine.stats.compactions > 0
    assert _live(Block) > blocks_before

    assert filters_built == []
    assert tables and computed
    assert len(computed) == len(set(computed))
    for geometry, table in tables.items():
        assert (table.num_bits, table.num_hashes) == geometry
        asked = {key for *shape, key in computed if tuple(shape) == geometry}
        assert set(table) == asked
        assert asked <= set(range(2048))
    del setup, engine
    assert _live(Block) == blocks_before
    assert all(type(mask) is int for t in tables.values() for mask in t.values())
