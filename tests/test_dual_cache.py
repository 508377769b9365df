"""Tests for the dual-cache stacks (DB block cache over an OS page cache)."""

import random

from repro.config import SystemConfig
from repro.sim.driver import MixedReadWriteDriver
from repro.sim.experiment import build_engine, preload
from repro.sstable.entry import value_for
from tests.scalar_reference import price_read


def small_config():
    return SystemConfig.tiny()


class TestDualCacheStack:
    def test_both_caches_wired(self):
        setup = build_engine("lsbm-dual", small_config())
        assert setup.db_cache is not None
        assert setup.os_cache is not None
        assert setup.engine.os_cache is setup.os_cache

    def test_db_miss_can_hit_os_cache(self):
        """After a compaction invalidates a DB block, the page the
        compaction just wrote may still satisfy the re-read cheaply —
        provided the read happens before the next compaction stream
        washes the page cache."""
        config = small_config().replace(cache_size_kb=2048)
        setup = build_engine("blsm-dual", config)
        preload(setup)
        engine = setup.engine
        rng = random.Random(1)
        total_os_hits = 0
        for _ in range(60):
            for _ in range(50):  # A small compaction burst…
                engine.put(rng.randrange(config.unique_keys))
            for _ in range(40):  # …then immediate reads.
                cost = engine.get(rng.randrange(config.unique_keys)).cost
                total_os_hits += cost.os_hit_blocks
        assert total_os_hits > 0

    def test_correctness_unaffected(self):
        setup = build_engine("lsbm-dual", small_config())
        engine = setup.engine
        rng = random.Random(2)
        model = {}
        for step in range(3000):
            key = rng.randrange(2048)
            model[key] = engine.put(key)
            if step % 40 == 0:
                setup.clock.advance(1)
                engine.tick(setup.clock.now)
        for key in rng.sample(sorted(model), 200):
            assert engine.get(key).value == value_for(key, model[key])

    def test_os_hits_priced_between_db_hit_and_disk(self):
        config = small_config()
        setup = build_engine("blsm-dual", config)
        driver = MixedReadWriteDriver(setup.engine, config, setup.clock)
        from repro.lsm.base import ReadCost

        db_hit = price_read(driver.pricer, ReadCost(cache_hit_blocks=1), 0, 0.0)
        os_hit = price_read(driver.pricer, ReadCost(os_hit_blocks=1), 0, 0.0)
        disk = price_read(driver.pricer, ReadCost(disk_random_blocks=1), 0, 0.0)
        assert db_hit < os_hit < disk

    def test_dual_run_end_to_end(self):
        config = small_config()
        setup = build_engine("lsbm-dual", config)
        preload(setup)
        driver = MixedReadWriteDriver(setup.engine, config, setup.clock, seed=3)
        result = driver.run(60)
        assert result.reads_completed > 0
        # The metric cache is the DB cache (primary tier).
        assert driver.recorder.metric_cache is setup.db_cache
