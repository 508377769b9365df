"""Integration tests: whole-stack scenarios matching the paper's claims.

These are miniature versions of the evaluation experiments — small enough
for the unit-test suite, strong enough to pin the qualitative behaviour
each figure rests on.  The full-size reruns live under ``benchmarks/``.
"""


from repro.config import SystemConfig
from repro.sim.experiment import build_engine, preload, run_experiment
from repro.sim.driver import MixedReadWriteDriver
from repro.workload.ycsb import RangeHotWorkload


def mini_config():
    """A miniature paper configuration: same ratios, tiny sizes.

    Scale 4096 keeps the level-fill periodicity (level 1 fills every
    ~1,000 virtual seconds) while the dataset shrinks to 5,120 keys, so a
    2,000-tick run covers two level-1 rounds in well under a second.
    """
    return SystemConfig.paper_scaled(4096)


class TestCompactionInvalidationMechanism:
    def test_blsm_compactions_invalidate_cached_blocks(self):
        config = mini_config()
        setup = build_engine("blsm", config)
        preload(setup)
        driver = MixedReadWriteDriver(setup.engine, config, setup.clock, seed=1)
        driver.run(3000)
        assert setup.db_cache.stats.invalidations > 0

    def test_lsbm_invalidates_fewer_blocks_than_blsm(self):
        """Fig. 8's mechanism, distilled: the compaction buffer shields
        cached blocks from compaction-induced invalidation."""
        config = mini_config()
        counts = {}
        for name in ("blsm", "lsbm"):
            setup = build_engine(name, config)
            preload(setup)
            driver = MixedReadWriteDriver(
                setup.engine, config, setup.clock, seed=1
            )
            driver.run(4000)
            counts[name] = setup.db_cache.stats.invalidations
        assert counts["lsbm"] < counts["blsm"]

    def test_lsbm_mean_hit_ratio_beats_blsm(self):
        config = mini_config()
        ratios = {}
        for name in ("blsm", "lsbm"):
            # Long enough to cover several level-1 rounds and the start
            # of a level-2 round, where the protection shows.
            result = run_experiment(name, config, duration_s=6000, seed=1)
            ratios[name] = result.mean_hit_ratio()
        assert ratios["lsbm"] > ratios["blsm"]


class TestOSCacheChurn:
    def test_os_cache_polluted_by_compactions(self):
        """Fig. 2's dashed line: with only an OS page cache, compaction
        streams continuously displace query pages."""
        config = mini_config()
        setup = build_engine("leveldb-oscache", config)
        preload(setup)
        driver = MixedReadWriteDriver(setup.engine, config, setup.clock, seed=2)
        result = driver.run(3000)
        # Compactions insert pages without query accesses…
        assert setup.os_cache.stats.insertions > setup.os_cache.stats.misses
        # …and the query hit ratio stays visibly below a pure-DB-cache run.
        db_run = run_experiment("leveldb", config, duration_s=3000, seed=2)
        assert result.mean_hit_ratio() <= db_run.mean_hit_ratio() + 0.05


class TestCompactionTraffic:
    def test_sm_rewrites_less_than_leveled(self):
        """Section VI-D: a tiered layout writes less than leveling.  On
        ``tiny`` the last level's one collapsed table fills its capacity
        with live data; before the guard in ``ComposedTree._due`` (a
        single-table last level is never due) it was re-merged on every
        pass (about 4,350x the ingest)."""

        def write_amplification(name: str) -> float:
            config = SystemConfig.tiny()
            setup = build_engine(name, config)
            preload(setup)
            driver = MixedReadWriteDriver(setup.engine, config, setup.clock, seed=11)
            result = driver.run(60)
            compaction_kb = sum(
                kb["write_kb"]
                for cause, kb in result.bandwidth_kb_by_cause.items()
                if cause.startswith("compaction")
            )
            return compaction_kb / (result.writes_applied * config.pair_size_kb)

        assert write_amplification("sm") < write_amplification("leveldb")


class TestDatabaseSizes:
    def test_sm_database_larger_than_leveled(self):
        """Fig. 12/13: lazy compaction retains obsolete data."""
        config = mini_config()
        sizes = {}
        for name in ("blsm", "sm"):
            result = run_experiment(name, config, duration_s=5000, seed=3)
            sizes[name] = result.mean_db_size_mb()
        assert sizes["sm"] > sizes["blsm"]

    def test_lsbm_overhead_is_small(self):
        """Fig. 13: the compaction buffer costs only a few percent."""
        config = mini_config()
        sizes = {}
        for name in ("blsm", "lsbm"):
            result = run_experiment(name, config, duration_s=5000, seed=3)
            sizes[name] = result.mean_db_size_mb()
        overhead = sizes["lsbm"] / sizes["blsm"] - 1.0
        assert 0.0 <= overhead < 0.35

    def test_lsbm_buffer_tracked_in_series(self):
        config = mini_config()
        result = run_experiment("lsbm", config, duration_s=3000, seed=3)
        assert len(result.buffer_size_mb) > 0
        assert result.buffer_size_mb.maximum() > 0


class TestWorkloadAdaptivity:
    def test_write_only_buffer_shrinks(self):
        """Section IV-D: under write-only load the trim process empties
        the compaction buffer (nothing is cached, nothing is kept)."""
        config = mini_config()
        setup = build_engine("lsbm", config)
        preload(setup)
        workload = RangeHotWorkload(config)
        driver = MixedReadWriteDriver(
            setup.engine,
            config.replace(read_threads=0),
            setup.clock,
            workload=workload,
            seed=4,
        )
        driver.run(3000)
        engine = setup.engine
        engine.buffer.trim.run(engine.buffer[1:])
        trimmable_kb = sum(
            table.size_kb
            for level in engine.buffer[1:]
            for table in level.trimmable_tables()
        )
        assert trimmable_kb == 0

    def test_read_only_buffer_empty(self):
        config = mini_config()
        setup = build_engine("lsbm", config)
        preload(setup)
        driver = MixedReadWriteDriver(
            setup.engine,
            config.replace(write_rate_pairs_per_s=0.0),
            setup.clock,
            seed=5,
        )
        driver.run(500)
        assert setup.engine.compaction_buffer_kb == 0


class TestRangeQueries:
    def test_kv_cache_worst_at_ranges(self):
        """Fig. 11: the row cache cannot serve scans and halves the block
        cache, so it loses to plain bLSM."""
        config = mini_config()
        results = {}
        for name in ("blsm", "blsm+kvcache"):
            result = run_experiment(
                name, config, duration_s=3000, seed=6, scan_mode=True
            )
            results[name] = result.mean_throughput()
        assert results["blsm+kvcache"] < results["blsm"]

    def test_scan_results_complete_under_churn(self):
        config = mini_config()
        setup = build_engine("lsbm", config)
        preload(setup)
        driver = MixedReadWriteDriver(
            setup.engine, config, setup.clock, seed=7, scan_mode=True
        )
        driver.run(1500)
        workload = RangeHotWorkload(config)
        low, high = workload.next_scan_range(driver.rng)
        entries = setup.engine.scan(low, high).entries
        # The data set is fully populated, so the scan must return every
        # key in range exactly once.
        assert [e.key for e in entries] == list(range(low, high + 1))
