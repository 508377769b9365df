"""Unit tests for :mod:`repro.sim` — metrics, driver, experiment, report."""

import pytest

from repro.config import SystemConfig
from repro.errors import ConfigError
from repro.lsm.base import ReadCost
from repro.sim.driver import MixedReadWriteDriver
from repro.sim.experiment import ENGINE_NAMES, build_engine, preload, run_experiment
from repro.sim.metrics import RunResult, TimeSeries
from repro.sim.report import ascii_table, format_qps, series_block, sparkline
from tests.scalar_reference import price_read


def small_config():
    """A config small enough that driver runs finish in milliseconds."""
    return SystemConfig.tiny().replace(
        write_rate_pairs_per_s=8.0,
        read_threads=2,
        unique_keys=2048,
        duration_s=50,
    )


class TestTimeSeries:
    def _series(self, values):
        series = TimeSeries("x")
        for time, value in enumerate(values):
            series.add(time, value)
        return series

    def test_mean_with_skip(self):
        series = self._series([0.0, 0.0, 1.0, 1.0])
        assert series.mean() == 0.5
        assert series.mean(skip=2) == 1.0

    def test_empty_mean(self):
        assert TimeSeries("x").mean() == 0.0

    def test_min_max_stddev(self):
        series = self._series([1.0, 3.0, 5.0])
        assert series.minimum() == 1.0
        assert series.maximum() == 5.0
        assert series.stddev() == pytest.approx(2.0)

    def test_stddev_single_sample(self):
        assert self._series([1.0]).stddev() == 0.0

    def test_bucketed_downsampling(self):
        series = self._series(list(range(100)))
        points = series.bucketed(10)
        assert len(points) == 10
        assert points[0][1] == pytest.approx(4.5)

    def test_dips_below_counts_crossings(self):
        series = self._series([1.0, 0.2, 1.0, 0.3, 1.0])
        assert series.dips_below(0.5) == 2

    def test_dips_below_steady_series(self):
        assert self._series([0.9] * 50).dips_below(0.5) == 0


class TestRunResult:
    def test_warmup_skip(self):
        result = RunResult(engine="x")
        for time in range(100):
            result.hit_ratio.add(time, 0.0 if time < 10 else 1.0)
        assert result.mean_hit_ratio() == 1.0


class TestDriver:
    def test_run_produces_series(self):
        config = small_config()
        setup = build_engine("blsm", config)
        preload(setup)
        driver = MixedReadWriteDriver(setup.engine, config, setup.clock, seed=3)
        result = driver.run(50)
        assert len(result.throughput_qps) == 50
        assert len(result.db_size_mb) == 50
        assert result.writes_applied == pytest.approx(
            50 * config.write_rate_pairs_per_s, abs=1
        )
        assert result.reads_completed > 0

    def test_write_pacing_with_fractional_rate(self):
        config = small_config().replace(write_rate_pairs_per_s=0.5)
        setup = build_engine("blsm", config)
        driver = MixedReadWriteDriver(setup.engine, config, setup.clock, seed=3)
        result = driver.run(40)
        assert result.writes_applied == 20

    def test_scan_mode(self):
        config = small_config()
        setup = build_engine("lsbm", config)
        preload(setup)
        driver = MixedReadWriteDriver(
            setup.engine, config, setup.clock, seed=3, scan_mode=True
        )
        result = driver.run(30)
        assert setup.engine.stats.scans > 0
        assert result.reads_completed == setup.engine.stats.scans

    def test_read_debt_carries_across_ticks(self):
        """Thread-seconds are conserved: total priced work can exceed the
        budget by at most one operation's overshoot."""
        config = small_config()
        setup = build_engine("blsm", config)
        preload(setup)
        driver = MixedReadWriteDriver(setup.engine, config, setup.clock, seed=3)
        driver.run(30)
        assert driver._read_debt >= 0.0

    def test_price_read_components(self):
        config = small_config()
        setup = build_engine("blsm", config)
        driver = MixedReadWriteDriver(setup.engine, config, setup.clock)
        hit = ReadCost(cache_hit_blocks=1)
        miss = ReadCost(disk_random_blocks=1)
        assert price_read(driver.pricer, miss, 0, 0.0) > price_read(driver.pricer, hit, 0, 0.0)

    def test_price_scan_charges_tables(self):
        config = small_config()
        setup = build_engine("blsm", config)
        driver = MixedReadWriteDriver(setup.engine, config, setup.clock)
        few = ReadCost(tables_checked=2)
        many = ReadCost(tables_checked=20)
        assert price_read(driver.pricer, many, 0, 0.0, is_scan=True) > price_read(driver.pricer, 
            few, 0, 0.0, is_scan=True
        )
        # Point reads don't pay the iterator-positioning cost.
        assert price_read(driver.pricer, many, 0, 0.0) == price_read(driver.pricer, few, 0, 0.0)

    def test_contention_slows_disk_reads(self):
        config = small_config()
        setup = build_engine("blsm", config)
        driver = MixedReadWriteDriver(setup.engine, config, setup.clock)
        miss = ReadCost(disk_random_blocks=1)
        assert price_read(driver.pricer, miss, 0, 0.5) > price_read(driver.pricer, miss, 0, 0.0)

    def test_ops_scale_multiplies_price(self):
        config = small_config().replace(ops_scale=4.0)
        setup = build_engine("blsm", config)
        driver = MixedReadWriteDriver(setup.engine, config, setup.clock)
        base = small_config()
        setup2 = build_engine("blsm", base)
        driver2 = MixedReadWriteDriver(setup2.engine, base, setup2.clock)
        cost = ReadCost(cache_hit_blocks=1)
        assert price_read(driver.pricer, cost, 0, 0.0) == pytest.approx(
            4.0 * price_read(driver2.pricer, cost, 0, 0.0)
        )


class TestExperiment:
    @pytest.mark.parametrize("name", ENGINE_NAMES)
    def test_every_engine_builds_and_runs(self, name):
        config = small_config()
        result = run_experiment(name, config, duration_s=20, seed=1)
        assert result.duration_s == 20
        assert len(result.throughput_qps) == 20

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigError):
            build_engine("nope", small_config())

    def test_oscache_stack_has_no_db_cache(self):
        setup = build_engine("leveldb-oscache", small_config())
        assert setup.db_cache is None
        assert setup.os_cache is not None

    def test_preload_fills_last_level(self):
        config = small_config()
        setup = build_engine("blsm", config)
        preload(setup)
        assert setup.engine.get(0).found
        assert setup.engine.get(config.unique_keys - 1).found

    def test_runs_are_reproducible(self):
        config = small_config()
        a = run_experiment("lsbm", config, duration_s=30, seed=7)
        b = run_experiment("lsbm", config, duration_s=30, seed=7)
        assert a.throughput_qps.values == b.throughput_qps.values
        assert a.db_size_mb.values == b.db_size_mb.values

    def test_different_seeds_differ(self):
        config = small_config()
        a = run_experiment("lsbm", config, duration_s=30, seed=1)
        b = run_experiment("lsbm", config, duration_s=30, seed=2)
        assert a.throughput_qps.values != b.throughput_qps.values


class TestReport:
    def test_ascii_table_alignment(self):
        table = ascii_table(["name", "qps"], [["blsm", 2440], ["lsbm", 6899]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert "blsm" in lines[2]

    def test_sparkline_length(self):
        series = TimeSeries("x")
        for time in range(600):
            series.add(time, float(time % 7))
        assert len(sparkline(series, buckets=60)) == 60

    def test_sparkline_empty(self):
        assert sparkline(TimeSeries("x")) == "(empty)"

    def test_series_block_contains_stats(self):
        series = TimeSeries("x")
        for time in range(10):
            series.add(time, 1.0)
        block = series_block("title", series)
        assert "title" in block and "mean=1" in block

    def test_format_qps(self):
        assert format_qps(6899.4) == "6,899"
