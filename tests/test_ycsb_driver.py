"""YCSB operation mixes run through the closed-loop driver.

At scale 8192 one simulated read stands for 8,192 real ones, so eight
client threads complete only a handful of operations in a few hundred
virtual seconds.  The mix tests run 256 threads, and every test floors
each operation kind its mix asks for, so a near-empty run fails.
"""

import pytest

from repro.check.oracle import KVOracle
from repro.config import SystemConfig
from repro.errors import WorkloadError
from repro.sim.driver import MixedReadWriteDriver
from repro.sim.experiment import build_engine, preload
from repro.workload.ycsb import OpKind, YCSBWorkload, ycsb_core_workload


#: Client threads of the mix tests: enough for tens of operations per
#: kind in 100 virtual seconds.
THREADS = 256


def make_driver(engine_name="lsbm", workload=None, **workload_kwargs):
    config = SystemConfig.paper_scaled(8192).replace(read_threads=THREADS)
    setup = build_engine(engine_name, config)
    preload(setup)
    if workload is None:
        workload = YCSBWorkload(config.unique_keys, **workload_kwargs)
    return (
        MixedReadWriteDriver(setup.engine, config, setup.clock, workload, seed=5),
        setup,
    )


def make_oracle_driver(engine_name="lsbm", seed=3, **workload_kwargs):
    """A driver shadowed by a KVOracle preseeded with the preload."""
    config = SystemConfig.paper_scaled(8192).replace(read_threads=64)
    setup = build_engine(engine_name, config)
    preload(setup)
    oracle = KVOracle()
    for key in range(config.unique_keys):
        oracle.put(key, 0)
    workload = YCSBWorkload(config.unique_keys, **workload_kwargs)
    driver = MixedReadWriteDriver(
        setup.engine, config, setup.clock, workload, seed=seed, oracle=oracle
    )
    return driver, setup, oracle


def make_oracle_core_driver(name, engine_name="lsbm", seed=3):
    """An oracle-shadowed driver for one named core workload (A-F)."""
    config = SystemConfig.paper_scaled(8192).replace(read_threads=64)
    setup = build_engine(engine_name, config)
    preload(setup)
    oracle = KVOracle()
    for key in range(config.unique_keys):
        oracle.put(key, 0)
    workload = ycsb_core_workload(name, config.unique_keys)
    driver = MixedReadWriteDriver(
        setup.engine, config, setup.clock, workload, seed=seed, oracle=oracle
    )
    return driver, setup, oracle


class TestYCSBDriver:
    def test_read_only_mix_issues_only_reads(self):
        driver, setup = make_driver(read_proportion=1.0)
        result = driver.run(100)
        assert result.reads_completed >= 30
        assert driver.ops_by_kind[OpKind.READ] == result.reads_completed
        assert setup.engine.stats.puts == 0

    def test_update_mix_writes(self):
        driver, setup = make_driver(
            read_proportion=0.5, update_proportion=0.5
        )
        result = driver.run(150)
        assert driver.ops_by_kind[OpKind.READ] >= 50
        assert driver.ops_by_kind[OpKind.UPDATE] >= 50
        assert driver.ops_by_kind[OpKind.UPDATE] == setup.engine.stats.puts
        # Updates count as writes, reads as reads, one entry each.
        assert result.writes_applied == setup.engine.stats.puts
        assert result.reads_completed == driver.ops_by_kind[OpKind.READ]
        assert len(result.read_latencies_s) == (
            result.reads_completed + result.writes_applied
        )

    def test_insert_mix_extends_keyspace(self):
        driver, setup = make_driver(
            read_proportion=0.5, insert_proportion=0.5
        )
        driver.run(150)
        config = setup.config
        inserted = driver.ops_by_kind[OpKind.INSERT]
        assert driver.ops_by_kind[OpKind.READ] >= 50
        assert inserted >= 50
        # The newest inserted key is readable.
        newest = config.unique_keys + inserted - 1
        assert setup.engine.get(newest).found

    def test_scan_mix(self):
        driver, setup = make_driver(scan_proportion=1.0)
        result = driver.run(100)
        assert setup.engine.stats.scans == result.reads_completed
        assert driver.ops_by_kind[OpKind.SCAN] >= 50

    def test_rmw_counts_read_and_write(self):
        driver, setup = make_driver(rmw_proportion=1.0)
        driver.run(100)
        rmws = driver.ops_by_kind[OpKind.READ_MODIFY_WRITE]
        assert rmws >= 25
        assert setup.engine.stats.gets == rmws
        assert setup.engine.stats.puts == rmws
        # Beside updates, a read-modify-write still counts once, as a
        # read: its put is not a second operation.
        driver, setup = make_driver(rmw_proportion=0.5, update_proportion=0.5)
        result = driver.run(600)
        rmws = driver.ops_by_kind[OpKind.READ_MODIFY_WRITE]
        updates = driver.ops_by_kind[OpKind.UPDATE]
        assert rmws >= 200 and updates >= 200
        assert result.reads_completed == rmws
        assert result.writes_applied == updates
        assert setup.engine.stats.puts == rmws + updates

    def test_metrics_collected(self):
        driver, _ = make_driver(read_proportion=1.0)
        result = driver.run(100)
        assert result.reads_completed >= 30
        assert len(result.throughput_qps) == 100
        assert len(result.read_latencies_s) == result.reads_completed
        assert result.latency_percentile_s(50) > 0

    def test_core_workload_b_runs_on_every_engine(self):
        keys = SystemConfig.paper_scaled(8192).unique_keys
        for name in ("blsm", "lsbm", "sm", "hbase"):
            driver, _ = make_driver(name, ycsb_core_workload("B", keys))
            result = driver.run(200)
            # B is 95 % reads, 5 % updates.
            assert result.reads_completed >= 300
            assert result.writes_applied >= 10

    def test_read_threads_scale_throughput(self):
        results = {}
        for threads in (64, THREADS):
            config = SystemConfig.paper_scaled(8192).replace(read_threads=threads)
            setup = build_engine("blsm", config)
            preload(setup)
            workload = YCSBWorkload(config.unique_keys, read_proportion=1.0)
            driver = MixedReadWriteDriver(
                setup.engine, config, setup.clock, workload, seed=5
            )
            results[threads] = driver.run(150).reads_completed
        assert results[64] >= 20
        assert results[THREADS] > 2 * results[64]

    def test_latency_percentiles_ordered(self):
        driver, _ = make_driver(read_proportion=1.0)
        result = driver.run(200)
        assert result.reads_completed >= 200
        p50 = result.latency_percentile_s(50)
        p99 = result.latency_percentile_s(99)
        assert 0 < p50 <= p99

    def test_bad_percentile_rejected(self):
        driver, _ = make_driver(read_proportion=1.0)
        result = driver.run(20)
        assert result.reads_completed >= 5
        with pytest.raises(ValueError):
            result.latency_percentile_s(150)


class TestOracleBackedDriver:
    """The driver shadowed by a KVOracle asserts returned *values*, not
    just op counts — every read/scan answer is checked against the
    trivially correct model."""

    MIX = dict(
        read_proportion=0.35,
        update_proportion=0.2,
        scan_proportion=0.1,
        rmw_proportion=0.2,
        delete_proportion=0.15,
        max_scan_length=20,
    )

    @pytest.mark.parametrize("engine_name", ["lsbm", "leveldb", "blsm"])
    def test_mixed_workload_values_match_oracle(self, engine_name):
        driver, _, _ = make_oracle_driver(engine_name, **self.MIX)
        driver.run(300)
        assert driver.reads_verified > 50
        assert driver.scans_verified > 5
        assert driver.ops_by_kind[OpKind.DELETE] > 0
        assert driver.ops_by_kind[OpKind.READ_MODIFY_WRITE] > 0
        assert driver.read_mismatches == 0
        assert driver.scan_mismatches == 0

    def test_rmw_reads_see_prior_writes(self):
        """A pure RMW mix re-reads keys it just wrote: each read must
        return the value of the latest engine-assigned seq."""
        driver, _, _ = make_oracle_driver(rmw_proportion=1.0)
        driver.run(200)
        assert driver.reads_verified > 20
        assert driver.read_mismatches == 0

    def test_scan_mix_values_match_oracle(self):
        driver, _, _ = make_oracle_driver(
            scan_proportion=0.5, update_proportion=0.5, max_scan_length=10
        )
        driver.run(200)
        assert driver.scans_verified > 10
        assert driver.scan_mismatches == 0

    def test_deleted_keys_read_as_missing(self):
        driver, setup, oracle = make_oracle_driver(
            read_proportion=0.5, delete_proportion=0.5
        )
        driver.run(300)
        deleted = driver.ops_by_kind[OpKind.DELETE]
        assert deleted > 0
        assert driver.read_mismatches == 0
        # Spot-check directly: every key the oracle dropped reads as
        # missing from the engine too.
        config = setup.config
        gone = [k for k in range(config.unique_keys) if not oracle.get(k)[0]]
        assert gone, "delete mix removed no preloaded keys"
        for key in gone[:20]:
            assert not setup.engine.get(key).found

    def test_direct_value_assertion(self):
        """Beyond counters: the exact returned string matches the
        oracle's expectation for a key the mix updated."""
        from repro.sstable.entry import value_for

        driver, setup, oracle = make_oracle_driver(
            read_proportion=0.5, update_proportion=0.5
        )
        driver.run(200)
        updated = [
            key
            for key in range(setup.config.unique_keys)
            if oracle.get(key)[0] and oracle.get(key)[1] != value_for(key, 0)
        ]
        assert updated, "update mix touched no preloaded keys"
        for key in updated[:20]:
            got = setup.engine.get(key)
            assert got.found
            assert got.value == oracle.get(key)[1]

    def test_ycsb_d_latest_values_match_oracle(self):
        """Workload D: latest-distribution reads chase the insert front;
        every returned value must match the oracle, including reads of
        keys inserted moments earlier."""
        from repro.workload.ycsb import LatestChooser

        driver, setup, oracle = make_oracle_core_driver("D")
        assert isinstance(driver.workload._chooser, LatestChooser)
        driver.run(300)
        inserted = driver.ops_by_kind[OpKind.INSERT]
        assert inserted > 0
        assert driver.reads_verified > 50
        assert driver.read_mismatches == 0
        # The newest inserted key is readable and its value matches the
        # oracle's expectation exactly.
        newest = setup.config.unique_keys + inserted - 1
        got = setup.engine.get(newest)
        expect_found, expect_value = oracle.get(newest)
        assert got.found and expect_found
        assert got.value == expect_value

    def test_ycsb_e_scan_heavy_values_match_oracle(self):
        """Workload E: 95% short scans over a growing keyspace; every
        scanned (key, value) list must match the oracle's range."""
        driver, _, _ = make_oracle_core_driver("E")
        driver.run(300)
        assert driver.ops_by_kind[OpKind.SCAN] > 50
        assert driver.ops_by_kind[OpKind.INSERT] > 0
        assert driver.scans_verified > 50
        assert driver.scan_mismatches == 0

    def test_unverified_driver_keeps_counters_at_zero(self):
        driver, _ = make_driver(read_proportion=1.0)
        driver.run(50)
        assert driver.ops_by_kind[OpKind.READ] >= 15
        assert driver.reads_verified == 0
        assert driver.scan_mismatches == 0

    def test_delete_proportion_must_sum_to_one(self):
        with pytest.raises(WorkloadError):
            YCSBWorkload(100, read_proportion=0.5, delete_proportion=0.6)

    def test_delete_only_mix_issues_deletes(self):
        driver, setup, _ = make_oracle_driver(delete_proportion=1.0)
        driver.run(100)
        assert driver.ops_by_kind[OpKind.DELETE] > 0
        assert setup.engine.stats.deletes == driver.ops_by_kind[OpKind.DELETE]
