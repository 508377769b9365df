"""Correctness tests for the sharded cluster tier.

The cluster's claims are proven differentially, against artifacts the
repo already trusts:

* a 1-shard cluster run is **bit-identical** (lossless ``to_dict``
  equality plus ordered event streams) to the equivalent single-engine
  serve run, over the pinned differential seeds in ``tests/seeds.json``;
* parallel shard execution (``jobs=N``) is bit-identical to serial
  (``jobs=1``), and the coordinated in-process path agrees with the
  fanned path for specs without a split;
* a live shard split migrates a key range mid-run without violating
  the KV contract — every post-split read is checked against a
  cluster-wide :class:`~repro.check.oracle.KVOracle`.

Runs use scale 8192 (tiny config: 2560 unique keys, 384-pair hot
range) so each test stays in the tens of milliseconds.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path

import pytest

from repro.cluster import (
    ClusterResult,
    ClusterSpec,
    MigrationReport,
    ShardSpec,
    execute_shard,
    expand_cluster_grid,
    partition_arrivals,
    prepare_shard,
    run_cluster,
    run_cluster_grid,
    run_coordinated,
)
from repro.errors import ConfigError
from repro.serve.arrivals import generate_arrivals
from repro.serve.service import (
    execute_serve,
    finalize_serve,
    prepare_serve,
    serve_duration,
)
from repro.workload.ycsb import RangeHotWorkload

PINNED_SEEDS = json.loads(
    (Path(__file__).parent / "seeds.json").read_text()
)["differential"]["seeds"]

#: Small-but-busy parameters validated by hand: ~750 arrivals over the
#: run, with retries and shedding exercised.
SCALE = 8192
DURATION = 300
RATE = 30_000.0


def cluster_spec(**overrides) -> ClusterSpec:
    params: dict = dict(
        engine="lsbm",
        num_shards=2,
        partitioner="hash",
        scale=SCALE,
        duration_s=DURATION,
        read_rate_qps=RATE,
        seed=0,
    )
    params.update(overrides)
    return ClusterSpec(**params)


class TestSingleShardDifferential:
    """One shard, all-pass filters: the cluster IS the serve layer."""

    @pytest.mark.parametrize("seed", PINNED_SEEDS)
    def test_one_shard_cluster_equals_single_engine_serve(self, seed):
        spec = cluster_spec(num_shards=1, seed=seed)
        cluster = run_cluster(spec)
        single = execute_serve(spec.service_spec())
        assert cluster.num_shards == 1
        assert cluster.shards[0].to_dict() == single.to_dict()

    @pytest.mark.parametrize("partitioner", ["hash", "range"])
    def test_one_shard_differential_holds_for_both_partitioners(
        self, partitioner
    ):
        spec = cluster_spec(num_shards=1, partitioner=partitioner)
        cluster = run_cluster(spec)
        single = execute_serve(spec.service_spec())
        assert cluster.shards[0].to_dict() == single.to_dict()

    def test_one_shard_event_streams_identical_and_ordered(self):
        spec = cluster_spec(num_shards=1, seed=1)

        shard_events: list[str] = []
        session = prepare_shard(spec, 0)
        session.setup.engine.bus.subscribe_all(
            lambda event: shard_events.append(repr(event))
        )
        finalize_serve(session, session.simulator.run(session.duration_s))

        serve_events: list[str] = []
        session = prepare_serve(spec.service_spec())
        session.setup.engine.bus.subscribe_all(
            lambda event: serve_events.append(repr(event))
        )
        finalize_serve(session, session.simulator.run(session.duration_s))

        assert shard_events, "run emitted no events"
        assert shard_events == serve_events

    def test_shards_partition_the_request_stream(self):
        """N-shard totals must match the 1-shard run exactly: routing
        partitions the arrival stream, it never drops or invents
        requests."""
        whole = run_cluster(cluster_spec(num_shards=1))
        split = run_cluster(cluster_spec(num_shards=3))
        whole_arrived = sum(
            stats.arrived
            for stats in whole.shards[0].class_stats.values()
        )
        split_arrived = sum(
            stats.arrived
            for shard in split.shards
            for stats in shard.class_stats.values()
        )
        assert split_arrived == whole_arrived


class TestPartitionArrivals:
    """Draw once, route once: the buckets are the per-shard filters."""

    @pytest.mark.parametrize(
        "params",
        [
            dict(num_shards=3, partitioner="hash"),
            dict(num_shards=4, partitioner="range"),
            dict(
                num_shards=2, partitioner="range", split_at_s=150,
                write_rate_qps=20_000.0,
            ),
        ],
        ids=["hash", "range", "split"],
    )
    def test_buckets_equal_the_routed_filter(self, params):
        spec = cluster_spec(**params)
        config = spec.config()
        service = spec.service_spec()
        stream = generate_arrivals(
            service.client_classes(config),
            config,
            RangeHotWorkload(config),
            serve_duration(service, config),
            service.seed,
        )
        route = spec.request_router(config)
        buckets = [list(bucket) for bucket in partition_arrivals(spec)]
        assert len(buckets) == spec.num_shards
        # Request is a dataclass: == compares field for field.
        for shard, bucket in enumerate(buckets):
            routed = [r for r in stream if route(r) == shard]
            assert bucket == routed
            # Asked for alone, the bucket drops the other shards' requests.
            (alone,) = partition_arrivals(spec, [shard])
            assert list(alone) == routed
        union = sorted(
            (r for bucket in buckets for r in bucket), key=lambda r: r.seq
        )
        assert union == stream
        # Disjoint objects: a run mutates Request.retries in place.
        assert len({id(r) for r in union}) == len(stream)

    def test_split_moves_post_split_arrivals_between_buckets(self):
        base = dict(num_shards=2, partitioner="range", write_rate_qps=20_000.0)
        plain = [list(b) for b in partition_arrivals(cluster_spec(**base))]
        split = [
            list(b)
            for b in partition_arrivals(cluster_spec(split_at_s=150, **base))
        ]
        assert len(split[1]) > len(plain[1])
        assert sum(map(len, split)) == sum(map(len, plain))

    def test_lockstep_queues_hold_one_tick(self, monkeypatch):
        """Under run_coordinated the splitter reads ahead only as far as
        some shard's next arrival: with traffic on every shard every
        tick, each queue holds next-tick arrivals only."""
        from repro.cluster import shard as shard_module

        queues: list[deque] = []

        class RecordedDeque(deque):
            def __init__(self, *args):
                super().__init__(*args)
                queues.append(self)

        monkeypatch.setattr(shard_module, "deque", RecordedDeque)
        spec = cluster_spec(
            read_rate_qps=300_000.0, write_rate_qps=100_000.0, verify=True
        )
        held: list[int] = []

        def on_tick(tick, sessions):
            for queue in queues:
                assert all(tick + 1 <= r.arrival_s < tick + 2 for r in queue)
                held.append(len(queue))

        result = run_coordinated(spec, on_tick=on_tick)
        assert len(queues) == spec.num_shards
        assert result.reads_completed > 500
        assert max(held) > 0

    def test_prepare_shard_default_is_its_own_bucket(self):
        spec = cluster_spec(num_shards=3)
        bucket = list(partition_arrivals(spec)[1])
        session = prepare_shard(spec, 1)
        assert bucket
        assert list(session.simulator.arrivals) == bucket


class TestParallelEquivalence:
    def test_jobs_1_equals_jobs_2(self):
        spec = cluster_spec(num_shards=2)
        serial = run_cluster(spec, jobs=1)
        parallel = run_cluster(spec, jobs=2)
        assert serial.to_dict() == parallel.to_dict()

    def test_coordinated_equals_fanned_without_split(self):
        spec = cluster_spec(num_shards=2, partitioner="range")
        fanned = run_cluster(spec, jobs=1)
        coordinated = run_coordinated(spec)
        assert [s.to_dict() for s in coordinated.shards] == [
            s.to_dict() for s in fanned.shards
        ]


class TestShardSplit:
    SPLIT_PARAMS: dict = dict(
        partitioner="range",
        num_shards=2,
        duration_s=400,
        read_rate_qps=RATE,
        write_rate_qps=20_000.0,
        split_at_s=200,
        split_source=0,
        split_target=1,
        split_fraction=0.5,
    )

    def test_split_preserves_kv_oracle_consistency(self):
        spec = cluster_spec(verify=True, **self.SPLIT_PARAMS)
        result = run_coordinated(spec)
        assert result.verify is not None
        assert result.verify["reads_checked"] > 0
        assert result.verify["writes_recorded"] > 0
        assert result.verify["read_mismatches"] == 0

    def test_split_migrates_range_and_requests(self):
        spec = cluster_spec(**self.SPLIT_PARAMS)
        result = run_coordinated(spec)
        migration = result.migration
        assert migration is not None
        assert migration.at_s == 200
        assert (migration.source, migration.target) == (0, 1)
        assert migration.low < migration.high
        assert migration.entries > 0
        # Both shards published the migration on their event buses.
        for shard in result.shards:
            assert shard.event_counts.get("RangeMigrated") == 1
        # Post-split, the target serves the migrated hot range: it
        # completes reads it would never have seen pre-split.
        assert result.shards[1].reads_completed > 0

    def test_split_reroutes_post_split_arrivals(self):
        """The request router sends post-split arrivals for the
        migrated range to the target shard."""
        spec = cluster_spec(**self.SPLIT_PARAMS)
        config = spec.config()
        low, high = spec.split_range(config)
        route = spec.request_router(config)

        from repro.serve.arrivals import Request

        key = (low + high) // 2
        before = Request(
            key=key, op="read", klass="readers", arrival_s=100.0, seq=0
        )
        after = Request(
            key=key, op="read", klass="readers", arrival_s=250.0, seq=1
        )
        assert route(before) == 0
        assert route(after) == 1
        # Keys outside the migrated range never move.
        outside = Request(
            key=low - 1, op="read", klass="readers", arrival_s=250.0, seq=2
        )
        assert route(outside) == 0

    def test_split_scheduled_past_the_end_is_an_error(self, monkeypatch):
        from repro.cluster import run

        prepared: list[int] = []
        monkeypatch.setattr(
            run, "prepare_shard",
            lambda spec, shard, **kwargs: prepared.append(shard),
        )
        spec = cluster_spec(**dict(self.SPLIT_PARAMS, split_at_s=400))
        with pytest.raises(ConfigError, match="outside the run"):
            run_coordinated(spec)
        # Refused before any engine was built, not after simulating 400 s.
        assert prepared == []


class TestValidation:
    def test_split_requires_range_partitioner(self):
        with pytest.raises(ConfigError, match="range"):
            cluster_spec(partitioner="hash", split_at_s=100)

    def test_split_requires_two_shards(self):
        with pytest.raises(ConfigError):
            cluster_spec(num_shards=1, partitioner="range", split_at_s=100)

    def test_split_source_and_target_must_differ(self):
        with pytest.raises(ConfigError):
            cluster_spec(
                partitioner="range", split_at_s=100,
                split_source=1, split_target=1,
            )

    def test_split_fraction_bounds(self):
        with pytest.raises(ConfigError):
            cluster_spec(
                partitioner="range", split_at_s=100, split_fraction=1.0
            )

    def test_unknown_partitioner_rejected(self):
        with pytest.raises(ConfigError):
            cluster_spec(partitioner="modulo")

    def test_shard_spec_index_bounds(self):
        with pytest.raises(ConfigError):
            ShardSpec(cluster=cluster_spec(num_shards=2), shard=2)

    def test_execute_shard_refuses_coordinated_specs(self):
        spec = cluster_spec(
            partitioner="range", split_at_s=100, duration_s=DURATION
        )
        with pytest.raises(ConfigError, match="coordinated"):
            execute_shard(ShardSpec(cluster=spec, shard=0))

    def test_duplicate_grid_specs_rejected(self):
        spec = cluster_spec()
        with pytest.raises(ConfigError, match="duplicate"):
            run_cluster_grid([spec, spec])


class TestTransport:
    def test_cluster_result_round_trips_losslessly(self):
        spec = cluster_spec(num_shards=2)
        result = run_cluster(spec)
        rebuilt = ClusterResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert rebuilt.to_dict() == result.to_dict()

    def test_split_result_round_trips_with_migration_and_verify(self):
        spec = cluster_spec(verify=True, **TestShardSplit.SPLIT_PARAMS)
        result = run_coordinated(spec)
        rebuilt = ClusterResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert rebuilt.to_dict() == result.to_dict()
        assert isinstance(rebuilt.migration, MigrationReport)
        assert rebuilt.verify == result.verify

    def test_spec_round_trips(self):
        spec = cluster_spec(
            verify=True, **TestShardSplit.SPLIT_PARAMS
        )
        rebuilt = ClusterSpec.from_dict(
            json.loads(json.dumps(spec.to_dict()))
        )
        assert rebuilt == spec
        assert rebuilt.label() == spec.label()

    def test_grid_expansion_counts_and_labels(self):
        specs = expand_cluster_grid(
            ["lsbm", "leveldb"], [1, 2], ["hash", "range"], [RATE],
            [0, 1], scale=SCALE, duration_s=DURATION,
        )
        assert len(specs) == 2 * 2 * 2 * 1 * 2
        assert len({spec.label() for spec in specs}) == len(specs)


class TestAggregates:
    def test_fleet_aggregates_sum_shard_ledgers(self):
        result = run_cluster(cluster_spec(num_shards=3))
        assert result.reads_completed == sum(
            shard.reads_completed for shard in result.shards
        )
        assert result.goodput_qps() == pytest.approx(
            sum(shard.goodput_qps() for shard in result.shards)
        )
        summary = result.per_shard_summary()
        assert set(summary) == {"0", "1", "2"}
        assert result.read_imbalance() >= 1.0
        assert 0 <= result.hottest_shard() < 3
        assert len(result.shard_read_p99_ms()) == 3

    def test_bench_entry_shape(self):
        result = run_cluster(cluster_spec(num_shards=2))
        entry = result.to_json_dict()
        assert entry["kind"] == "cluster"
        assert entry["num_shards"] == 2
        assert set(entry["per_shard"]) == {"0", "1"}
        assert len(entry["shard_read_p99_ms"]) == 2
