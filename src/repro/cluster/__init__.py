"""The cluster tier: sharded serving over the single-engine substrate.

``repro.cluster`` partitions the keyspace across N engine shards behind
a seeded router (consistent hashing or contiguous ranges), drives each
shard with its own bounded scheduler and admission controller through
the open-loop serve layer, and fans shard execution over the sweep
runner's process pool.  Live shard splits migrate a key range between
shards mid-run without violating the KV contract — verified against a
cluster-wide :class:`~repro.check.oracle.KVOracle`.
"""

from repro.cluster.result import ClusterResult, MigrationReport
from repro.cluster.ring import (
    DEFAULT_VNODES,
    PARTITIONERS,
    HashRing,
    RangePartitioner,
    SplitRouter,
)
from repro.cluster.run import (
    OracleObserver,
    cluster_payload,
    run_cluster,
    run_cluster_grid,
    run_coordinated,
)
from repro.cluster.shard import (
    ShardSpec,
    execute_shard,
    partition_arrivals,
    prepare_shard,
)
from repro.cluster.spec import ClusterSpec, expand_cluster_grid

__all__ = [
    "DEFAULT_VNODES",
    "PARTITIONERS",
    "ClusterResult",
    "ClusterSpec",
    "HashRing",
    "MigrationReport",
    "OracleObserver",
    "RangePartitioner",
    "ShardSpec",
    "SplitRouter",
    "cluster_payload",
    "execute_shard",
    "expand_cluster_grid",
    "partition_arrivals",
    "prepare_shard",
    "run_cluster",
    "run_cluster_grid",
    "run_coordinated",
]
