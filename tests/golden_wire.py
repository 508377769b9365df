"""Golden harness for the wire format itself.

The four digest harnesses (``golden_engines``, ``golden_write``,
``golden_read``, ``golden_serve``) hash the lossless ``to_dict()`` of
*results*; no digest holds the payload of an ``ExperimentSpec``,
``ServiceSpec``, ``ClientClass``, ``ShardSpec`` or ``CompactionAxes``,
and a hash cannot say which key moved.  ``tests/golden_wire.json``
therefore pins, in full, ``to_dict()`` of one fixed non-default
instance of every class that has a wire form (and ``cell_key()`` of
every spec), recorded from the tree whose ``to_dict``/``from_dict``
were still written by hand; ``test_wire_golden.py`` rebuilds the same
instances and compares.

The instances are built by hand, so recording needs no run.
Regenerate (only when a change is *supposed* to alter a payload, and
say so in the commit message)::

    PYTHONPATH=src:tests python -m golden_wire
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.cluster.result import ClusterResult, MigrationReport
from repro.cluster.shard import ShardSpec
from repro.cluster.spec import ClusterSpec
from repro.config import SystemConfig
from repro.lsm.policy import CompactionAxes
from repro.obs.metrics import Reservoir
from repro.serve.arrivals import ClientClass
from repro.serve.result import ClassStats, ServeResult
from repro.serve.spec import ServiceSpec
from repro.sim.metrics import RunResult, TimeSeries
from repro.sim.spec import ExperimentSpec

GOLDEN_PATH = Path(__file__).parent / "golden_wire.json"


def _series(name: str, *points: tuple[int, float]) -> TimeSeries:
    series = TimeSeries(name)
    for time, value in points:
        series.add(time, value)
    return series


def _reservoir(capacity: int, *values: float) -> Reservoir:
    reservoir = Reservoir(capacity=capacity)
    reservoir.extend(values)
    return reservoir


def _fill_run(result: RunResult) -> RunResult:
    """Give every ``RunResult`` field a non-default value."""
    result.hit_ratio = _series("hit_ratio", (30, 0.5), (60, 0.875))
    result.throughput_qps = _series("throughput_qps", (1, 1200.0), (2, 1350.5))
    result.db_size_mb = _series("db_size_mb", (1, 10.25), (2, 10.5))
    result.cache_usage = _series("cache_usage", (30, 0.25))
    result.disk_utilization = _series("disk_utilization", (1, 0.125), (2, 1.0))
    result.buffer_size_mb = _series("buffer_size_mb", (30, 1.5))
    result.stall = _series("stall", (1, 0.0), (2, 0.75))
    result.read_latencies_s = _reservoir(4, 0.001, 0.25, 0.0005, 0.002, 0.015)
    result.event_counts = {"FlushEnd": 3, "CompactionEnd": 2}
    result.bandwidth_kb_by_cause = {
        "query": {"read_kb": 96.5, "write_kb": 0.0},
        "flush": {"read_kb": 0.0, "write_kb": 2048.0},
    }
    result.metrics = {
        "lsm.puts": 1900.0,
        "lsm.get.latency_s": {"count": 2.0, "sum": 0.5, "p99": 0.25},
    }
    return result


RUN_RESULT = _fill_run(
    RunResult(
        engine="lsbm",
        config_note="scale=512",
        reads_completed=2400,
        writes_applied=1900,
        duration_s=2,
        stall_seconds=0.75,
    )
)

CLIENT_CLASS = ClientClass(
    name="scanners",
    op="scan",
    rate_qps=400.0,
    process="bursty",
    burst_multiplier=6.0,
    burst_fraction=0.2,
    mean_burst_s=12.5,
    diurnal_amplitude=0.4,
    diurnal_period_s=300.0,
    weight=2,
)

EXPERIMENT_SPEC = ExperimentSpec(
    engine="lsbm",
    base="ssd_scaled",
    scale=512,
    overrides=(("trim_threshold", 0.7), ("size_ratio", 8), ("wal_enabled", True)),
    duration_s=900,
    seed=7,
    scan_mode=True,
    do_preload=False,
    profile=True,
    sample_every=5,
    trace_path="/tmp/trace.jsonl",
)

EXPLICIT_SPEC = ExperimentSpec.from_config(
    "blsm", SystemConfig.tiny(), duration_s=60, seed=3
)

SERVICE_SPEC = ServiceSpec(
    engine="lsbm",
    base="paper_scaled",
    scale=1024,
    overrides=(("size_ratio", 8),),
    duration_s=600,
    seed=5,
    policy="weighted-fair",
    arrival="diurnal",
    read_rate_qps=6000.0,
    write_rate_qps=1500.0,
    queue_bound=48,
    admit_queue_fraction=0.5,
    retry_after_s=2.5,
    max_retries=2,
    classes=(
        ClientClass(name="readers", op="read", rate_qps=4000.0, weight=3),
        CLIENT_CLASS,
        ClientClass(
            name="writers", op="write", rate_qps=1000.0, process="diurnal"
        ),
    ),
    do_preload=False,
    warm_cache=False,
    request_sample_every=5,
    trace="exemplar",
    trace_dir="/tmp/traces",
    trace_slo_s=0.5,
    trace_stall_spike_s=0.125,
    trace_dip_threshold=0.6,
    controller="rules",
    control_interval_s=20,
)

CLUSTER_SPEC = ClusterSpec(
    engine="lsbm",
    num_shards=3,
    partitioner="range",
    vnodes=16,
    base="paper_scaled",
    scale=1024,
    overrides=(("size_ratio", 8),),
    duration_s=600,
    seed=5,
    policy="read-priority",
    arrival="bursty",
    read_rate_qps=6000.0,
    write_rate_qps=1500.0,
    queue_bound=48,
    admit_queue_fraction=0.5,
    retry_after_s=2.5,
    max_retries=2,
    do_preload=False,
    warm_cache=False,
    request_sample_every=5,
    trace="full",
    trace_dir="/tmp/traces",
    trace_slo_s=0.5,
    trace_stall_spike_s=0.125,
    trace_dip_threshold=0.6,
    controller="gradient",
    control_interval_s=20,
    split_at_s=300,
    split_source=2,
    split_target=0,
    split_fraction=0.25,
    verify=True,
)

SHARD_SPEC = ShardSpec(cluster=ClusterSpec(engine="blsm", num_shards=4), shard=3)

CLASS_STATS = ClassStats(
    op="write",
    arrived=12,
    admitted=10,
    completed=9,
    shed=2,
    deferred=3,
    retried=1,
    queue_delay_s=_reservoir(3, 0.0, 0.5, 0.125, 2.0),
    service_s=_reservoir(3, 0.001, 0.002),
    latency_s=_reservoir(3, 0.001, 0.502, 0.127, 2.002),
)

#: One kept exemplar in the shape ``repro.obs.tracing`` writes
#: (``queue_delay_s + sum(stage durations) == total_s``).
_EXEMPLAR = {
    "trace_id": "5-0-41",
    "seq": 41,
    "shard": 0,
    "klass": "readers",
    "op": "read",
    "key": 977,
    "arrival_s": 12.5,
    "queue_delay_s": 0.25,
    "service_s": 0.0625,
    "total_s": 0.3125,
    "retries": 0,
    "sampled": "tail",
    "stages": [
        {"stage": "memtable", "duration_s": 0.0},
        {"stage": "level:1", "duration_s": 0.0625, "blocks": 1},
    ],
}

_FLIGHT_DUMP = {
    "trigger": "stall-spike",
    "t": 120.0,
    "value": 0.5,
    "threshold": 0.125,
    "shard": 0,
    "records": [
        {"t": 119.0, "event": "CompactionEnd", "level": 1, "kind": "merge"},
        {"t": 120.0, "event": "Tick", "stall_s": 0.5, "hit_ratio": 0.75},
    ],
}

_CONTROL_DECISION = {
    "t": 40,
    "controller": "rules",
    "action": "grow",
    "knob": "cache_size_kb",
    "old": 3072,
    "new": 3584,
    "reason": "hit ratio 0.61 below band",
}


def _serve_result(engine: str) -> ServeResult:
    result = _fill_run(
        ServeResult(
            engine=engine,
            config_note="serve; scale=1024",
            reads_completed=2400,
            writes_applied=1900,
            duration_s=2,
            stall_seconds=0.75,
            policy="weighted-fair",
            arrival="diurnal",
            offered_read_qps=6000.0,
            ops_scale=512.0,
            max_queue_depth=17,
        )
    )
    result.queue_depth = _series("queue_depth", (1, 3.0), (2, 17.0))
    result.offered_qps = _series("offered_qps", (1, 5632.0), (2, 6144.0))
    result.class_stats = {"writers": CLASS_STATS, "readers": ClassStats(arrived=4)}
    result.request_samples = [
        {
            "seq": 17, "klass": "readers", "op": "read", "arrival_s": 0.5,
            "queue_delay_s": 0.25, "service_s": 0.0625, "total_s": 0.3125,
            "retries": 0,
        },
        {
            "seq": 34, "klass": "writers", "op": "write", "arrival_s": 1.25,
            "queue_delay_s": 2.0, "service_s": 0.002, "total_s": 2.002,
            "retries": 1,
        },
    ]
    result.trace_mode = "exemplar"
    result.exemplars = [_EXEMPLAR]
    result.flight_dumps = [_FLIGHT_DUMP]
    result.controller = "rules"
    result.control_decisions = [_CONTROL_DECISION]
    return result


SERVE_RESULT = _serve_result("lsbm")

MIGRATION_REPORT = MigrationReport(
    at_s=300,
    source=2,
    target=0,
    low=7168,
    high=8192,
    entries=1000,
    drained_requests=5,
    adopted_requests=4,
    moved_retries=2,
)

CLUSTER_RESULT = ClusterResult(
    spec=CLUSTER_SPEC,
    shards=[SERVE_RESULT, ServeResult(engine="lsbm", duration_s=2)],
    migration=MIGRATION_REPORT,
    verify={"writes_recorded": 1900, "reads_checked": 2400, "read_mismatches": 0},
)

#: Name -> the pinned instance (13 classes; ``ExperimentSpec`` twice,
#: because the explicit base carries every ``SystemConfig`` field, and
#: ``ServiceSpec`` twice, because a traced and controlled spec at the
#: default thresholds must keep them *out* of its ``cell_key()``).
INSTANCES: dict[str, object] = {
    "ExperimentSpec": EXPERIMENT_SPEC,
    "ExperimentSpec/explicit": EXPLICIT_SPEC,
    "ServiceSpec": SERVICE_SPEC,
    "ServiceSpec/defaults": ServiceSpec(
        engine="leveldb", trace="exemplar", controller="static"
    ),
    "ClientClass": CLIENT_CLASS,
    "ClusterSpec": CLUSTER_SPEC,
    "ShardSpec": SHARD_SPEC,
    "CompactionAxes": CompactionAxes(
        trigger="level-saturation",
        layout="lazy-leveling",
        granularity="full-level",
        movement="lazy-adoption",
    ),
    "TimeSeries": _series("hit_ratio", (30, 0.5), (60, 0.875)),
    "Reservoir": _reservoir(4, 0.001, 0.25, 0.0005, 0.002, 0.015),
    "RunResult": RUN_RESULT,
    "ClassStats": CLASS_STATS,
    "ServeResult": SERVE_RESULT,
    "MigrationReport": MIGRATION_REPORT,
    "ClusterResult": CLUSTER_RESULT,
}


def canonical(payload: object) -> str:
    """The one rendering both sides compare (key order is free)."""
    return json.dumps(payload, indent=1, sort_keys=True)


def generate() -> dict:
    return {
        "description": (
            "Full lossless to_dict() payload of one fixed non-default "
            "instance per wire class, and cell_key() of every spec, "
            "recorded from the hand-written to_dict/from_dict methods.  "
            "Regenerate with `PYTHONPATH=src:tests python -m golden_wire`."
        ),
        "payloads": {
            name: instance.to_dict() for name, instance in INSTANCES.items()
        },
        "cell_keys": {
            name: instance.cell_key()
            for name, instance in INSTANCES.items()
            if hasattr(instance, "cell_key")
        },
    }


if __name__ == "__main__":
    GOLDEN_PATH.write_text(canonical(generate()) + "\n")
    print(f"wrote {GOLDEN_PATH}")
