"""The golden harness: every identity gate's cells, how each runs, its pin.

One table, :data:`CELLS`, maps a cell id to the zero-argument recipe
that produces it; ``tests/golden.json`` holds one pin per cell, one cell
per line; ``test_golden.py`` replays every cell and compares.

Result cells (129) run the simulator and are pinned by *section*:

* ``engines/<engine>/<seed>`` — the legacy engines' closed loop,
  ``paper_scaled(2048)``, RangeHot, 1,200 virtual seconds under a live
  event subscriber (which disables the bus's counting-only fast path,
  so the pin also holds the event order);
* ``read/<engine>/<mode>`` — the same recipe for 14,000 s (level-2 -> 3
  merges need about 13,000 s at this scale): every engine in scan mode,
  the composed points in point mode;
* ``ycsb/<mix>/<engine>`` — YCSB core workloads A-F on ``lsbm`` and
  ``leveldb``, ``paper_scaled(2048)`` preloaded, 64 client threads,
  seed 7, 600 virtual seconds under a live event subscriber;
* ``write/<engine>/<seed>`` — one reader beside the paced writer
  through :func:`~repro.sim.experiment.execute` for 16,000 s, on the
  counting-only bus every benchmark run uses (no event stream);
* ``serve/<name>/<seed>``, ``cluster/<name>/<seed>`` — open-loop serve
  and coordinated-cluster runs of ``lsbm`` at a saturating rate, one
  live subscriber on every shard's bus.

A result cell's pin is a section map plus a root sha256 over it (see
:func:`sections`).  Every result cell whose recipe holds the engine
(all but ``write/``) also pins the tree the run closed on as a
``structure`` section (``shards.<i>.structure`` per cluster shard): per
run group, per table, each file's id, key range and size.  The
``write/`` cells run through :func:`~repro.sim.experiment.execute`,
which never hands the engine back, and keep their payload sections.
Value cells are pinned as values: ``crash/<engine>`` (how often the
crash schedule of ``tests/seeds.json`` visits each fault point, and at
which operation its armed hits fall), ``wire/<name>`` (the full
``to_dict()`` of one fixed non-default instance per wire class, loaded
back by the test) and ``cell_key/<name>``.

Replay or re-pin, over every cell or an ``fnmatch`` glob of cell ids::

    PYTHONPATH=src python -m tests.golden diff ['serve/*']
    PYTHONPATH=src python -m tests.golden record ['engines/sm/*']

``diff`` names the sections that moved and exits 1 if any did;
``record`` rewrites only the lines of the matching cells.  DESIGN.md §7
is the protocol a behaviour change follows.
"""

from __future__ import annotations

import argparse
import fnmatch
import hashlib
import json
import sys
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

from repro.check.crash import CRASH_POINTS, attach_injector
from repro.check.schedule import ScheduleSpec, apply_op, generate_schedule
from repro.cluster.result import ClusterResult, MigrationReport
from repro.cluster.run import run_coordinated
from repro.cluster.shard import ShardSpec
from repro.cluster.spec import ClusterSpec
from repro.config import SystemConfig
from repro.lsm.policy import CompactionAxes
from repro.obs.metrics import Reservoir
from repro.serve.arrivals import ClientClass
from repro.serve.result import ClassStats, ServeResult
from repro.serve.service import finalize_serve, prepare_serve
from repro.serve.spec import ServiceSpec
from repro.sim.driver import MixedReadWriteDriver
from repro.sim.experiment import ENGINE_NAMES, build_engine, execute, preload
from repro.sim.metrics import RunResult, TimeSeries
from repro.sim.spec import ExperimentSpec
from repro.workload.ycsb import RangeHotWorkload, ycsb_core_workload

GOLDEN_PATH = Path(__file__).with_name("golden.json")

_SEED_CORPUS = json.loads(Path(__file__).with_name("seeds.json").read_text())
SEEDS = _SEED_CORPUS["differential"]["seeds"]
CRASH = _SEED_CORPUS["crash"]

SCALE = 2048


# ----------------------------------------------------------------------
# Recipes.
# ----------------------------------------------------------------------
class Run(NamedTuple):
    """A result cell's outcome: the result and, under a live subscriber,
    every event's ``repr`` in order (``"<shard>:"``-prefixed on a
    cluster); ``events`` is ``None`` on the counting-only bus.

    ``structure`` maps a section name (``structure``, or
    ``shards.<i>.structure`` per cluster shard) to :func:`structure` of
    the engine the recipe holds; ``None`` for the ``write/`` cells.
    """

    result: object
    events: list[str] | None
    structure: dict[str, list] | None = None


def structure(engine) -> list:
    """Per ``_run_groups()`` group, per table, each file's
    ``[file_id, min_key, max_key, size_kb]``: the tree a run closed on."""
    return [
        [
            [[f.file_id, f.min_key, f.max_key, f.size_kb] for f in table]
            for table in group
        ]
        for group in engine._run_groups()
    ]


def _closed_loop(
    engine_name: str,
    seed: int,
    duration_s: int,
    scan_mode: bool = False,
    mix: str | None = None,
) -> Run:
    """RangeHot, or the YCSB core workload ``mix`` on 64 client threads."""
    config = SystemConfig.paper_scaled(SCALE)
    if mix is None:
        workload = RangeHotWorkload(config)
    else:
        config = config.replace(read_threads=64)
        workload = ycsb_core_workload(mix, config.unique_keys)
    setup = build_engine(engine_name, config)
    preload(setup)
    events: list[str] = []
    setup.engine.bus.subscribe_all(lambda event: events.append(repr(event)))
    driver = MixedReadWriteDriver(
        setup.engine,
        config,
        setup.clock,
        workload=workload,
        seed=seed,
        scan_mode=scan_mode,
    )
    result = driver.run(duration_s)
    return Run(result, events, {"structure": structure(setup.engine)})


def _write_heavy(engine_name: str, seed: int) -> Run:
    spec = ExperimentSpec(
        engine=engine_name,
        base="paper_scaled",
        scale=SCALE,
        duration_s=16_000,
        seed=seed,
        overrides=(("read_threads", 1),),
    )
    return Run(execute(spec), None)


def _serve(spec: ServiceSpec | ClusterSpec) -> Run:
    events: list[str] = []
    if isinstance(spec, ClusterSpec):
        engines = {}

        def attach(session, shard: int) -> None:
            engines[shard] = session.setup.engine
            session.setup.engine.bus.subscribe_all(
                lambda event: events.append(f"{shard}:{event!r}")
            )

        result = run_coordinated(spec, attach=attach)
        return Run(
            result,
            events,
            {
                f"shards.{shard}.structure": structure(engine)
                for shard, engine in engines.items()
            },
        )
    session = prepare_serve(spec)
    session.setup.engine.bus.subscribe_all(
        lambda event: events.append(repr(event))
    )
    result = finalize_serve(session, session.simulator.run(session.duration_s))
    return Run(result, events, {"structure": structure(session.setup.engine)})


def crash_point_visits(engine_name: str) -> dict[str, dict]:
    """Per fault point: total visits and the op index of each armed hit.

    A disk call that books several files at once must still visit the
    per-file points, or a pinned ``(point, hits)`` would fire elsewhere.
    """
    spec = ScheduleSpec(
        seed=CRASH["seed"], ops=CRASH["ops"], key_space=CRASH["key_space"]
    )
    setup = build_engine(
        engine_name, SystemConfig.tiny().replace(wal_enabled=True)
    )
    visits = {point: 0 for point in CRASH_POINTS}
    fired_at: dict[str, dict[str, int]] = {point: {} for point in CRASH_POINTS}
    op_index = 0

    def counting_hook(point: str) -> None:
        visits[point] += 1
        if visits[point] in CRASH["hits"]:
            fired_at[point][str(visits[point])] = op_index

    attach_injector(setup.engine, counting_hook)
    for op_index, op in enumerate(generate_schedule(spec)):
        apply_op(setup.engine, setup.clock, op)
    return {
        point: {"visits": visits[point], "op_of_hit": fired_at[point]}
        for point in CRASH_POINTS
    }


# ----------------------------------------------------------------------
# Wire instances: one fixed non-default instance per class with a wire
# form, built by hand so pinning them needs no run.
# ----------------------------------------------------------------------
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

#: The thresholds, retry and trace fields every serve-shaped spec below
#: sets away from their defaults.
_SERVE_FIELDS = dict(
    base="paper_scaled",
    scale=1024,
    overrides=(("size_ratio", 8),),
    duration_s=600,
    seed=5,
    read_rate_qps=6000.0,
    write_rate_qps=1500.0,
    queue_bound=48,
    admit_queue_fraction=0.5,
    retry_after_s=2.5,
    max_retries=2,
    do_preload=False,
    warm_cache=False,
    request_sample_every=5,
    trace_dir="/tmp/traces",
    trace_slo_s=0.5,
    trace_stall_spike_s=0.125,
    trace_dip_threshold=0.6,
    control_interval_s=20,
)

SERVICE_SPEC = ServiceSpec(
    engine="lsbm",
    policy="weighted-fair",
    arrival="diurnal",
    classes=(
        ClientClass(name="readers", op="read", rate_qps=4000.0, weight=3),
        CLIENT_CLASS,
        ClientClass(
            name="writers", op="write", rate_qps=1000.0, process="diurnal"
        ),
    ),
    trace="exemplar",
    controller="rules",
    **_SERVE_FIELDS,
)

CLUSTER_SPEC = ClusterSpec(
    engine="lsbm",
    num_shards=3,
    partitioner="range",
    vnodes=16,
    policy="read-priority",
    arrival="bursty",
    trace="full",
    controller="gradient",
    split_at_s=300,
    split_source=2,
    split_target=0,
    split_fraction=0.25,
    verify=True,
    **_SERVE_FIELDS,
)

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


def _serve_result() -> ServeResult:
    result = _fill_run(
        ServeResult(
            engine="lsbm",
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
    # One kept exemplar in the shape ``repro.obs.tracing`` writes
    # (``queue_delay_s + sum(stage durations) == total_s``).
    result.exemplars = [
        {
            "trace_id": "5-0-41", "seq": 41, "shard": 0, "klass": "readers",
            "op": "read", "key": 977, "arrival_s": 12.5,
            "queue_delay_s": 0.25, "service_s": 0.0625, "total_s": 0.3125,
            "retries": 0, "sampled": "tail",
            "stages": [
                {"stage": "memtable", "duration_s": 0.0},
                {"stage": "level:1", "duration_s": 0.0625, "blocks": 1},
            ],
        }
    ]
    result.flight_dumps = [
        {
            "trigger": "stall-spike", "t": 120.0, "value": 0.5,
            "threshold": 0.125, "shard": 0,
            "records": [
                {"t": 119.0, "event": "CompactionEnd", "level": 1,
                 "kind": "merge"},
                {"t": 120.0, "event": "Tick", "stall_s": 0.5,
                 "hit_ratio": 0.75},
            ],
        }
    ]
    result.controller = "rules"
    result.control_decisions = [
        {
            "t": 40, "controller": "rules", "action": "grow",
            "knob": "cache_size_kb", "old": 3072, "new": 3584,
            "reason": "hit ratio 0.61 below band",
        }
    ]
    return result


SERVE_RESULT = _serve_result()

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
    "ExperimentSpec": ExperimentSpec(
        engine="lsbm",
        base="ssd_scaled",
        scale=512,
        overrides=(
            ("trim_threshold", 0.7), ("size_ratio", 8), ("wal_enabled", True)
        ),
        duration_s=900,
        seed=7,
        scan_mode=True,
        do_preload=False,
        profile=True,
        sample_every=5,
        trace_path="/tmp/trace.jsonl",
    ),
    "ExperimentSpec/explicit": ExperimentSpec.from_config(
        "blsm", SystemConfig.tiny(), duration_s=60, seed=3
    ),
    "ServiceSpec": SERVICE_SPEC,
    "ServiceSpec/defaults": ServiceSpec(
        engine="leveldb", trace="exemplar", controller="static"
    ),
    "ClientClass": CLIENT_CLASS,
    "ClusterSpec": CLUSTER_SPEC,
    "ShardSpec": ShardSpec(cluster=ClusterSpec(engine="blsm", num_shards=4), shard=3),
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


# ----------------------------------------------------------------------
# The cell table.
# ----------------------------------------------------------------------
#: Engine names that existed before the compaction design-space
#: refactor, pinned as a tuple so registry edits never silently widen
#: or shrink the proof.
LEGACY_ENGINES = (
    "leveldb",
    "leveldb-oscache",
    "blsm",
    "blsm-dual",
    "sm",
    "lsbm",
    "lsbm-dual",
    "blsm+warmup",
    "blsm+kvcache",
    "hbase",
    "hbase-nomajor",
)

#: The ``ComposedTree`` points, whose point-read order only ``read/``
#: pins under a live subscriber.
COMPOSED_POINTS = (
    "design",
    "tiering",
    "tiering+buffer",
    "lazy-leveling",
    "lazy-leveling+buffer",
)

#: Every merge sequence the engines own: the leveled run merge (cursor
#: and gear, with and without adoption, with an OS cache beside it), the
#: flat store's minor/major, and ComposedTree's cursor pick (``design``),
#: full-level tier move and collapse (``sm``), partial tier move and
#: lazy adoption.
WRITE_ENGINES = (
    "leveldb",
    "leveldb-oscache",
    "blsm",
    "sm",
    "lsbm",
    "lsbm-dual",
    "blsm+warmup",
    "hbase",
    "design",
    "tiering",
    "tiering+buffer",
    "lazy-leveling+buffer",
)

#: The YCSB core mixes, each pinned on a leveled tree and on LSbM.
YCSB_MIXES = ("A", "B", "C", "D", "E", "F")
YCSB_ENGINES = ("lsbm", "leveldb")
YCSB_SEED = 7

#: About 1.5x the closed-loop capacity at this scale: the queue fills,
#: writes defer, retry, and shed — every branch of ``_offer`` runs.
_SERVE = dict(engine="lsbm", scale=SCALE, duration_s=1500, read_rate_qps=8000.0)
_CLUSTER = dict(_SERVE, partitioner="range")

SERVE_SPECS: dict[str, ServiceSpec | ClusterSpec] = {
    "serve/fifo": ServiceSpec(policy="fifo", **_SERVE),
    "serve/read-priority": ServiceSpec(policy="read-priority", **_SERVE),
    "serve/weighted-fair": ServiceSpec(policy="weighted-fair", **_SERVE),
    "serve/bursty": ServiceSpec(arrival="bursty", **_SERVE),
    "serve/scan-class": ServiceSpec(
        classes=(
            ClientClass(name="readers", op="read", rate_qps=4000.0, weight=3),
            ClientClass(name="scanners", op="scan", rate_qps=400.0),
            ClientClass(name="writers", op="write", rate_qps=1000.0),
        ),
        **_SERVE,
    ),
    "serve/trace-exemplar": ServiceSpec(trace="exemplar", **_SERVE),
    "serve/controller-rules": ServiceSpec(controller="rules", **_SERVE),
    "cluster/range4-verify": ClusterSpec(num_shards=4, verify=True, **_CLUSTER),
    "cluster/range2-split": ClusterSpec(
        num_shards=2, split_at_s=750, write_rate_qps=2000.0, **_CLUSTER
    ),
}

#: Result cell id -> recipe; every one is pinned by section.
RESULT_CELLS: dict[str, Callable[[], Run]] = {
    **{
        f"engines/{name}/{seed}": partial(_closed_loop, name, seed, 1200)
        for name in LEGACY_ENGINES
        for seed in SEEDS
    },
    **{
        f"read/{name}/scan": partial(_closed_loop, name, SEEDS[0], 14_000, True)
        for name in ENGINE_NAMES
    },
    **{
        f"read/{name}/point": partial(_closed_loop, name, SEEDS[0], 14_000)
        for name in COMPOSED_POINTS
    },
    **{
        f"ycsb/{mix}/{name}": partial(
            _closed_loop, name, YCSB_SEED, 600, mix=mix
        )
        for mix in YCSB_MIXES
        for name in YCSB_ENGINES
    },
    **{
        f"write/{name}/{seed}": partial(_write_heavy, name, seed)
        for name in WRITE_ENGINES
        for seed in SEEDS
    },
    **{
        f"{name}/{seed}": partial(_serve, spec.replace(seed=seed))
        for name, spec in SERVE_SPECS.items()
        for seed in SEEDS
    },
}

#: Every cell id -> recipe, in the order ``golden.json`` lists them.
CELLS: dict[str, Callable[[], object]] = {
    **RESULT_CELLS,
    **{f"crash/{name}": partial(crash_point_visits, name) for name in ENGINE_NAMES},
    **{f"wire/{name}": instance.to_dict for name, instance in INSTANCES.items()},
    **{
        f"cell_key/{name}": instance.cell_key
        for name, instance in INSTANCES.items()
        if hasattr(instance, "cell_key")
    },
}


def run(cell_id: str) -> object:
    """Produce a cell: a :class:`Run` for a result cell, else the value."""
    return CELLS[cell_id]()


# ----------------------------------------------------------------------
# Sections and pins.
# ----------------------------------------------------------------------
def canonical(value: object) -> str:
    """The one rendering every pin compares (key order is free; 1 and
    1.0 are not the same payload)."""
    return json.dumps(value, sort_keys=True)


def digest(value: object) -> str:
    return hashlib.sha256(canonical(value).encode()).hexdigest()


def _metric_source(key: str) -> str:
    """The registry source that owns a metric key: ``cache.<name>`` for
    a cache, else the key's first component (``disk``, ``engine``,
    ``control``)."""
    parts = key.split(".")
    return ".".join(parts[:2]) if parts[0] == "cache" else parts[0]


def _split(payload: dict, prefix: str, parts: dict[str, object]) -> None:
    for key, value in payload.items():
        name = prefix + key
        if key == "series" and value:
            for series_name, series in value.items():
                parts[f"{name}.{series_name}"] = series
        elif key == "metrics" and value:
            for metric, number in value.items():
                source = f"{name}.{_metric_source(metric)}"
                parts.setdefault(source, {})[metric] = number
        elif key == "shards" and value:
            for index, shard in enumerate(value):
                _split(shard, f"{name}.{index}.", parts)
        else:
            parts[name] = value


def sections(
    payload: dict,
    events: list[str] | None = None,
    structure: dict[str, list] | None = None,
) -> dict[str, str]:
    """Section name -> the first 16 hex digits (64 bits) of the sha256
    of that part of a payload, event stream and closing structure.

    One section per top-level payload key, except that ``series`` splits
    per series, ``metrics`` per registry source and a cluster's
    ``shards`` per shard (``shards.<i>.<section>``).  Events split per
    type (``events.<Type>``, ``shards.<i>.events.<Type>`` on a cluster)
    plus ``events.order``, the sequence of types (``<shard>:<Type>`` on
    a cluster).  ``structure`` adds its sections as named (see
    :class:`Run`).  Together the sections fix the whole ``to_dict()``,
    the whole ordered event stream and the tree each engine closed on.
    """
    parts: dict[str, object] = dict(structure or {})
    _split(payload, "", parts)
    if events is not None:
        order = []
        for event in events:
            head = event.partition("(")[0]
            shard, _, kind = head.rpartition(":")
            name = f"shards.{shard}.events.{kind}" if shard else f"events.{kind}"
            parts.setdefault(name, []).append(event)
            order.append(head)
        parts["events.order"] = order
    return {name: digest(parts[name])[:16] for name in sorted(parts)}


def result_pin(
    payload: dict,
    events: list[str] | None,
    structure: dict[str, list] | None = None,
) -> dict[str, object]:
    """A result's pin: its section map and a root sha256 over the map."""
    section_map = sections(payload, events, structure)
    return {"root": digest(section_map), "sections": section_map}


def pin(cell_id: str, outcome: object) -> object:
    """What ``golden.json`` holds for a cell: :func:`result_pin` for a
    result cell, the value itself for a value cell."""
    if cell_id not in RESULT_CELLS:
        return outcome
    return result_pin(outcome.result.to_dict(), outcome.events, outcome.structure)


def _section_map(cell_id: str, pinned: object) -> dict[str, str]:
    if cell_id in RESULT_CELLS:
        return pinned["sections"]
    return sections(pinned if isinstance(pinned, dict) else {"value": pinned})


def moved(cell_id: str, pinned: object, fresh: object) -> list[str]:
    """The sections of a cell that differ between two pins ("root" when
    only the root does).  A value cell's sections are :func:`sections`
    of the value."""
    if pinned is None:
        return ["(not pinned)"]
    old, new = _section_map(cell_id, pinned), _section_map(cell_id, fresh)
    names = sorted(n for n in old.keys() | new.keys() if old.get(n) != new.get(n))
    return names or (["root"] if canonical(pinned) != canonical(fresh) else [])


# ----------------------------------------------------------------------
# golden.json: one cell per line.
# ----------------------------------------------------------------------
def load(path: Path = GOLDEN_PATH) -> dict[str, object]:
    return json.loads(path.read_text()) if path.exists() else {}


def write(pins: dict[str, object], path: Path = GOLDEN_PATH) -> None:
    """Write the pins in table order, one cell per line, so a re-pin's
    diff is exactly the cells it re-recorded."""
    lines = [
        f"{json.dumps(cell_id)}: {canonical(pins[cell_id])}"
        for cell_id in CELLS
        if cell_id in pins
    ]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")


def _matching(pattern: str) -> list[str]:
    return [cell_id for cell_id in CELLS if fnmatch.fnmatchcase(cell_id, pattern)]


def record(pattern: str = "*", path: Path = GOLDEN_PATH) -> int:
    pins = load(path)
    for cell_id in _matching(pattern):
        pins[cell_id] = pin(cell_id, run(cell_id))
        print(f"recorded {cell_id}", flush=True)
    write(pins, path)
    print(f"wrote {path}")
    return 0


def diff(pattern: str = "*", path: Path = GOLDEN_PATH) -> int:
    pins = load(path)
    cells = _matching(pattern)
    total = 0
    for cell_id in cells:
        names = moved(cell_id, pins.get(cell_id), pin(cell_id, run(cell_id)))
        total += len(names)
        print(f"{cell_id}: {', '.join(names) or 'ok'}", flush=True)
    print(f"{len(cells)} cells, {total} sections moved")
    return 1 if total else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tests.golden",
        description="Replay (diff) or re-pin (record) the golden cells.",
    )
    parser.add_argument("command", choices=("record", "diff"))
    parser.add_argument(
        "pattern", nargs="?", default="*", help="fnmatch glob over cell ids"
    )
    args = parser.parse_args(argv)
    return {"record": record, "diff": diff}[args.command](args.pattern)


if __name__ == "__main__":
    sys.exit(main())
