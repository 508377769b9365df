"""What the ladder runs and what it reports: workloads, cells, metric tables.

A *workload* is a fixed list of *cells*; a cell is one spec handed to one
public entry point of ``repro``.  The program receives only the generated
spec: the seed, the scale and the duration are all in it.

The metric tables name every number the ladder prints.  ``kind`` says
whose time a number is in: ``host`` numbers are what the simulator costs
on this machine and are noisy; ``simulated`` numbers describe the modelled
system in virtual time and repeat exactly for a seed.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The paper's run length.  Level-2 behaviour needs at least 13,000
#: virtual seconds, so the ladder never shortens this outside ``--smoke``.
DURATION_S = 20_000

SMOKE_SCALE = 2048
SMOKE_DURATION_S = 2_000

#: From scale 512 a file is a single 4 KB block and a scan stops paying a
#: representative cost, so ``--scale-mult`` never lifts this workload.
SCAN_MAX_SCALE = 256

#: Serve rates in paper-scale QPS: about 0.57x and 1.1x of what the
#: closed loop sustains on the same engine.
COMFORTABLE_QPS = 3000.0
SATURATING_QPS = 6000.0


@dataclass(frozen=True)
class Cell:
    """One spec for one public entry point."""

    name: str
    kind: str  # "closed" | "serve" | "cluster"
    spec: object


@dataclass(frozen=True)
class Workload:
    name: str
    scale: int
    loop: str  # "closed" | "open"
    why: str
    working_set: str


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "fig8_point",
            256,
            "closed",
            "the paper's headline mix: 8 readers issue RangeHot point reads "
            "beside the paced writer, so get, bloom, cache and the read "
            "kernel do most of the work",
            "hot range (15% of data) fits the cache (30% of data)",
        ),
        Workload(
            "fig10_scan",
            256,
            "closed",
            "the same loop with 100 KB range queries: the read layers are "
            "used through scan and block iteration, so a get-path gain "
            "that costs the scan path shows here",
            "hot range fits the cache",
        ),
        Workload(
            "write_storm",
            128,
            "closed",
            "one reader beside the paced writer: memtable drain, table "
            "build, merge, disk accounting and invalidation dominate and "
            "the read kernel does almost nothing",
            "reads never warm the cache; the working set is all data",
        ),
        Workload(
            "serve_open",
            512,
            "open",
            "seeded Poisson arrivals at a comfortable and a saturating "
            "rate: the only place per-request serve bookkeeping runs, and "
            "the paper's stability claim as a tail latency",
            "cache pre-warmed with the hot range, which fits",
        ),
        Workload(
            "cluster_hot_shard",
            512,
            "open",
            "four range-partitioned shards stepped in lockstep under an "
            "oracle: adds routing, coordination and verification on top "
            "of serve, one number per link of the slowdown chain",
            "the hot range lands on one shard; per shard it fits",
        ),
    )
}


def cells(
    workload: str, seed: int, scale_mult: int = 1, smoke: bool = False
) -> list[Cell]:
    """The cells of ``workload``, fully specified."""
    from repro.cluster.spec import ClusterSpec
    from repro.serve.spec import ServiceSpec
    from repro.sim.spec import ExperimentSpec

    if smoke:
        scale, duration = SMOKE_SCALE, SMOKE_DURATION_S
    else:
        scale, duration = WORKLOADS[workload].scale * scale_mult, DURATION_S
        if workload == "fig10_scan":
            scale = min(scale, SCAN_MAX_SCALE)
    common = dict(
        base="paper_scaled", scale=scale, duration_s=duration, seed=seed
    )
    if workload == "fig8_point":
        return [
            Cell(engine, "closed", ExperimentSpec(engine=engine, **common))
            for engine in ("leveldb", "blsm", "lsbm")
        ]
    if workload == "fig10_scan":
        return [
            Cell(
                "lsbm",
                "closed",
                ExperimentSpec(engine="lsbm", scan_mode=True, **common),
            )
        ]
    if workload == "write_storm":
        return [
            Cell(
                engine,
                "closed",
                ExperimentSpec(
                    engine=engine,
                    overrides=(("read_threads", 1),),
                    **common,
                ),
            )
            for engine in ("leveldb", "sm", "lsbm")
        ]
    if workload == "serve_open":
        return [
            Cell(
                name,
                "serve",
                ServiceSpec(
                    engine="lsbm", policy="fifo", read_rate_qps=rate, **common
                ),
            )
            for name, rate in (
                ("comfortable", COMFORTABLE_QPS),
                ("saturating", SATURATING_QPS),
            )
        ]
    if workload == "cluster_hot_shard":
        return [
            Cell(
                "cluster",
                "cluster",
                ClusterSpec(
                    engine="lsbm",
                    num_shards=4,
                    partitioner="range",
                    read_rate_qps=SATURATING_QPS,
                    verify=True,
                    **common,
                ),
            )
        ]
    raise KeyError(workload)


# ----------------------------------------------------------------------
# Metric tables.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Metric:
    unit: str
    kind: str  # "host" | "simulated"
    better: str  # "higher" | "lower"


#: The end-to-end metrics, the same names on every workload.
END_TO_END: dict[str, Metric] = {
    "setup_s": Metric("s", "host", "lower"),
    "sim_ops_per_s": Metric("1/s", "host", "higher"),
    # The same speed with the wall measured in steps of the calibration
    # loop run beside each cell, not in seconds: steady where the box's
    # own speed drifts, and comparable across boxes.
    "sim_ops_per_mstep": Metric("1/Mstep", "host", "higher"),
    "peak_rss_mb": Metric("MB", "host", "lower"),
    "sim_read_qps": Metric("qps", "simulated", "higher"),
    "sim_read_p50_ms": Metric("virtual_ms", "simulated", "lower"),
    "sim_read_p99_ms": Metric("virtual_ms", "simulated", "lower"),
    "sim_hit_ratio": Metric("ratio", "simulated", "higher"),
    "sim_hit_ratio_p05": Metric("ratio", "simulated", "higher"),
    "sim_write_amp": Metric("KB/KB", "simulated", "lower"),
    "sim_space_amp": Metric("ratio", "simulated", "lower"),
    "sim_stall_frac": Metric("ratio", "simulated", "lower"),
    "failed_share": Metric("ratio", "simulated", "lower"),
    # 1 - failed_share: the same fact in a form that is never 0, which
    # is what BENCHMARK.json can put a relative bound on.
    "sim_served_share": Metric("ratio", "simulated", "higher"),
}

#: Per-layer metrics of the traced run, ``<layer>.<metric>`` -> unit.
#: Layers are ``src/repro`` module names.  Times are host seconds;
#: everything else is the program's own count at the same boundary.
PER_LAYER: dict[str, str] = {
    "workload.calls": "count",
    "workload.self_s": "s",
    "lsm.put.calls": "count",
    "lsm.put.self_s": "s",
    "lsm.get.calls": "count",
    "lsm.get.self_s": "s",
    "lsm.scan.calls": "count",
    "lsm.scan.self_s": "s",
    "lsm.tick.self_s": "s",
    "lsm.compaction.calls": "count",
    "lsm.compaction.self_s": "s",
    "lsm.compaction.merges": "count",
    "lsm.compaction.read_kb": "KB",
    "lsm.compaction.write_kb": "KB",
    "lsm.flushes": "count",
    "lsm.stall_s": "virtual_s",
    "lsm.get.blocks_per_lookup": "blocks/get",
    "lsm.get.tables_per_lookup": "tables/get",
    "lsm.get.bloom_probes_per_lookup": "probes/get",
    "lsm.get.false_positive_blocks_per_lookup": "blocks/get",
    "lsm.scan.pairs_per_scan": "pairs/scan",
    "lsm.scan.tables_per_scan": "tables/scan",
    "core.buffer_served_share": "ratio",
    "core.buffer_mb_mean": "MB",
    "core.buffer_files_appended": "count",
    "core.buffer_files_removed": "count",
    "core.trim_runs": "count",
    "sstable.build.calls": "count",
    "sstable.build.self_s": "s",
    "sstable.build.files": "count",
    "cache.access.calls": "count",
    "cache.access.self_s": "s",
    "cache.hit_ratio": "ratio",
    "cache.insertions": "count",
    "cache.evictions": "count",
    "cache.invalidations": "count",
    "cache.invalidate.calls": "count",
    "cache.invalidate.self_s": "s",
    "storage.calls": "count",
    "storage.self_s": "s",
    "storage.seq_read_kb": "KB",
    "storage.seq_write_kb": "KB",
    "storage.random_read_blocks": "count",
    "storage.seeks": "count",
    "storage.allocations": "count",
    "storage.utilization_mean": "ratio",
    "sim.experiment.setup_s": "s",
    "sim.kernel.ticks": "count",
    "sim.kernel.self_s": "s",
    "sim.driver.ticks": "count",
    "sim.driver.self_s": "s",
    "sim.sweep.to_dict_s": "s",
    "sim.sweep.pickle_s": "s",
    "sim.sweep.from_dict_s": "s",
    "sim.sweep.payload_kb": "KB",
    "sim.sweep.share_of_wall": "ratio",
    "serve.prepare_s": "s",
    "serve.step.calls": "count",
    "serve.step.self_s": "s",
    "serve.arrivals.count": "count",
    "serve.arrivals.gen_s": "s",
    "serve.scheduler.calls": "count",
    "serve.scheduler.self_s": "s",
    "serve.admission.calls": "count",
    "serve.admission.self_s": "s",
    "serve.shed": "count",
    "serve.deferred": "count",
    "serve.max_queue_depth": "count",
    "serve.queue_delay_share": "ratio",
    "serve.read_p99_ms.comfortable": "virtual_ms",
    "serve.read_p99_ms.saturating": "virtual_ms",
    "cluster.prepare_s": "s",
    "cluster.self_s": "s",
    "cluster.route.calls": "count",
    "cluster.route.self_s": "s",
    "cluster.read_imbalance": "ratio",
    "cluster.hottest_shard_read_share": "ratio",
    "check.oracle.calls": "count",
    "check.oracle.self_s": "s",
    "check.read_mismatches": "count",
    "obs.events": "count",
    "obs.snapshot_s": "s",
    "trace.overhead_x": "x",
    "trace.spans_sampled": "count",
    "trace.unattributed_share": "ratio",
    "fidelity.lsbm_hit_ratio_err": "ratio",
    "fidelity.lsbm_qps_err": "ratio",
    "fidelity.lsbm_over_blsm_qps": "ratio",
    "fidelity.lsbm_space_overhead_vs_blsm": "ratio",
}

#: Units of counts and times.  A layer that is not part of a workload was
#: called 0 times and took 0 s there, so the one-run result line may fill
#: these in as 0; an average or a tail of nothing is undefined instead.
ADDITIVE_UNITS = frozenset({"count", "s", "virtual_s", "KB", "MB"})

#: Paper values already tabulated in EXPERIMENTS.md (Figs. 9, 11, 13).
PAPER_POINT_HIT_RATIO = 0.953
PAPER_POINT_QPS = 6899.0
PAPER_SCAN_QPS = 1134.0
