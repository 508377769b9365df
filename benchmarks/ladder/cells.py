"""Running one cell: the timed user path, the set-up path, the traced path.

The *untraced* path is the public entry point a user calls, timed from
outside.  The *traced* path assembles the same cell from the public
pieces, with :class:`~benchmarks.ladder.trace.Tracer` wrappers and an
oracle shadow set over the layer boundaries; its lossless digest must
equal the untraced one, which proves both that the wrappers are
transparent and that the assembled path is the user path.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import pickle
from time import perf_counter

from repro.check.oracle import KVOracle
from repro.cluster.result import ClusterResult
from repro.cluster.run import run_coordinated
from repro.cluster.shard import prepare_shard
from repro.serve.arrivals import generate_arrivals
from repro.serve.service import execute_serve, finalize_serve, prepare_serve
from repro.sim.driver import MixedReadWriteDriver
from repro.sim.experiment import build_engine, execute, preload
from repro.sim.tune import series_floor
from repro.workload.ycsb import RangeHotWorkload

from benchmarks.ladder.env import CalibrationSampler
from benchmarks.ladder.spec import (
    PAPER_POINT_HIT_RATIO,
    PAPER_POINT_QPS,
    PAPER_SCAN_QPS,
    Cell,
)
from benchmarks.ladder.trace import Tracer

ENTRY_POINTS = {
    "closed": execute,
    "serve": execute_serve,
    "cluster": run_coordinated,
}


def sim_digest(result) -> str:
    """sha256 of the result's lossless ``to_dict()``."""
    payload = json.dumps(
        result.to_dict(), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode()).hexdigest()


# ----------------------------------------------------------------------
# The two untraced paths: what a user runs, and what set-up alone costs.
# ----------------------------------------------------------------------
def run_untraced(cell: Cell) -> tuple[object, float, float]:
    """Time the cell's public entry point.

    Returns ``(result, wall seconds, calibration steps per second)``.  The
    calibration bursts sampled inside the timed region are not part of
    the wall returned.
    """
    gc.collect()
    with CalibrationSampler() as sampler:
        started = perf_counter()
        result = ENTRY_POINTS[cell.kind](cell.spec)
        # Read inside the block: a burst after this is not in ``elapsed``.
        wall = perf_counter() - started - sampler.inside_s
    return result, wall, sampler.steps_per_s


def time_set_up(cell: Cell) -> float:
    """Wall seconds of the cell's public set-up functions, run once."""
    spec = cell.spec
    gc.collect()
    started = perf_counter()
    if cell.kind == "closed":
        preload(build_engine(spec.engine, spec.config()))
    elif cell.kind == "serve":
        prepare_serve(spec)
    else:
        for shard in range(spec.num_shards):
            prepare_shard(spec, shard)
    return perf_counter() - started


# ----------------------------------------------------------------------
# What a finished cell says about the modelled system.
# ----------------------------------------------------------------------
def summarize(cell: Cell, result) -> dict:
    """The simulated quantities and counts the end-to-end metrics use."""
    config = cell.spec.config()
    # The per-engine results: a cluster has one per shard.
    parts = result.shards if cell.kind == "cluster" else [result]
    if cell.kind == "closed":
        lead, qps = result, result.mean_throughput()
        latencies = result.read_latencies_s
    elif cell.kind == "serve":
        lead, qps = result, result.goodput_qps()
        latencies = result.class_stats["readers"].latency_s
    else:
        lead, qps = result.shards[result.hottest_shard()], result.goodput_qps()
        latencies = lead.read_latencies_s
    classes = [
        stats
        for part in parts
        for stats in getattr(part, "class_stats", {}).values()
    ]
    reads = sum(part.reads_completed for part in parts)
    writes = sum(part.writes_applied for part in parts)
    verify = getattr(result, "verify", None) or {}
    return {
        "reads": reads,
        "writes": writes,
        "duration_s": lead.duration_s,
        "qps": qps,
        "p50_ms": latencies.percentile(50) * 1000.0,
        "p99_ms": latencies.percentile(99) * 1000.0,
        "latency_samples": latencies.count,
        "hit_ratio": lead.mean_hit_ratio(),
        "hit_ratio_p05": series_floor(
            lead.hit_ratio, 5.0, skip=lead.warmup_samples()
        ),
        "background_write_kb": sum(
            totals["write_kb"]
            for part in parts
            for cause, totals in part.bandwidth_kb_by_cause.items()
            if cause == "flush" or cause.startswith("compaction")
        ),
        "user_write_kb": writes * config.pair_size_kb,
        "db_mb": sum(part.mean_db_size_mb() for part in parts),
        "unique_mb": config.unique_keys
        * config.pair_size_kb
        * config.ops_scale
        / 1024.0,
        "stall_frac": sum(part.stall_seconds for part in parts)
        / (lead.duration_s * len(parts)),
        # Closed loop: every operation issued is served.
        "arrived": sum(s.arrived for s in classes) or reads + writes,
        "refused": sum(s.shed for s in classes),
        "checked": verify.get("reads_checked", 0),
        "mismatched": verify.get("read_mismatches", 0),
    }


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-6)


# ----------------------------------------------------------------------
# The traced path.
# ----------------------------------------------------------------------
class Shadow:
    """A KVOracle kept in lockstep with the wrapped engines.

    It also sums the ``ReadCost`` of every lookup it checks, which is
    where the per-lookup layer metrics come from.  One instance serves
    every cell of a workload; each cell starts from a fresh oracle.
    """

    def __init__(self) -> None:
        self.oracle = KVOracle()
        self.writes = 0
        self.checked = 0
        self.mismatched = 0
        self.lookups = 0
        self.blocks = 0
        self.tables = 0
        self.bloom_probes = 0
        self.false_positive_blocks = 0
        self.scans = 0
        self.scan_pairs = 0
        self.scan_tables = 0

    def preload(self, unique_keys: int) -> None:
        self.oracle = KVOracle()
        for key in range(unique_keys):
            self.oracle.put(key, 0)

    def wrote(self, key: int, seq: int) -> None:
        self.oracle.put(key, seq)
        self.writes += 1

    def read(self, key: int, got) -> None:
        cost = got.cost
        self.lookups += 1
        self.blocks += cost.block_reads
        self.tables += cost.tables_checked
        self.bloom_probes += cost.bloom_probes
        self.false_positive_blocks += cost.false_positive_blocks
        found, value = self.oracle.get(key)
        self.checked += 1
        if got.found != found or (found and got.value != value):
            self.mismatched += 1

    def scanned(self, low: int, high: int, scan) -> None:
        self.scans += 1
        self.scan_pairs += len(scan.entries)
        self.scan_tables += scan.cost.tables_checked
        get = self.oracle.get
        expected = [
            (key, value)
            for key in range(low, high + 1)
            for found, value in (get(key),)
            if found
        ]
        self.checked += 1
        if [(e.key, e.value()) for e in scan.entries] != expected:
            self.mismatched += 1

    # The serve layer's DispatchObserver protocol.
    def on_write(self, request, seq: int) -> None:
        self.wrote(request.key, seq)

    def on_read(self, request, got) -> None:
        self.read(request.key, got)


_DISK_CALLS = (
    "allocate",
    "free",
    "background_read",
    "background_write",
    "note_temp_space",
    "foreground_random_read",
    "foreground_sequential_read",
    "utilization",
)


class TracedPass:
    """One traced pass over a workload's cells, and the ledgers it read."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.shadow = Shadow()
        #: Sums of the program's own ledgers over every engine stack.
        self.ledger: dict[str, float] = {}
        #: Per-stack means that are averaged, not summed.
        self.buffer_mb: list[float] = []
        self.utilization: list[float] = []
        self.files_built = 0
        self.bandwidth_reconciles = True
        self.arrivals = 0
        self.arrivals_gen_s = 0.0
        self.transport = {"to_dict_s": 0.0, "pickle_s": 0.0,
                          "from_dict_s": 0.0, "payload_kb": 0.0}
        # The serve layer calls the shadow through its observer hook.
        for attr in ("on_write", "on_read"):
            self.tracer.wrap(self.shadow, attr, "check.oracle")

    # -- wrapping ------------------------------------------------------
    def _wrap_stack(self, setup) -> None:
        """Timing wrappers over one engine stack's layer boundaries."""
        tracer = self.tracer
        engine = setup.engine
        for attr in ("put", "get", "scan", "tick"):
            tracer.wrap(engine, attr, f"lsm.{attr}")
        tracer.wrap(engine, "run_compactions", "lsm.compaction")
        builder = engine.builder
        inner_build = builder.build

        def build(*args, **kwargs):
            files = inner_build(*args, **kwargs)
            self.files_built += len(files)
            return files

        builder.build = tracer.timed(build, "sstable.build")
        tracer.wrap(builder, "build_grouped", "sstable.build")
        cache = setup.db_cache
        if cache is not None:
            for attr in ("access", "access_many", "insert"):
                tracer.wrap(cache, attr, "cache.access")
            tracer.wrap(cache, "invalidate_file", "cache.invalidate")
        for attr in _DISK_CALLS:
            tracer.wrap(setup.disk, attr, f"storage.{attr}")
        tracer.wrap(setup.substrate.registry, "snapshot", "obs.snapshot")

    def _shadow_closed(self, engine) -> None:
        """Feed the oracle from a closed-loop engine's wrapped calls."""
        tracer, shadow = self.tracer, self.shadow
        put, get, scan = engine.put, engine.get, engine.scan
        wrote = tracer.timed(shadow.wrote, "check.oracle")
        read = tracer.timed(shadow.read, "check.oracle")
        scanned = tracer.timed(shadow.scanned, "check.oracle")

        def shadowed_put(key):
            seq = put(key)
            wrote(key, seq)
            return seq

        def shadowed_get(key):
            got = get(key)
            read(key, got)
            return got

        def shadowed_scan(low, high):
            result = scan(low, high)
            scanned(low, high, result)
            return result

        engine.put, engine.get, engine.scan = (
            shadowed_put, shadowed_get, shadowed_scan,
        )

    # -- ledgers -------------------------------------------------------
    def _add(self, name: str, value: float) -> None:
        self.ledger[name] = self.ledger.get(name, 0) + value

    def _read_ledgers(self, setup, result, disk_before) -> None:
        """Read one finished stack's own counters (cumulative since build)."""
        engine = setup.engine
        stats = engine.stats
        for field in ("gets", "flushes", "compactions", "compaction_read_kb",
                      "compaction_write_kb", "stall_seconds"):
            self._add(f"engine.{field}", getattr(stats, field))
        lsbm = getattr(engine, "lsbm_stats", None)
        if lsbm is not None:
            for field in ("buffer_files_appended", "buffer_files_removed",
                          "trim_runs", "reads_served_by_buffer"):
                self._add(f"lsbm.{field}", getattr(lsbm, field))
            self._add("lsbm.gets", stats.gets)
            self.buffer_mb.append(result.buffer_size_mb.mean())
        if setup.db_cache is not None:
            cache = setup.db_cache.stats
            for field in ("hits", "misses", "insertions", "evictions",
                          "invalidations"):
                self._add(f"cache.{field}", getattr(cache, field))
        disk = setup.disk.stats
        for field in ("seq_read_kb", "seq_write_kb", "random_read_blocks",
                      "seeks", "allocations"):
            self._add(f"disk.{field}", getattr(disk, field))
        self.utilization.append(result.disk_utilization.mean())
        self._add("events", sum(result.event_counts.values()))
        # The run window's per-cause ledger against the disk's own totals.
        window = result.bandwidth_kb_by_cause.values()
        for kind in ("read", "write"):
            moved = getattr(disk, f"seq_{kind}_kb") - getattr(
                disk_before, f"seq_{kind}_kb"
            )
            if not _close(sum(t[f"{kind}_kb"] for t in window), moved):
                self.bandwidth_reconciles = False

    def _time_transport(self, result) -> None:
        """Sweep transport, timed on the run's own result object."""
        started = perf_counter()
        payload = result.to_dict()
        t1 = perf_counter()
        blob = pickle.dumps(payload)
        payload = pickle.loads(blob)
        t2 = perf_counter()
        type(result).from_dict(payload)
        t3 = perf_counter()
        self.transport["to_dict_s"] += t1 - started
        self.transport["pickle_s"] += t2 - t1
        self.transport["from_dict_s"] += t3 - t2
        self.transport["payload_kb"] += len(blob) / 1024.0

    def _time_arrivals(self, spec) -> None:
        """One direct call of the public arrival generator for ``spec``."""
        config = spec.config()
        started = perf_counter()
        stream = generate_arrivals(
            spec.client_classes(config),
            config,
            RangeHotWorkload(config),
            spec.duration_s,
            spec.seed,
        )
        self.arrivals_gen_s += perf_counter() - started
        self.arrivals += len(stream)

    # -- the three assemblies -----------------------------------------
    def run(self, cell: Cell) -> tuple[object, float]:
        """``(result, wall seconds)`` of the cell, assembled and traced."""
        self.tracer.start_cell(cell.name)
        gc.collect()
        started = perf_counter()
        result = getattr(self, f"_run_{cell.kind}")(cell.spec)
        wall = perf_counter() - started
        self._time_transport(result)
        if cell.kind == "serve":
            self._time_arrivals(cell.spec)
        elif cell.kind == "cluster":
            self._time_arrivals(cell.spec.service_spec())
        return result, wall

    def _run_closed(self, spec):
        tracer = self.tracer
        config = spec.config()
        setup = tracer.call(
            "sim.experiment.setup", build_engine, spec.engine, config
        )
        self._wrap_stack(setup)
        tracer.call("sim.experiment.setup", preload, setup)
        tracer.call("check.oracle", self.shadow.preload, config.unique_keys)
        self._shadow_closed(setup.engine)
        workload = RangeHotWorkload(config)
        for attr in ("next_write_key", "next_read_key", "next_scan_range"):
            tracer.wrap(workload, attr, f"workload.{attr}")
        driver = MixedReadWriteDriver(
            setup.engine,
            config,
            setup.clock,
            workload=workload,
            seed=spec.seed,
            scan_mode=spec.scan_mode,
        )
        # ReadKernel has __slots__, so the kernel is timed one frame up.
        tracer.wrap(driver, "_apply_reads", "sim.kernel.run_tick")
        tracer.wrap(driver, "run", "sim.driver.run")
        tracer.tick_on(setup.clock, "advance")
        disk_before = setup.disk.stats.snapshot()
        # What repro.sim.experiment._drive does around driver.run.
        gc.disable()
        try:
            result = driver.run(spec.duration_s)
        finally:
            gc.enable()
        result.config_note = f"scale-adjusted; scan_mode={spec.scan_mode}"
        result.metrics = setup.substrate.registry.snapshot()
        self._read_ledgers(setup, result, disk_before)
        self._add("driver.ticks", result.duration_s)
        return result

    def _prepare(self, prepare, spec, *args):
        """A serve session with the shadow as observer, then wrapped."""
        tracer = self.tracer
        session = prepare(spec, *args, observer=self.shadow)
        self._wrap_stack(session.setup)
        simulator = session.simulator
        tracer.wrap(simulator, "step", "serve.step")
        for attr in ("offer", "pop"):
            tracer.wrap(simulator.scheduler, attr, "serve.scheduler")
        tracer.wrap(simulator.admission, "decide", "serve.admission")
        return session

    def _finish(self, session, disk_before):
        result = finalize_serve(session, session.simulator.finish())
        self._read_ledgers(session.setup, result, disk_before)
        for stats in result.class_stats.values():
            self._add("serve.shed", stats.shed)
            self._add("serve.deferred", stats.deferred)
            queued = stats.queue_delay_s.samples
            total = stats.latency_s.samples
            if total:
                self._add("serve.queue_delay_s",
                          sum(queued) / len(queued) * stats.completed)
                self._add("serve.latency_s",
                          sum(total) / len(total) * stats.completed)
        self.ledger["serve.max_queue_depth"] = max(
            self.ledger.get("serve.max_queue_depth", 0),
            result.max_queue_depth,
        )
        return result

    def _run_serve(self, spec):
        tracer, shadow = self.tracer, self.shadow
        tracer.call("check.oracle", shadow.preload, spec.config().unique_keys)
        session = tracer.call("serve.prepare", self._prepare,
                              prepare_serve, spec)
        tracer.tick_on(session.setup.clock, "advance")
        disk_before = session.setup.disk.stats.snapshot()
        simulator = session.simulator
        simulator.begin(session.duration_s)
        for _ in range(session.duration_s):
            simulator.step()
        return self._finish(session, disk_before)

    def _run_cluster(self, spec):
        tracer, shadow = self.tracer, self.shadow
        config = spec.config()
        tracer.call("check.oracle", shadow.preload, config.unique_keys)
        # Routing is timed on a copy, so the result carries a clean spec.
        routed = spec.replace()
        inner_router = routed.request_router

        def request_router(config):
            return tracer.timed(inner_router(config), "cluster.route")

        object.__setattr__(routed, "request_router", request_router)

        def prepare_all():
            return [
                self._prepare(prepare_shard, routed, shard)
                for shard in range(spec.num_shards)
            ]

        sessions = tracer.call("cluster.prepare", prepare_all)
        before = [s.setup.disk.stats.snapshot() for s in sessions]
        duration = sessions[0].duration_s
        for session in sessions:
            session.simulator.begin(duration)

        def lockstep():
            for _ in range(duration):
                for session in sessions:
                    session.simulator.step()
                tracer.end_tick()

        tracer.call("cluster.run", lockstep)
        shards = [
            self._finish(session, disk_before)
            for session, disk_before in zip(sessions, before)
        ]
        result = ClusterResult(
            spec=spec,
            shards=shards,
            verify={
                "writes_recorded": shadow.writes,
                "reads_checked": shadow.checked,
                "read_mismatches": shadow.mismatched,
            },
        )
        self.ledger["cluster.read_imbalance"] = result.read_imbalance()
        self.ledger["cluster.hottest_shard_read_share"] = (
            shards[result.hottest_shard()].reads_completed
            / result.reads_completed
        )
        return result

    # -- read-out ------------------------------------------------------
    def layer_self_s(self) -> dict[str, float]:
        """Self seconds per layer: span names are ``<layer>.<function>``."""
        layers: dict[str, float] = {}
        for name, (_, _, self_s) in self.tracer.totals.items():
            layer = name.rsplit(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + self_s
        return layers

    def per_layer(
        self,
        workload: str,
        summaries: dict[str, dict],
        untraced_wall: float,
        traced_wall: float,
    ) -> dict[str, float]:
        """Every per-layer metric this workload defines, by name.

        A metric whose layer did not exist in the workload, or whose
        denominator is zero, is left out rather than reported as 0.
        """
        tracer, shadow, ledger = self.tracer, self.shadow, self.ledger
        out: dict[str, float] = {}

        def spans(metric: str, prefix: str, calls: str | None = "calls"):
            names = [
                n for n in tracer.totals
                if n == prefix or n.startswith(prefix + ".")
            ]
            if names:
                if calls:
                    out[f"{metric}.{calls}"] = tracer.calls(*names)
                out[f"{metric}.self_s"] = tracer.self_s(*names)

        def ratio(metric: str, top: float, bottom: float):
            if bottom:
                out[metric] = top / bottom

        def total(metric: str, span: str):
            if span in tracer.totals:
                out[metric] = tracer.total_s(span)

        spans("workload", "workload")
        for call in ("put", "get", "scan"):
            spans(f"lsm.{call}", f"lsm.{call}")
        spans("lsm.tick", "lsm.tick", calls=None)
        spans("lsm.compaction", "lsm.compaction")
        out["lsm.compaction.merges"] = ledger["engine.compactions"]
        out["lsm.compaction.read_kb"] = ledger["engine.compaction_read_kb"]
        out["lsm.compaction.write_kb"] = ledger["engine.compaction_write_kb"]
        out["lsm.flushes"] = ledger["engine.flushes"]
        out["lsm.stall_s"] = ledger["engine.stall_seconds"]
        ratio("lsm.get.blocks_per_lookup", shadow.blocks, shadow.lookups)
        ratio("lsm.get.tables_per_lookup", shadow.tables, shadow.lookups)
        ratio("lsm.get.bloom_probes_per_lookup",
              shadow.bloom_probes, shadow.lookups)
        ratio("lsm.get.false_positive_blocks_per_lookup",
              shadow.false_positive_blocks, shadow.lookups)
        ratio("lsm.scan.pairs_per_scan", shadow.scan_pairs, shadow.scans)
        ratio("lsm.scan.tables_per_scan", shadow.scan_tables, shadow.scans)
        if self.buffer_mb:
            ratio("core.buffer_served_share",
                  ledger["lsbm.reads_served_by_buffer"], ledger["lsbm.gets"])
            out["core.buffer_mb_mean"] = sum(self.buffer_mb) / len(
                self.buffer_mb
            )
            for field in ("buffer_files_appended", "buffer_files_removed",
                          "trim_runs"):
                out[f"core.{field}"] = ledger[f"lsbm.{field}"]
        spans("sstable.build", "sstable.build")
        out["sstable.build.files"] = self.files_built
        spans("cache.access", "cache.access")
        spans("cache.invalidate", "cache.invalidate")
        if "cache.hits" in ledger:
            ratio("cache.hit_ratio", ledger["cache.hits"],
                  ledger["cache.hits"] + ledger["cache.misses"])
            for field in ("insertions", "evictions", "invalidations"):
                out[f"cache.{field}"] = ledger[f"cache.{field}"]
        spans("storage", "storage")
        for field in ("seq_read_kb", "seq_write_kb", "random_read_blocks",
                      "seeks", "allocations"):
            out[f"storage.{field}"] = ledger[f"disk.{field}"]
        out["storage.utilization_mean"] = sum(self.utilization) / len(
            self.utilization
        )
        total("sim.experiment.setup_s", "sim.experiment.setup")
        spans("sim.kernel", "sim.kernel", calls="ticks")
        spans("sim.driver", "sim.driver", calls=None)
        if "driver.ticks" in ledger:
            out["sim.driver.ticks"] = ledger["driver.ticks"]
        for name, value in self.transport.items():
            out[f"sim.sweep.{name}"] = value
        out["sim.sweep.share_of_wall"] = (
            sum(out[f"sim.sweep.{n}"]
                for n in ("to_dict_s", "pickle_s", "from_dict_s"))
            / untraced_wall
        )
        total("serve.prepare_s", "serve.prepare")
        spans("serve.step", "serve.step")
        if self.arrivals:
            out["serve.arrivals.count"] = self.arrivals
            out["serve.arrivals.gen_s"] = self.arrivals_gen_s
        spans("serve.scheduler", "serve.scheduler")
        spans("serve.admission", "serve.admission")
        if "serve.max_queue_depth" in ledger:
            out["serve.shed"] = ledger["serve.shed"]
            out["serve.deferred"] = ledger["serve.deferred"]
            out["serve.max_queue_depth"] = ledger["serve.max_queue_depth"]
            ratio("serve.queue_delay_share",
                  ledger["serve.queue_delay_s"], ledger["serve.latency_s"])
        for rate in ("comfortable", "saturating"):
            if rate in summaries:
                out[f"serve.read_p99_ms.{rate}"] = summaries[rate]["p99_ms"]
        total("cluster.prepare_s", "cluster.prepare")
        if "cluster.run" in tracer.totals:
            out["cluster.self_s"] = tracer.self_s("cluster.run")
        spans("cluster.route", "cluster.route")
        for name in ("cluster.read_imbalance",
                     "cluster.hottest_shard_read_share"):
            if name in ledger:
                out[name] = ledger[name]
        spans("check.oracle", "check.oracle")
        out["check.read_mismatches"] = shadow.mismatched
        out["obs.events"] = ledger["events"]
        total("obs.snapshot_s", "obs.snapshot")
        out["trace.overhead_x"] = traced_wall / untraced_wall
        out["trace.spans_sampled"] = len(tracer.spans)
        out["trace.unattributed_share"] = 1.0 - tracer.root_s / traced_wall
        lsbm, blsm = summaries.get("lsbm"), summaries.get("blsm")
        if workload == "fig8_point":
            out["fidelity.lsbm_hit_ratio_err"] = (
                lsbm["hit_ratio"] / PAPER_POINT_HIT_RATIO - 1.0
            )
            out["fidelity.lsbm_qps_err"] = lsbm["qps"] / PAPER_POINT_QPS - 1.0
            out["fidelity.lsbm_over_blsm_qps"] = lsbm["qps"] / blsm["qps"]
            out["fidelity.lsbm_space_overhead_vs_blsm"] = (
                lsbm["db_mb"] / blsm["db_mb"] - 1.0
            )
        elif workload == "fig10_scan":
            out["fidelity.lsbm_qps_err"] = lsbm["qps"] / PAPER_SCAN_QPS - 1.0
        return out
