"""Experiment assembly: build an engine stack, preload it, run the driver.

Each of the paper's tests is "pick an engine variant, preload the 20 GB
data set, run the RangeHot workload for 20,000 s while writing at 1,000
OPS".  The declarative core is :func:`execute`, which materializes one
:class:`~repro.sim.spec.ExperimentSpec`; :func:`run_experiment` is a
thin imperative wrapper over it.

Engine variants are declared in :data:`ENGINE_SPECS` — one
:class:`EngineSpec` per variant, naming its constructor and cache wiring
— and :data:`ENGINE_NAMES` is derived from that registry, so the engine
list has exactly one definition (the CLI, the check harness and the
benchmarks all import it from here).
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from functools import partial
from typing import Callable

from repro.cache.db_cache import DBBufferCache
from repro.cache.os_cache import OSBufferCache
from repro.config import SystemConfig
from repro.core.lsbm import LSbMTree
from repro.errors import ConfigError
from repro.lsm.base import LSMEngine
from repro.lsm.blsm import BLSMTree
from repro.lsm.composed import ComposedTree
from repro.lsm.leveldb import LevelDBTree
from repro.lsm.policy import STEPPED_MERGE, CompactionAxes
from repro.lsm.sm_tree import SMTree
from repro.clock import VirtualClock
from repro.obs.trace import TraceRecorder, write_jsonl
from repro.obs.tracing import SpanProfiler
from repro.sim.driver import MixedReadWriteDriver
from repro.sim.metrics import RunResult
from repro.sim.spec import ExperimentSpec
from repro.sstable.entry import Entry
from repro.storage.disk import SimulatedDisk
from repro.substrate import Substrate
from repro.variants.hbase import HBaseStyleStore
from repro.variants.kv_store import KVCachedBLSM, block_cache_blocks
from repro.variants.warmup import WarmupBLSMTree
from repro.workload.ycsb import RangeHotWorkload

#: The dual-cache stacks model the paper's actual memory layout
#: (Section VI-A): 6 GB DB cache plus "the rest memory space is shared by
#: the indices ..., OS buffer cache, and the operating system" — we give
#: the OS page cache a quarter of the DB cache's budget.  DB misses fall
#: through to the OS cache, which also absorbs compaction streams, so
#: invalidated DB blocks sometimes reload cheaply from pages the
#: compaction just wrote.
_DUAL_OS_FRACTION = 0.25


@dataclass(frozen=True)
class EngineSpec:
    """Declarative description of one engine variant.

    ``wiring`` selects the cache stack the substrate is created with:

    * ``"db"``   — a DB block cache sized to ``config.cache_blocks``;
    * ``"os"``   — an OS page cache only (the Fig. 2 configuration);
    * ``"dual"`` — DB cache plus a quarter-budget OS page cache;
    * ``"kv"``   — a DB block cache holding what the K-V row cache leaves
      of the budget (:func:`~repro.variants.kv_store.block_cache_blocks`).

    ``factory`` builds the engine, an
    :class:`~repro.lsm.base.LSMEngine`, from the substrate: the class
    itself for a fixed point, a ``partial`` naming the axes for a
    composed one.

    ``axes`` names the variant's point in the compaction design space.
    Legacy engines are *fixed* points: their ``_do_compactions`` runs
    the point and this field is the one place it is named (``leveldb``
    is the interpreter pinned to its default point, ``sm`` the
    interpreter pinned to :data:`~repro.lsm.policy.STEPPED_MERGE`,
    the one value both this field and the class read); the composed
    variants are built from the axes stated here; ``None``
    means the point is dynamic — the ``design`` engine reads its axes
    from the config's ``compaction_*`` fields at build time.
    """

    name: str
    factory: Callable[[Substrate], LSMEngine]
    wiring: str = "db"
    summary: str = ""
    axes: CompactionAxes | None = None


#: Fixed design-space points of the legacy families (the cache
#: variants — warm-up, K-V cache, dual wiring — share their base
#: engine's point; what differs is the cache stack, not compaction).
_LEVELED_CURSOR = CompactionAxes(
    trigger="size-ratio", layout="leveling", granularity="partial",
    movement="merge",
)
_LEVELED_ADOPTING = CompactionAxes(
    trigger="size-ratio", layout="leveling", granularity="partial",
    movement="lazy-adoption",
)
_FLAT_STORE = CompactionAxes(
    trigger="level-saturation", layout="tiering", granularity="partial",
    movement="merge",
)
#: The composed variants' points: tiering with incremental oldest-pair
#: merges (distinct from the SM-tree's full-level moves) and Dostoevsky
#: style lazy-leveling, each with and without the compaction buffer.
_TIERING = CompactionAxes(
    trigger="size-ratio", layout="tiering", granularity="partial",
    movement="merge",
)
_TIERING_BUFFERED = CompactionAxes(
    trigger="size-ratio", layout="tiering", granularity="partial",
    movement="lazy-adoption",
)
_LAZY_LEVELING = CompactionAxes(
    trigger="size-ratio", layout="lazy-leveling", granularity="full-level",
    movement="merge",
)
_LAZY_LEVELING_BUFFERED = CompactionAxes(
    trigger="size-ratio", layout="lazy-leveling", granularity="full-level",
    movement="lazy-adoption",
)


#: The single source of truth for engine variants.  Order is the
#: presentation order everywhere (CLI listings, conformance sweeps).
ENGINE_SPECS: dict[str, EngineSpec] = {
    spec.name: spec
    for spec in (
        EngineSpec(
            "leveldb",
            LevelDBTree,
            "db",
            "LevelDB-style leveled tree with a DB block cache",
            _LEVELED_CURSOR,
        ),
        EngineSpec(
            "leveldb-oscache",
            LevelDBTree,
            "os",
            "LevelDB on an OS page cache only (Fig. 2 configuration)",
            _LEVELED_CURSOR,
        ),
        EngineSpec(
            "blsm",
            BLSMTree,
            "db",
            "bLSM: gear-scheduled leveled tree",
            _LEVELED_CURSOR,
        ),
        EngineSpec(
            "blsm-dual",
            BLSMTree,
            "dual",
            "bLSM with DB cache + quarter-budget OS page cache",
            _LEVELED_CURSOR,
        ),
        EngineSpec(
            "sm",
            SMTree,
            "db",
            "Stepped-merge tree: lazy multi-table levels",
            STEPPED_MERGE,
        ),
        EngineSpec(
            "lsbm",
            LSbMTree,
            "db",
            "LSbM-tree: bLSM plus the compaction buffer",
            _LEVELED_ADOPTING,
        ),
        EngineSpec(
            "lsbm-dual",
            LSbMTree,
            "dual",
            "LSbM with DB cache + quarter-budget OS page cache",
            _LEVELED_ADOPTING,
        ),
        EngineSpec(
            "blsm+warmup",
            WarmupBLSMTree,
            "db",
            "bLSM with incremental cache warm-up after compactions",
            _LEVELED_CURSOR,
        ),
        EngineSpec(
            "blsm+kvcache",
            KVCachedBLSM,
            "kv",
            "bLSM behind a key-value row cache (half the cache budget)",
            _LEVELED_CURSOR,
        ),
        EngineSpec(
            "hbase",
            # The major-compaction period comes from the config so it is
            # sweepable (``--set major_interval_s=...``); 0 disables.
            lambda substrate: HBaseStyleStore(
                substrate,
                major_interval_s=substrate.config.major_interval_s or None,
            ),
            "db",
            "HBase-style store with periodic major compactions",
            _FLAT_STORE,
        ),
        EngineSpec(
            "hbase-nomajor",
            partial(HBaseStyleStore, major_interval_s=None),
            "db",
            "HBase-style store with major compactions disabled",
            _FLAT_STORE,
        ),
        EngineSpec(
            "design",
            # The dynamic point: axes come from the config's
            # ``compaction_*`` fields, so every axis is sweepable
            # (``--set compaction_layout=tiering,lazy-leveling``).
            ComposedTree,
            "db",
            "Composed engine; axes read from the config's compaction_*",
        ),
        EngineSpec(
            "tiering",
            partial(ComposedTree, axes=_TIERING),
            "db",
            "Size-tiered levels, incremental oldest-pair merges",
            _TIERING,
        ),
        EngineSpec(
            "tiering+buffer",
            partial(ComposedTree, axes=_TIERING_BUFFERED),
            "db",
            "Tiering with merge inputs adopted into a compaction buffer",
            _TIERING_BUFFERED,
        ),
        EngineSpec(
            "lazy-leveling",
            partial(ComposedTree, axes=_LAZY_LEVELING),
            "db",
            "Tiered upper levels over a single-run last level (Dostoevsky)",
            _LAZY_LEVELING,
        ),
        EngineSpec(
            "lazy-leveling+buffer",
            partial(ComposedTree, axes=_LAZY_LEVELING_BUFFERED),
            "db",
            "Lazy-leveling with the LSbM compaction buffer on top",
            _LAZY_LEVELING_BUFFERED,
        ),
    )
}

#: Engine names, in registry order — derived, never listed twice.
ENGINE_NAMES: tuple[str, ...] = tuple(ENGINE_SPECS)


@dataclass
class ExperimentSetup:
    """A fully wired engine stack ready to drive."""

    engine: object
    config: SystemConfig
    clock: VirtualClock
    disk: SimulatedDisk
    db_cache: DBBufferCache | None
    os_cache: OSBufferCache | None
    substrate: Substrate | None = None


def build_engine(name: str, config: SystemConfig) -> ExperimentSetup:
    """Construct one engine variant with its declared cache stack.

    Every variant is wired through one :class:`~repro.substrate.Substrate`
    so its disk and caches publish into the same metrics registry and
    event bus.  The variant's constructor and cache wiring come from its
    :class:`EngineSpec` in :data:`ENGINE_SPECS`.
    """
    spec = ENGINE_SPECS.get(name)
    if spec is None:
        raise ConfigError(
            f"unknown engine {name!r}; choose from {ENGINE_NAMES}"
        )

    db_cache: DBBufferCache | None = None
    os_cache: OSBufferCache | None = None
    if spec.wiring in ("db", "dual"):
        db_cache = DBBufferCache(config.cache_blocks)
    elif spec.wiring == "kv":
        db_cache = DBBufferCache(block_cache_blocks(config))
    if spec.wiring == "os":
        os_cache = OSBufferCache(
            capacity_pages=config.cache_blocks, page_size_kb=config.block_size_kb
        )
    elif spec.wiring == "dual":
        os_cache = OSBufferCache(
            capacity_pages=max(1, int(config.cache_blocks * _DUAL_OS_FRACTION)),
            page_size_kb=config.block_size_kb,
        )

    substrate = Substrate.create(config, db_cache=db_cache, os_cache=os_cache)
    return ExperimentSetup(
        spec.factory(substrate),
        config,
        substrate.clock,
        substrate.disk,
        db_cache,
        os_cache,
        substrate,
    )


def preload(setup: ExperimentSetup) -> None:
    """Load the unique data set into the last level (the paper's DB).

    The paper's writes are all updates of a 20 GB pre-existing unique data
    set ("all inserted data except the first 20GB data are repeated data
    for level 3"); loading it straight into the last level reproduces the
    steady state its tests start from.
    """
    config = setup.config
    entries = [Entry(key, 0) for key in range(config.unique_keys)]
    setup.engine.bulk_load(entries)


def _drive(
    setup: ExperimentSetup,
    duration_s: int | None,
    seed: int,
    scan_mode: bool,
    do_preload: bool,
    profiler: SpanProfiler | None = None,
) -> RunResult:
    """Preload (optionally) and drive one wired stack to a result.

    The result always carries the substrate registry's closing snapshot
    in ``result.metrics``.
    """
    if do_preload:
        preload(setup)
    workload = RangeHotWorkload(setup.config)
    driver = MixedReadWriteDriver(
        setup.engine,
        setup.config,
        setup.clock,
        workload=workload,
        seed=seed,
        scan_mode=scan_mode,
        profiler=profiler,
    )
    # The drive loop allocates heavily (entries, costs, per-tick lists)
    # but creates no reference cycles worth chasing mid-run, so cyclic-GC
    # generation sweeps are pure pause time.  Suspend collection for the
    # run and restore the caller's setting after; allocation totals and
    # results are unaffected (refcounting frees everything promptly).
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        result = driver.run(duration_s)
    finally:
        if was_enabled:
            gc.enable()
    result.config_note = f"scale-adjusted; scan_mode={scan_mode}"
    result.metrics = setup.substrate.registry.snapshot()
    return result


def _finalize_trace(
    setup: ExperimentSetup, engine_name: str, recorder: TraceRecorder
) -> None:
    """Close a recorder with the run's reconciliation footer."""
    stats = setup.engine.stats
    recorder.finalize(
        engine=engine_name,
        live_kb=setup.disk.live_kb,
        live_extents=setup.disk.live_extents,
        compaction_write_kb=stats.compaction_write_kb,
        compaction_read_kb=stats.compaction_read_kb,
        flushes=stats.flushes,
    )


def execute_with_trace(
    spec: ExperimentSpec,
) -> tuple[RunResult, TraceRecorder | None]:
    """Materialize one spec: build, preload, drive; return result + trace.

    A :class:`~repro.obs.trace.TraceRecorder` is attached (before the
    preload, so the file-lifecycle ledger balances) whenever the spec
    asks for profiling or a trace file; a
    :class:`~repro.obs.tracing.SpanProfiler` samples reads when
    ``spec.profile`` is set.  ``spec.trace_path`` additionally writes the
    JSONL trace.
    """
    config = spec.config()
    setup = build_engine(spec.engine, config)
    recorder: TraceRecorder | None = None
    if spec.profile or spec.trace_path is not None:
        recorder = TraceRecorder(setup.clock, setup.substrate.bus)
    profiler: SpanProfiler | None = None
    if spec.profile:
        profiler = SpanProfiler(
            bus=setup.substrate.bus, config=config, sample_every=spec.sample_every
        )
    result = _drive(
        setup,
        spec.duration_s,
        spec.seed,
        spec.scan_mode,
        spec.do_preload,
        profiler=profiler,
    )
    if recorder is not None:
        _finalize_trace(setup, spec.engine, recorder)
        if spec.trace_path is not None:
            write_jsonl(spec.trace_path, recorder.records)
    return result, recorder


def execute(spec: ExperimentSpec) -> RunResult:
    """Materialize one :class:`ExperimentSpec` into its measured result.

    This is the single entry point every runner — the CLI, the sweep
    workers, the benchmarks — funnels through.
    """
    return execute_with_trace(spec)[0]


def run_experiment(
    engine_name: str,
    config: SystemConfig,
    duration_s: int | None = None,
    seed: int = 0,
    scan_mode: bool = False,
    do_preload: bool = True,
    trace_path: str | None = None,
) -> RunResult:
    """Build, preload and drive one engine; returns the measured series.

    Thin wrapper: packages the arguments as an
    :class:`~repro.sim.spec.ExperimentSpec` and calls :func:`execute`.
    With ``trace_path`` every engine event — including the preload's file
    creations, so the ledger reconciles — is recorded and written out as
    JSONL, closed by a ``TraceEnd`` line carrying the final disk state.
    """
    spec = ExperimentSpec.from_config(
        engine_name,
        config,
        duration_s=duration_s,
        seed=seed,
        scan_mode=scan_mode,
        do_preload=do_preload,
        trace_path=trace_path,
    )
    return execute(spec)

