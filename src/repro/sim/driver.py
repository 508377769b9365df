"""The mixed read/write simulation driver.

Reproduces the paper's measurement loop (Section VI-B): one thread writes
at a fixed rate (1,000 OPS) while eight reader threads issue point reads
or range queries as fast as the system serves them, for 20,000 seconds,
with per-second statistics logged.

Here one virtual second is one driver tick:

1. apply this second's share of paced writes (a fractional-credit
   accumulator keeps the long-run rate exact);
2. let the engine run its compaction work and housekeeping (``tick``);
3. read the disk's background utilization for this second — compaction
   traffic slows foreground I/O through the queueing factor;
4. spend ``read_threads`` thread-seconds issuing reads, pricing each one
   from its :class:`~repro.lsm.base.ReadCost` via
   :class:`~repro.storage.iomodel.ReadPricer`
   (each simulated read stands for ``ops_scale`` real reads, so reported
   throughput is paper-comparable);
5. sample the per-second metrics.
"""

from __future__ import annotations

import random

from repro.cache.stats import CacheStats
from repro.config import SystemConfig
from repro.errors import ConfigError
from repro.clock import VirtualClock
from repro.obs.events import EventTally
from repro.obs.tracing import NULL_PROFILER, SpanProfiler
from repro.sim.kernel import MAX_READS_PER_TICK, ReadKernel
from repro.sim.metrics import RunResult, TimeSeries
from repro.storage.iomodel import ReadPricer
from repro.workload.ycsb import RangeHotWorkload

#: Hit-ratio points are computed over windows of this many ticks so each
#: point aggregates enough reads to be a meaningful ratio (a per-tick
#: ratio over a handful of reads is dominated by sampling noise and,
#: averaged, biased low: miss ticks complete few reads).  Shared by the
#: YCSB driver and the serve loop.
HIT_RATIO_WINDOW_S = 20


class MixedReadWriteDriver:
    """Runs one engine under the paper's mixed read/write measurement."""

    def __init__(
        self,
        engine,
        config: SystemConfig,
        clock: VirtualClock,
        workload: RangeHotWorkload | None = None,
        seed: int = 0,
        scan_mode: bool = False,
        metric_cache=None,
        profiler: SpanProfiler | None = None,
        kernel: str = "batched",
        batch_size: int | None = None,
    ) -> None:
        """``scan_mode`` switches readers from point reads (Fig. 8/9) to
        the paper's 100 KB range queries (Fig. 10/11).  ``metric_cache``
        is the cache whose hit ratio forms the reported series; defaults
        to the engine's own :attr:`~repro.lsm.base.LSMEngine.metric_cache`
        choice (DB cache, falling back to the OS cache).  ``profiler``
        receives every completed read for span sampling; it defaults to
        the shared disabled :data:`~repro.obs.tracing.NULL_PROFILER`, whose
        hook costs one attribute check.  ``kernel`` selects the read-loop
        implementation: ``"batched"`` (default) runs the tick through
        :class:`~repro.sim.kernel.ReadKernel`; ``"scalar"`` keeps the
        original per-op chain as the executable reference the
        differential tests compare against.  ``batch_size`` tunes the
        batched kernel's flush granularity (results are identical for
        any value)."""
        self.engine = engine
        self.config = config
        self.clock = clock
        self.workload = workload or RangeHotWorkload(config)
        self.rng = random.Random(seed)
        self.scan_mode = scan_mode
        self.metric_cache = (
            metric_cache if metric_cache is not None else engine.metric_cache
        )
        self.profiler = profiler if profiler is not None else NULL_PROFILER
        self.pricer = ReadPricer(config)
        if kernel == "batched":
            kernel_args = {} if batch_size is None else {"batch_size": batch_size}
            self._kernel: ReadKernel | None = ReadKernel(
                engine, self.workload, self.pricer, scan_mode, **kernel_args
            )
        elif kernel == "scalar":
            self._kernel = None
        else:
            raise ConfigError(f"unknown read kernel {kernel!r}")
        #: Counts every event the engine publishes while this driver owns
        #: it; each run reports the delta over its own window.
        self.event_tally = EventTally(engine.bus)
        self._write_credit = 0.0
        self._read_debt = 0.0
        # Flat per-cause cumulative KB at the last bandwidth sample; kept
        # as two plain dicts so the per-tick sampling path reads the
        # disk's totals directly instead of snapshotting nested dicts.
        self._bw_last_read: dict[str, float] = {}
        self._bw_last_write: dict[str, float] = {}
        self._bw_causes: list[str] = []
        self._bw_cause_sizes: tuple[int, int] = (-1, -1)
        self._bw_lr: list[float] = []
        self._bw_lw: list[float] = []
        self._bw_series: list[TimeSeries] = []
        self._bw_appends: list = []
        self._sample_appends: tuple = ()
        self._bw_last_tick = 0
        self._ops_scale = config.ops_scale
        self._stall_last = 0.0
        self._last_cache_stats: CacheStats | None = None
        self._last_hit_sample_tick: int | None = None

    # ------------------------------------------------------------------
    # The run loop.
    # ------------------------------------------------------------------
    def run(self, duration_s: int | None = None, sample_every: int = 1) -> RunResult:
        """Drive the engine for ``duration_s`` virtual seconds."""
        duration = duration_s if duration_s is not None else self.config.duration_s
        result = RunResult(engine=self.engine.name, duration_s=duration)
        events_before = dict(self.event_tally.counts)
        bw_baseline = self._snapshot_cause_totals()
        self._bw_last_read = {
            cause: kinds["read_kb"] for cause, kinds in bw_baseline.items()
        }
        self._bw_last_write = {
            cause: kinds["write_kb"] for cause, kinds in bw_baseline.items()
        }
        # Drop the cause-aligned sampling slots: the first _sample of
        # this run rebuilds them from the freshly seeded dicts above.
        self._bw_cause_sizes = (-1, -1)
        self._bw_causes = []
        self._bw_lr = []
        self._bw_lw = []
        self._bw_series = []
        self._bw_appends = []
        self._bw_last_tick = self.clock.now
        stall_baseline = self.engine.stats.stall_seconds
        self._stall_last = stall_baseline
        # Prebound per-tick series appends: ``result`` is fixed for the
        # whole run, so _sample pays one tuple unpack instead of three
        # attribute lookups per series per tick.
        self._sample_appends = (
            result.throughput_qps.times.append,
            result.throughput_qps.values.append,
            result.cache_usage.times.append,
            result.cache_usage.values.append,
            result.db_size_mb.times.append,
            result.db_size_mb.values.append,
            result.disk_utilization.times.append,
            result.disk_utilization.values.append,
            result.stall.times.append,
            result.stall.values.append,
            result.buffer_size_mb.times.append,
            result.buffer_size_mb.values.append,
        )
        bus = self.engine.bus
        # Tally-only buses count events immediately and never construct
        # them, so the per-tick buffer bracket would only shuttle an
        # always-empty list; skip it for the whole run (subscriptions
        # cannot change mid-drive).
        counting_only = bus.counting_only
        for _ in range(duration):
            now = self.clock.now
            # When every subscriber tolerates end-of-tick delivery the
            # tick's events go out in one batched flush; otherwise the
            # bus stays synchronous and this is a no-op pair.
            buffering = False if counting_only else bus.begin_buffer()
            try:
                self._apply_writes(result)
                self.engine.tick(now)
                utilization = self.engine.disk.utilization()
                reads = self._apply_reads(utilization, result)
                if now % sample_every == 0:
                    self._sample(now, reads, utilization, result)
            finally:
                if buffering:
                    bus.flush_buffer()
            self.clock.advance(1)
        result.event_counts = {
            name: count - events_before.get(name, 0)
            for name, count in self.event_tally.counts.items()
            if count - events_before.get(name, 0)
        }
        result.bandwidth_kb_by_cause = self._cause_window(bw_baseline)
        result.stall_seconds = self.engine.stats.stall_seconds - stall_baseline
        return result

    # ------------------------------------------------------------------
    # Per-cause bandwidth bookkeeping.
    # ------------------------------------------------------------------
    def _snapshot_cause_totals(self) -> dict[str, dict[str, float]]:
        return {
            cause: dict(kinds)
            for cause, kinds in self.engine.disk.cause_totals().items()
        }

    def _cause_window(
        self, baseline: dict[str, dict[str, float]]
    ) -> dict[str, dict[str, float]]:
        """Per-cause read/write KB accumulated since ``baseline``."""
        window: dict[str, dict[str, float]] = {}
        for cause, kinds in self._snapshot_cause_totals().items():
            before = baseline.get(cause, {"read_kb": 0.0, "write_kb": 0.0})
            window[cause] = {
                "read_kb": kinds["read_kb"] - before["read_kb"],
                "write_kb": kinds["write_kb"] - before["write_kb"],
            }
        return window

    def _apply_writes(self, result: RunResult) -> None:
        self._write_credit += self.config.write_rate_pairs_per_s
        count = int(self._write_credit)
        self._write_credit -= count
        for _ in range(count):
            self.engine.put(self.workload.next_write_key(self.rng))
            result.writes_applied += 1

    def _apply_reads(self, utilization: float, result: RunResult) -> int:
        # A read that started near the end of a second keeps its threads
        # busy into the next one; the debt carries over so thread-time is
        # conserved over the run (threads blocked on a long disk read are
        # simply unavailable).
        budget = float(self.config.read_threads) - self._read_debt
        if self._kernel is not None:
            reads, budget = self._kernel.run_tick(
                self.rng, budget, utilization, result, self.profiler
            )
        else:
            reads, budget = self._apply_reads_scalar(budget, utilization, result)
        self._read_debt = -budget if budget < 0.0 else 0.0
        result.reads_completed += reads
        return reads

    def _apply_reads_scalar(
        self, budget: float, utilization: float, result: RunResult
    ) -> tuple[int, float]:
        """The original per-op read chain.

        Kept as the executable reference the batched kernel is proven
        against: the differential tests run every pinned seed through
        both paths and require bit-identical results.
        """
        reads = 0
        while budget > 0.0 and reads < MAX_READS_PER_TICK:
            if self.scan_mode:
                low, high = self.workload.next_scan_range(self.rng)
                scan = self.engine.scan(low, high)
                cost, pairs = scan.cost, len(scan.entries)
            else:
                key = self.workload.next_read_key(self.rng)
                got = self.engine.get(key)
                cost, pairs = got.cost, 0
            priced = self.pricer.price(cost, pairs, utilization, self.scan_mode)
            self.profiler.record_read(cost, utilization, pairs, self.scan_mode)
            budget -= priced
            result.read_latencies_s.append(priced / self.config.ops_scale)
            reads += 1
        return reads, budget

    def _sample(
        self, now: int, reads: int, utilization: float, result: RunResult
    ) -> None:
        # Runs once per tick: series appends were prebound at run start
        # (the method-call form is TimeSeries.add) and constants are
        # prebound.
        ops_scale = self._ops_scale
        (
            tp_time,
            tp_value,
            cu_time,
            cu_value,
            db_time,
            db_value,
            du_time,
            du_value,
            st_time,
            st_value,
            bf_time,
            bf_value,
        ) = self._sample_appends
        tp_time(now)
        tp_value(reads * ops_scale)
        if self.metric_cache is not None:
            stats = self.metric_cache.stats
            due = (
                self._last_hit_sample_tick is None
                or now - self._last_hit_sample_tick >= HIT_RATIO_WINDOW_S
            )
            if due:
                if self._last_cache_stats is None:
                    ratio = stats.hit_ratio
                else:
                    ratio = stats.interval_hit_ratio(self._last_cache_stats)
                self._last_cache_stats = stats.snapshot()
                self._last_hit_sample_tick = now
                result.hit_ratio.add(now, ratio)
            cu_time(now)
            cu_value(self.metric_cache.usage)
        disk = self.engine.disk
        size_kb = disk.live_kb + disk.tick_temp_space_kb()
        db_time(now)
        db_value(size_kb * ops_scale / 1024.0)
        du_time(now)
        du_value(utilization)
        stall_total = self.engine.stats.stall_seconds
        st_time(now)
        st_value(stall_total - self._stall_last)
        self._stall_last = stall_total
        buffer_kb = self.engine.compaction_buffer_kb
        if buffer_kb is not None:
            bf_time(now)
            bf_value(buffer_kb * ops_scale / 1024.0)
        # Per-cause disk bandwidth: combined read+write KB/s since the
        # previous sample, in the same simulated-KB units as DiskStats.
        # Reads the disk's cumulative dicts directly — the expression
        # order matches the old nested-snapshot arithmetic exactly, so
        # the series values are unchanged.  The cause sets only ever
        # grow, so the sorted iteration order, previous-total slots and
        # output series are kept as lists aligned by cause index and
        # rebuilt only when either dict gains a key.
        read_totals = disk.cause_read_kb
        write_totals = disk.cause_write_kb
        dt = max(1, now - self._bw_last_tick)
        sizes = (len(read_totals), len(write_totals))
        if sizes != self._bw_cause_sizes:
            self._rebuild_bw_slots(result, read_totals, write_totals, sizes)
        last_read = self._bw_lr
        last_write = self._bw_lw
        read_get = read_totals.get
        write_get = write_totals.get
        for i, (cause, append_time, append_value) in enumerate(
            self._bw_appends
        ):
            read_kb = read_get(cause, 0.0)
            write_kb = write_get(cause, 0.0)
            delta_kb = read_kb - last_read[i] + write_kb - last_write[i]
            append_time(now)
            append_value(delta_kb / dt)
            last_read[i] = read_kb
            last_write[i] = write_kb
        self._bw_last_tick = now

    def _rebuild_bw_slots(
        self,
        result: RunResult,
        read_totals: dict[str, float],
        write_totals: dict[str, float],
        sizes: tuple[int, int],
    ) -> None:
        """Re-derive the cause-aligned bandwidth sampling lists."""
        # Fold the aligned last-total slots back into the dicts first so
        # existing causes keep their previous totals across the rebuild.
        for i, cause in enumerate(self._bw_causes):
            self._bw_last_read[cause] = self._bw_lr[i]
            self._bw_last_write[cause] = self._bw_lw[i]
        causes = sorted(read_totals.keys() | write_totals.keys())
        by_cause = result.bandwidth_by_cause
        bw_series = []
        for cause in causes:
            series = by_cause.get(cause)
            if series is None:
                series = by_cause[cause] = TimeSeries(f"bandwidth.{cause}")
            bw_series.append(series)
        self._bw_causes = causes
        self._bw_cause_sizes = sizes
        self._bw_lr = [self._bw_last_read.get(c, 0.0) for c in causes]
        self._bw_lw = [self._bw_last_write.get(c, 0.0) for c in causes]
        self._bw_series = bw_series
        # Prebound (cause, times.append, values.append) triples: the
        # per-tick loop pays no attribute lookups on the series objects.
        self._bw_appends = [
            (cause, series.times.append, series.values.append)
            for cause, series in zip(causes, bw_series)
        ]
