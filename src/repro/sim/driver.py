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
4. spend ``read_threads`` thread-seconds issuing reads through
   :class:`~repro.sim.kernel.ReadKernel`, pricing each one from its
   :class:`~repro.lsm.base.ReadCost` with the
   :class:`~repro.storage.iomodel.ReadPricer` formula
   (each simulated read stands for ``ops_scale`` real reads, so reported
   throughput is paper-comparable);
5. sample the per-second metrics through the driver's
   :class:`~repro.sim.metrics.RunRecorder`, the one writer of the series
   the YCSB driver and the serve loop record too.
"""

from __future__ import annotations

import random

from repro.config import SystemConfig
from repro.clock import VirtualClock
from repro.obs.tracing import NULL_PROFILER, SpanProfiler
from repro.sim.kernel import ReadKernel
from repro.sim.metrics import RunRecorder, RunResult
from repro.storage.iomodel import ReadPricer
from repro.workload.ycsb import RangeHotWorkload


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
        profiler: SpanProfiler | None = None,
    ) -> None:
        """``scan_mode`` switches readers from point reads (Fig. 8/9) to
        the paper's 100 KB range queries (Fig. 10/11).  ``profiler``
        receives every completed read for span sampling; it defaults to
        the shared disabled :data:`~repro.obs.tracing.NULL_PROFILER`, whose
        hook costs one attribute check.  Each tick's reads run through a
        :class:`~repro.sim.kernel.ReadKernel`."""
        self.engine = engine
        self.config = config
        self.clock = clock
        self.workload = workload or RangeHotWorkload(config)
        self.rng = random.Random(seed)
        self.scan_mode = scan_mode
        self.profiler = profiler if profiler is not None else NULL_PROFILER
        self.pricer = ReadPricer(config)
        self._kernel = ReadKernel(engine, self.workload, self.pricer, scan_mode)
        self.recorder = RunRecorder(engine, config.ops_scale)
        self._write_credit = 0.0
        self._read_debt = 0.0

    # ------------------------------------------------------------------
    # The run loop.
    # ------------------------------------------------------------------
    def run(self, duration_s: int | None = None) -> RunResult:
        """Drive the engine for ``duration_s`` virtual seconds."""
        duration = duration_s if duration_s is not None else self.config.duration_s
        result = RunResult(engine=self.engine.name, duration_s=duration)
        recorder = self.recorder
        recorder.begin(result)
        for _ in range(duration):
            now = self.clock.now
            self._apply_writes(result)
            self.engine.tick(now)
            utilization = self.engine.disk.utilization()
            reads = self._apply_reads(utilization, result)
            recorder.sample(now, reads, utilization, recorder.stall_tick())
            self.clock.advance(1)
        recorder.finish()
        return result

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
        reads, budget = self._kernel.run_tick(
            self.rng, budget, utilization, result, self.profiler
        )
        self._read_debt = -budget if budget < 0.0 else 0.0
        result.reads_completed += reads
        return reads
