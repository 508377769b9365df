"""The closed-loop simulation driver.

Reproduces the paper's measurement loop (Section VI-B): one thread writes
at a fixed rate (1,000 OPS) while eight reader threads issue point reads
or range queries as fast as the system serves them, for 20,000 seconds,
with per-second statistics logged.  The same loop runs any
:class:`~repro.workload.ycsb.YCSBWorkload` operation mix (reads,
updates, inserts, scans, read-modify-writes, deletes); the workload
object it is given decides each tick's work.

Here one virtual second is one driver tick:

1. apply this second's share of paced writes (a fractional-credit
   accumulator keeps the long-run rate exact); a YCSB mix has no paced
   writer, its writes are operations of the mix;
2. let the engine run its compaction work and housekeeping (``tick``);
3. read the disk's background utilization for this second — compaction
   traffic slows foreground I/O through the queueing factor;
4. spend ``read_threads`` thread-seconds issuing operations: RangeHot
   reads through :class:`~repro.sim.kernel.ReadKernel`, a YCSB mix one
   operation at a time, each priced from its
   :class:`~repro.lsm.base.ReadCost` with the
   :class:`~repro.storage.iomodel.ReadPricer` formula (each simulated
   operation stands for ``ops_scale`` real ones, so reported throughput
   is paper-comparable);
5. sample the per-second metrics through the driver's
   :class:`~repro.sim.metrics.RunRecorder`, the one writer of the series
   the serve loop records too.

Pass an ``oracle`` (:class:`~repro.check.oracle.KVOracle`, preseeded
with whatever the engine was preloaded with) with a YCSB mix and the
driver shadows every operation: writes and deletes are recorded, every
read, scan and read-modify-write is checked against the oracle's
expected values, and mismatches are counted — so a YCSB run doubles as
a differential test.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from repro.config import SystemConfig
from repro.clock import VirtualClock
from repro.obs.tracing import NULL_PROFILER, SpanProfiler
from repro.sim.kernel import MAX_READS_PER_TICK, ReadKernel
from repro.sim.metrics import RunRecorder, RunResult
from repro.storage.iomodel import ReadPricer
from repro.workload.ycsb import OpKind, RangeHotWorkload, YCSBWorkload

if TYPE_CHECKING:  # repro.check imports repro.sim: keep this one-way.
    from repro.check.oracle import KVOracle


class MixedReadWriteDriver:
    """Runs one engine under the paper's closed-loop measurement."""

    def __init__(
        self,
        engine,
        config: SystemConfig,
        clock: VirtualClock,
        workload: RangeHotWorkload | YCSBWorkload | None = None,
        seed: int = 0,
        scan_mode: bool = False,
        profiler: SpanProfiler | None = None,
        oracle: KVOracle | None = None,
    ) -> None:
        """``scan_mode`` switches RangeHot readers from point reads
        (Fig. 8/9) to the paper's 100 KB range queries (Fig. 10/11).
        ``profiler`` receives every completed RangeHot read for span
        sampling; it defaults to the shared disabled
        :data:`~repro.obs.tracing.NULL_PROFILER`, whose hook costs one
        attribute check.  ``oracle`` shadows a YCSB mix's operations."""
        self.engine = engine
        self.config = config
        self.clock = clock
        self.workload = workload or RangeHotWorkload(config)
        self.rng = random.Random(seed)
        self.scan_mode = scan_mode
        self.profiler = profiler if profiler is not None else NULL_PROFILER
        self.pricer = ReadPricer(config)
        self.recorder = RunRecorder(engine, config.ops_scale)
        self._mix = isinstance(self.workload, YCSBWorkload)
        if not self._mix:
            self._kernel = ReadKernel(engine, self.workload, self.pricer, scan_mode)
        self._write_credit = 0.0
        self._read_debt = 0.0
        self.ops_by_kind: dict[OpKind, int] = {kind: 0 for kind in OpKind}
        self.oracle = oracle
        self.reads_verified = 0
        self.read_mismatches = 0
        self.scans_verified = 0
        self.scan_mismatches = 0

    # ------------------------------------------------------------------
    # The run loop.
    # ------------------------------------------------------------------
    def run(self, duration_s: int | None = None) -> RunResult:
        """Drive the engine for ``duration_s`` virtual seconds."""
        duration = duration_s if duration_s is not None else self.config.duration_s
        result = RunResult(engine=self.engine.name, duration_s=duration)
        recorder = self.recorder
        paced = not self._mix
        recorder.begin(result)
        for _ in range(duration):
            now = self.clock.now
            if paced:
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
        # An operation that started near the end of a second keeps its
        # threads busy into the next one; the debt carries over so
        # thread-time is conserved over the run (threads blocked on a
        # long disk read are simply unavailable).
        budget = float(self.config.read_threads) - self._read_debt
        if self._mix:
            reads, budget = self._run_ops(budget, utilization, result)
        else:
            reads, budget = self._kernel.run_tick(
                self.rng, budget, utilization, result, self.profiler
            )
            result.reads_completed += reads
        self._read_debt = -budget if budget < 0.0 else 0.0
        return reads

    # ------------------------------------------------------------------
    # A YCSB mix: one priced operation at a time.
    # ------------------------------------------------------------------
    def _run_ops(
        self, budget: float, utilization: float, result: RunResult
    ) -> tuple[int, float]:
        """Issue the mix's operations until ``budget`` is spent;
        ``(ops, budget)``.

        A read, scan or read-modify-write counts as a completed read; an
        update, insert or delete as an applied write.
        """
        rng = self.rng
        engine = self.engine
        oracle = self.oracle
        next_operation = self.workload.next_operation
        service_seconds = self.pricer.service_seconds
        ops_scale = self.config.ops_scale
        write_price = self.pricer.write_s * ops_scale
        append = result.read_latencies_s.append
        ops_by_kind = self.ops_by_kind
        ops = writes = 0
        while budget > 0.0 and ops < MAX_READS_PER_TICK:
            op = next_operation(rng)
            kind = op.kind
            ops_by_kind[kind] += 1
            if kind is OpKind.UPDATE or kind is OpKind.INSERT:
                seq = engine.put(op.key)
                if oracle is not None:
                    oracle.put(op.key, seq)
                priced = write_price
                writes += 1
            elif kind is OpKind.DELETE:
                engine.delete(op.key)
                if oracle is not None:
                    oracle.delete(op.key)
                priced = write_price
                writes += 1
            elif kind is OpKind.SCAN:
                high = op.key + max(1, op.scan_length) - 1
                scan = engine.scan(op.key, high)
                self._check_scan(op.key, high, scan)
                priced = (
                    service_seconds(scan.cost, len(scan.entries), utilization, True)
                    * ops_scale
                )
            else:
                got = engine.get(op.key)
                self._check_get(op.key, got)
                priced = service_seconds(got.cost, 0, utilization) * ops_scale
                if kind is OpKind.READ_MODIFY_WRITE:
                    seq = engine.put(op.key)
                    if oracle is not None:
                        oracle.put(op.key, seq)
                    priced += write_price
            budget -= priced
            append(priced / ops_scale)
            ops += 1
        result.reads_completed += ops - writes
        result.writes_applied += writes
        return ops, budget

    def _check_get(self, key: int, got) -> None:
        if self.oracle is None:
            return
        expect_found, expect_value = self.oracle.get(key)
        self.reads_verified += 1
        if got.found != expect_found or (
            expect_found and got.value != expect_value
        ):
            self.read_mismatches += 1

    def _check_scan(self, low: int, high: int, scan) -> None:
        if self.oracle is None:
            return
        self.scans_verified += 1
        got = [(entry.key, entry.value()) for entry in scan.entries]
        if got != self.oracle.scan(low, high):
            self.scan_mismatches += 1
