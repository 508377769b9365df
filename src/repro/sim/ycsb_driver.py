"""Driving engines with arbitrary YCSB operation mixes.

:class:`~repro.sim.driver.MixedReadWriteDriver` reproduces the paper's
specific measurement (one paced writer + saturating readers on RangeHot).
This driver generalizes it: any :class:`~repro.workload.ycsb.YCSBWorkload`
operation mix (reads, updates, inserts, scans, read-modify-writes) is
executed by a fixed number of modeled client threads, each operation
priced through the same cost model, with the same per-second metrics:
both drivers record through one :class:`~repro.sim.metrics.RunRecorder`.

This is what turns the reproduction into a general LSM workbench: YCSB
core workloads A-F run against any engine with three lines of code (see
``examples/ycsb_workloads.py`` for the lighter inline variant).

Pass an ``oracle`` (:class:`~repro.check.oracle.KVOracle`, preseeded
with whatever the engine was preloaded with) and the driver shadows
every operation: writes/deletes are recorded, every read, scan and
read-modify-write is checked against the oracle's expected values, and
mismatches are counted — so a YCSB run doubles as a differential test.
"""

from __future__ import annotations

import random

from repro.check.oracle import KVOracle
from repro.config import SystemConfig
from repro.clock import VirtualClock
from repro.sim.kernel import MAX_READS_PER_TICK
from repro.sim.metrics import RunRecorder, RunResult
from repro.storage.iomodel import ReadPricer
from repro.workload.ycsb import OpKind, YCSBWorkload


class YCSBDriver:
    """Closed-loop driver: N client threads issuing a YCSB mix."""

    def __init__(
        self,
        engine,
        config: SystemConfig,
        clock: VirtualClock,
        workload: YCSBWorkload,
        seed: int = 0,
        client_threads: int | None = None,
        oracle: KVOracle | None = None,
    ) -> None:
        self.engine = engine
        self.config = config
        self.clock = clock
        self.workload = workload
        self.rng = random.Random(seed)
        self.client_threads = (
            client_threads if client_threads is not None else config.read_threads
        )
        self._pricer = ReadPricer(config)
        self._write_price = self._pricer.write_s * config.ops_scale
        self.recorder = RunRecorder(engine, config.ops_scale)
        self._debt = 0.0
        self.ops_by_kind: dict[OpKind, int] = {kind: 0 for kind in OpKind}
        self.oracle = oracle
        self.reads_verified = 0
        self.read_mismatches = 0
        self.scans_verified = 0
        self.scan_mismatches = 0

    # ------------------------------------------------------------------
    # Oracle shadowing.
    # ------------------------------------------------------------------
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

    # ------------------------------------------------------------------
    # Operation execution with pricing.
    # ------------------------------------------------------------------
    def _execute(self, utilization: float) -> float:
        """Run one operation; returns its priced service seconds."""
        op = self.workload.next_operation(self.rng)
        self.ops_by_kind[op.kind] += 1
        if op.kind in (OpKind.UPDATE, OpKind.INSERT):
            seq = self.engine.put(op.key)
            if self.oracle is not None:
                self.oracle.put(op.key, seq)
            return self._write_price
        if op.kind == OpKind.DELETE:
            self.engine.delete(op.key)
            if self.oracle is not None:
                self.oracle.delete(op.key)
            return self._write_price
        if op.kind == OpKind.READ:
            result = self.engine.get(op.key)
            self._check_get(op.key, result)
            return self._pricer.price(result.cost, 0, utilization)
        if op.kind == OpKind.SCAN:
            high = op.key + max(1, op.scan_length) - 1
            scan = self.engine.scan(op.key, high)
            self._check_scan(op.key, high, scan)
            return self._pricer.price(
                scan.cost, len(scan.entries), utilization, is_scan=True
            )
        # Read-modify-write: a read plus a write.
        result = self.engine.get(op.key)
        self._check_get(op.key, result)
        seq = self.engine.put(op.key)
        if self.oracle is not None:
            self.oracle.put(op.key, seq)
        return (
            self._pricer.price(result.cost, 0, utilization) + self._write_price
        )

    # ------------------------------------------------------------------
    # The run loop.
    # ------------------------------------------------------------------
    def run(self, duration_s: int) -> RunResult:
        result = RunResult(engine=self.engine.name, duration_s=duration_s)
        recorder = self.recorder
        recorder.begin(result)
        for _ in range(duration_s):
            now = self.clock.now
            self.engine.tick(now)
            utilization = self.engine.disk.utilization()
            budget = float(self.client_threads) - self._debt
            ops = 0
            while budget > 0.0 and ops < MAX_READS_PER_TICK:
                priced = self._execute(utilization)
                budget -= priced
                result.read_latencies_s.append(priced / self.config.ops_scale)
                ops += 1
            self._debt = -budget if budget < 0.0 else 0.0
            result.reads_completed += ops
            recorder.sample(now, ops, utilization, recorder.stall_tick())
            self.clock.advance(1)
        recorder.finish()
        return result
