"""The per-op read chain, kept as the reference the read kernel is checked against.

Until every driver built a :class:`~repro.sim.kernel.ReadKernel`,
``MixedReadWriteDriver(kernel="scalar")`` ran each tick's reads through
the loop below: one engine call, one pricer call, one profiler hook and
one reservoir append per read.  It is the driver's
``_apply_reads_scalar`` moved out of ``src/`` unchanged, behind the
kernel's ``run_tick`` signature so a test can assign it to
``driver._kernel``.  ``tests/test_kernel_differential.py`` requires the
kernel to match it bit for bit.
"""

from __future__ import annotations

from repro.sim.kernel import MAX_READS_PER_TICK


def price_read(pricer, cost, pairs, utilization, is_scan=False) -> float:
    """What one simulated read debits from a closed-loop thread budget:
    its unscaled service seconds times ``ops_scale``."""
    return pricer.service_seconds(cost, pairs, utilization, is_scan) * pricer.ops_scale


class ScalarReads:
    """One tick's reads issued and priced one operation at a time."""

    def __init__(self, driver) -> None:
        self.engine = driver.engine
        self.config = driver.config
        self.workload = driver.workload
        self.pricer = driver.pricer
        self.scan_mode = driver.scan_mode

    def run_tick(self, rng, budget, utilization, result, profiler):
        reads = 0
        while budget > 0.0 and reads < MAX_READS_PER_TICK:
            if self.scan_mode:
                low, high = self.workload.next_scan_range(rng)
                scan = self.engine.scan(low, high)
                cost, pairs = scan.cost, len(scan.entries)
            else:
                key = self.workload.next_read_key(rng)
                got = self.engine.get(key)
                cost, pairs = got.cost, 0
            priced = price_read(
                self.pricer, cost, pairs, utilization, self.scan_mode
            )
            profiler.record_read(cost, utilization, pairs, self.scan_mode)
            budget -= priced
            result.read_latencies_s.append(priced / self.config.ops_scale)
            reads += 1
        return reads, budget
