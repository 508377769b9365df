"""The batched hot-path kernel for the closed loop's RangeHot reads.

:class:`~repro.sim.driver.MixedReadWriteDriver` runs a RangeHot-style
workload's point reads or scans through :class:`ReadKernel`; a YCSB
operation mix runs one priced operation at a time in the driver itself,
under the same per-tick cap, :data:`MAX_READS_PER_TICK`.

Profiling the Fig. 8 grid shows the read loop spends most of its time in
Python dispatch, not in the model: a per-op chain re-resolves a dozen
attributes per read, appends its latency to the reservoir one value at a
time, and bumps registry counters per operation.  :class:`ReadKernel`
batches all of that per *tick* instead of per *op*: it runs one tick's
reads in a tight loop with every bound method hoisted, accumulates
priced latencies in a pending batch, and flushes them to the run's
reservoir in chunks of :data:`BATCH_SIZE` via
:meth:`~repro.obs.metrics.Reservoir.extend`.  Chunk size is
observationally invisible (a hypothesis property test patches it),
because the budget arithmetic, RNG consumption, and append order per
read are unchanged.

Scans are priced by :class:`~repro.storage.iomodel.ReadPricer`; the
point loop is the one place outside that class that spells its
arithmetic, with the constants as locals and the queueing factor hoisted
per tick.  ``tests/test_kernel_differential.py`` holds it bit-identical
to the scalar per-op chain the driver ran before this kernel, kept in
``tests/scalar_reference.py``, which prices through the pricer.

The kernel is deliberately *not* speculative: the thread budget decides
after each read whether another starts, and the workload draws one key
per read from the shared RNG, so keys are drawn lazily — pre-drawing an
array would advance the RNG past what the scalar path consumes and break
bit-identity with it.  Everything downstream of the key draw is batched.
"""

from __future__ import annotations

from repro.obs.tracing import NULL_PROFILER, SpanProfiler
from repro.storage.iomodel import ReadPricer, queueing_factor

#: Latencies accumulated before a flush to the reservoir.  Any positive
#: value yields identical results (proven by the property tests); this is
#: purely an amortization constant.
BATCH_SIZE = 256

#: Hard cap on simulated operations per tick, guarding against a
#: degenerate (near-zero) priced cost making a tick spin forever.
MAX_READS_PER_TICK = 50_000


class ReadKernel:
    """Executes one tick's thread-budgeted reads as a batched loop.

    Owned by :class:`~repro.sim.driver.MixedReadWriteDriver` when it
    runs a RangeHot-style workload.  The driver keeps the budget/debt
    bookkeeping; the kernel runs the loop.
    """

    __slots__ = ("engine", "workload", "pricer", "scan_mode")

    def __init__(
        self, engine, workload, pricer: ReadPricer, scan_mode: bool = False
    ) -> None:
        self.engine = engine
        self.workload = workload
        self.pricer = pricer
        self.scan_mode = scan_mode

    def run_tick(
        self,
        rng,
        budget: float,
        utilization: float,
        result,
        profiler: SpanProfiler = NULL_PROFILER,
    ) -> tuple[int, float]:
        """Issue reads until ``budget`` is spent; ``(reads, budget)``.

        Observationally identical to the scalar per-op chain: same key
        draws from ``rng``, same per-read budget subtraction, same
        latency values appended to ``result.read_latencies_s`` in the
        same order (just flushed :data:`BATCH_SIZE` at a time), and the
        same profiler hook per read when profiling is enabled.
        """
        ops_scale = self.pricer.ops_scale
        latencies = result.read_latencies_s
        flush = latencies.extend
        batch_size = BATCH_SIZE
        max_reads = MAX_READS_PER_TICK
        profiling = profiler.enabled
        pending: list[float] = []
        append = pending.append
        reads = 0
        if self.scan_mode:
            next_scan_range = self.workload.next_scan_range
            scan = self.engine.scan
            service_seconds = self.pricer.service_seconds
            while budget > 0.0 and reads < max_reads:
                low, high = next_scan_range(rng)
                got = scan(low, high)
                cost = got.cost
                pairs = len(got.entries)
                priced = service_seconds(cost, pairs, utilization, True) * ops_scale
                if profiling:
                    profiler.record_read(cost, utilization, pairs, True)
                budget -= priced
                append(priced)
                reads += 1
                if len(pending) >= batch_size:
                    flush([p / ops_scale for p in pending])
                    pending.clear()
        else:
            next_read_key = self.workload.next_read_key
            get = self.engine.get
            # Point reads inline the pricer body with its constants as
            # locals: same expression order as ReadPricer.service_seconds
            # with ``pairs_returned=0, is_scan=False`` (the dropped zero terms
            # add +0.0, which is bitwise identity on the positive
            # partial sums), so priced values stay bit-identical to the
            # scalar path — the differential tests prove it.
            pricer = self.pricer
            cache_hit_s = pricer._cache_hit_s
            block_hit_s = pricer._block_hit_s
            os_hit_s = pricer._os_hit_s
            bloom_probe_s = pricer._bloom_probe_s
            random_read_s = pricer._random_read_s
            seek_s = pricer._seek_s
            fg_bandwidth = pricer._fg_bandwidth
            queueing = queueing_factor(utilization)
            while budget > 0.0 and reads < max_reads:
                cost = get(next_read_key(rng)).cost
                seconds = (
                    cache_hit_s
                    + cost.cache_hit_blocks * block_hit_s
                    + cost.os_hit_blocks * os_hit_s
                )
                seconds += cost.bloom_probes * bloom_probe_s
                blocks = cost.disk_random_blocks
                seq_runs = cost.seq_runs
                seq_kb = cost.seq_kb
                if blocks or seq_runs or seq_kb:
                    if blocks:
                        seconds += blocks * random_read_s * queueing
                    if seq_runs or seq_kb:
                        seconds += (
                            seq_kb / fg_bandwidth + seq_runs * seek_s
                        ) * queueing
                priced = seconds * ops_scale
                if profiling:
                    profiler.record_read(cost, utilization, 0, False)
                budget -= priced
                append(priced)
                reads += 1
                if len(pending) >= batch_size:
                    flush([p / ops_scale for p in pending])
                    pending.clear()
        if pending:
            flush([p / ops_scale for p in pending])
        return reads, budget
