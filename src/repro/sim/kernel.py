"""The batched hot-path kernel for the read side of the simulation.

Profiling the Fig. 8 grid shows the read loop spends most of its time in
Python dispatch, not in the model: every read re-resolved a dozen config
attributes inside :func:`~repro.sim.driver.price_read`, paid a method
call per cost-model stage, appended its latency to the reservoir one
value at a time, and bumped registry counters per operation.  This
module batches all of that per *tick* instead of per *op*:

* :class:`ReadPricer` prebinds every pricing constant once and inlines
  the cost-model formulas, keeping the exact floating-point expression
  order of :func:`~repro.sim.driver.price_read` — the scalar function
  stays as the executable reference, and the differential tests assert
  the two produce bit-identical prices;
* :class:`ReadKernel` runs one tick's reads in a tight loop with every
  bound method hoisted, accumulates priced latencies in a pending batch,
  and flushes them to the run's reservoir in chunks of ``batch_size``
  via :meth:`~repro.obs.metrics.Reservoir.extend` — chunk size is
  observationally invisible (a hypothesis property test randomizes it),
  because the budget arithmetic, RNG consumption, and append order per
  read are unchanged.

The kernel is deliberately *not* speculative: the thread budget decides
after each read whether another starts, and the workload draws one key
per read from the shared RNG, so keys are drawn lazily — pre-drawing an
array would advance the RNG past what the scalar path consumes and break
bit-identity with it.  Everything downstream of the key draw is batched.
"""

from __future__ import annotations

from repro.config import SystemConfig
from repro.lsm.base import ReadCost
from repro.obs.prof import NULL_PROFILER, SpanProfiler
from repro.storage.iomodel import _MAX_UTILIZATION, IOCostModel

#: Latencies accumulated before a flush to the reservoir.  Any positive
#: value yields identical results (proven by the property tests); this is
#: purely an amortization knob.
DEFAULT_BATCH_SIZE = 256

#: Hard cap on simulated reads per tick, guarding against a degenerate
#: (near-zero) priced cost making a tick spin forever.  Shared with the
#: scalar path in :mod:`repro.sim.driver`.
MAX_READS_PER_TICK = 50_000


class ReadPricer:
    """:func:`~repro.sim.driver.price_read` with constants prebound.

    One instance per driver; every per-call ``config.*`` attribute fetch
    and cost-model method call is resolved at construction.  The inlined
    arithmetic preserves the scalar function's expression order exactly
    (float addition is not associative, and the RunResult series must be
    bit-identical between the two), including the conditional structure:
    zero-probe bloom terms still add ``0.0``, and disk terms are only
    added when the scalar path would add them.
    """

    __slots__ = (
        "config",
        "cost_model",
        "ops_scale",
        "_cache_hit_s",
        "_block_hit_s",
        "_os_hit_s",
        "_scan_pair_cpu_s",
        "_scan_table_cpu_s",
        "_bloom_probe_s",
        "_random_read_s",
        "_seek_s",
        "_fg_bandwidth",
    )

    def __init__(self, config: SystemConfig, cost_model: IOCostModel) -> None:
        self.config = config
        self.cost_model = cost_model
        self.ops_scale = config.ops_scale
        self._cache_hit_s = config.cache_hit_s
        self._block_hit_s = config.block_hit_s
        self._os_hit_s = config.os_hit_s
        self._scan_pair_cpu_s = config.scan_pair_cpu_s
        self._scan_table_cpu_s = config.scan_table_cpu_s
        self._bloom_probe_s = config.bloom_probe_s
        self._random_read_s = config.random_read_s
        self._seek_s = config.seek_s
        self._fg_bandwidth = config.foreground_bandwidth_kb_per_s

    def service_seconds(
        self,
        cost: ReadCost,
        pairs_returned: int,
        utilization: float,
        is_scan: bool = False,
    ) -> float:
        """Unscaled modeled service seconds of one (simulated) read.

        This is :meth:`price` without the final ``ops_scale`` multiply
        — the quantity the serve layer records as a request's service
        time, and exactly the left-to-right sum of
        :meth:`stage_terms`.
        """
        seconds = (
            self._cache_hit_s
            + cost.cache_hit_blocks * self._block_hit_s
            + cost.os_hit_blocks * self._os_hit_s
            + pairs_returned * self._scan_pair_cpu_s
        )
        if is_scan:
            seconds += cost.tables_checked * self._scan_table_cpu_s
        seconds += cost.bloom_probes * self._bloom_probe_s
        blocks = cost.disk_random_blocks
        seq_runs = cost.seq_runs
        seq_kb = cost.seq_kb
        if blocks or seq_runs or seq_kb:
            clamped = utilization
            if clamped < 0.0:
                clamped = 0.0
            elif clamped > _MAX_UTILIZATION:
                clamped = _MAX_UTILIZATION
            queueing = 1.0 / (1.0 - clamped)
            if blocks:
                seconds += blocks * self._random_read_s * queueing
            if seq_runs or seq_kb:
                seconds += (
                    seq_kb / self._fg_bandwidth + seq_runs * self._seek_s
                ) * queueing
        return seconds

    def stage_terms(
        self,
        cost: ReadCost,
        pairs_returned: int,
        utilization: float,
        is_scan: bool = False,
    ) -> list[tuple[str, float]]:
        """The labeled addends of :meth:`service_seconds`, in order.

        Exactness contract (what the tracing layer depends on): the
        terms are exactly the addends of :meth:`service_seconds` in its
        evaluation order, so a plain left-to-right float accumulation
        of the returned values is *bitwise equal* to
        ``service_seconds(...)`` — float addition isn't associative,
        but this is the same sequence of additions.  Absent conditional
        terms would contribute ``+0.0``, which is bitwise identity on
        these positive partial sums, so the list may safely be filtered
        to its nonzero entries downstream.
        """
        terms = [
            ("cpu", self._cache_hit_s),
            ("db_cache", cost.cache_hit_blocks * self._block_hit_s),
            ("os_cache", cost.os_hit_blocks * self._os_hit_s),
            ("scan_pairs", pairs_returned * self._scan_pair_cpu_s),
        ]
        if is_scan:
            terms.append(
                ("scan_tables", cost.tables_checked * self._scan_table_cpu_s)
            )
        terms.append(("bloom", cost.bloom_probes * self._bloom_probe_s))
        blocks = cost.disk_random_blocks
        seq_runs = cost.seq_runs
        seq_kb = cost.seq_kb
        if blocks or seq_runs or seq_kb:
            clamped = utilization
            if clamped < 0.0:
                clamped = 0.0
            elif clamped > _MAX_UTILIZATION:
                clamped = _MAX_UTILIZATION
            queueing = 1.0 / (1.0 - clamped)
            if blocks:
                terms.append(
                    ("disk_random", blocks * self._random_read_s * queueing)
                )
            if seq_runs or seq_kb:
                terms.append(
                    (
                        "disk_seq",
                        (seq_kb / self._fg_bandwidth + seq_runs * self._seek_s)
                        * queueing,
                    )
                )
        return terms

    def price(
        self,
        cost: ReadCost,
        pairs_returned: int,
        utilization: float,
        is_scan: bool = False,
    ) -> float:
        """Modeled service seconds of one (simulated) read, scaled.

        The body duplicates :meth:`service_seconds` (plus the final
        ``ops_scale`` multiply) rather than calling it: this is the
        per-read closed-loop hot path, and the extra call costs the
        speed-gate floor real throughput.  The two must stay
        addend-identical — ``price == service_seconds * ops_scale``
        bitwise is pinned by ``tests/test_tracing.py``.
        """
        seconds = (
            self._cache_hit_s
            + cost.cache_hit_blocks * self._block_hit_s
            + cost.os_hit_blocks * self._os_hit_s
            + pairs_returned * self._scan_pair_cpu_s
        )
        if is_scan:
            seconds += cost.tables_checked * self._scan_table_cpu_s
        seconds += cost.bloom_probes * self._bloom_probe_s
        blocks = cost.disk_random_blocks
        seq_runs = cost.seq_runs
        seq_kb = cost.seq_kb
        if blocks or seq_runs or seq_kb:
            clamped = utilization
            if clamped < 0.0:
                clamped = 0.0
            elif clamped > _MAX_UTILIZATION:
                clamped = _MAX_UTILIZATION
            queueing = 1.0 / (1.0 - clamped)
            if blocks:
                seconds += blocks * self._random_read_s * queueing
            if seq_runs or seq_kb:
                seconds += (
                    seq_kb / self._fg_bandwidth + seq_runs * self._seek_s
                ) * queueing
        return seconds * self.ops_scale


class ReadKernel:
    """Executes one tick's thread-budgeted reads as a batched loop.

    Owned by :class:`~repro.sim.driver.MixedReadWriteDriver` when it is
    constructed with ``kernel="batched"`` (the default).  The driver
    keeps the budget/debt bookkeeping; the kernel runs the loop.
    """

    __slots__ = ("engine", "workload", "pricer", "scan_mode", "batch_size")

    def __init__(
        self,
        engine,
        workload,
        pricer: ReadPricer,
        scan_mode: bool = False,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.engine = engine
        self.workload = workload
        self.pricer = pricer
        self.scan_mode = scan_mode
        self.batch_size = batch_size

    def run_tick(
        self,
        rng,
        budget: float,
        utilization: float,
        result,
        profiler: SpanProfiler = NULL_PROFILER,
        max_reads: int = MAX_READS_PER_TICK,
    ) -> tuple[int, float]:
        """Issue reads until ``budget`` is spent; ``(reads, budget)``.

        Observationally identical to the scalar per-op chain: same key
        draws from ``rng``, same per-read budget subtraction, same
        latency values appended to ``result.read_latencies_s`` in the
        same order (just flushed ``batch_size`` at a time), and the same
        profiler hook per read when profiling is enabled.
        """
        price = self.pricer.price
        ops_scale = self.pricer.ops_scale
        latencies = result.read_latencies_s
        flush = latencies.extend
        batch_size = self.batch_size
        profiling = profiler.enabled
        pending: list[float] = []
        append = pending.append
        reads = 0
        if self.scan_mode:
            next_scan_range = self.workload.next_scan_range
            scan = self.engine.scan
            while budget > 0.0 and reads < max_reads:
                low, high = next_scan_range(rng)
                got = scan(low, high)
                cost = got.cost
                pairs = len(got.entries)
                priced = price(cost, pairs, utilization, True)
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
            # locals: same expression order as ReadPricer.price with
            # ``pairs_returned=0, is_scan=False`` (the dropped zero terms
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
            clamped = utilization
            if clamped < 0.0:
                clamped = 0.0
            elif clamped > _MAX_UTILIZATION:
                clamped = _MAX_UTILIZATION
            queueing = 1.0 / (1.0 - clamped)
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
