"""The read cost model: what one query costs on the simulated disk.

The paper's evaluation runs on a RAID0 of two 15K-RPM hard disks.  The
relevant performance facts for every experiment are:

* a random block read costs a seek (milliseconds),
* sequential transfer is orders of magnitude cheaper per byte,
* compaction I/O and query I/O share one device, so heavy compaction
  traffic inflates query latency (Fig. 10's dips), and
* each sorted table touched by a range query adds one seek, which is why
  SM-tree's many-tables-per-level structure collapses range throughput.

:class:`ReadPricer` turns an operation's *shape* (a
:class:`~repro.lsm.base.ReadCost`: cached blocks, Bloom probes, random
reads, sequential runs) into modeled service seconds, including a simple
M/M/1-style contention factor for device utilization.  It is the only
home of that formula: the closed-loop drivers, the serve loop, the
request tracer and the span profiler all hold one and read it.
Constants come from :class:`~repro.config.SystemConfig`; DESIGN.md
Section 2 and EXPERIMENTS.md record the calibration against the paper's
absolute numbers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.config import SystemConfig

if TYPE_CHECKING:  # repro.lsm.base imports repro.storage: keep this one-way.
    from repro.lsm.base import ReadCost

#: Utilization is clamped so the queueing factor stays bounded (max 5x).
#: Production LSM stores rate-limit compaction I/O so foreground reads are
#: never fully starved; the clamp models that prioritization.
_MAX_UTILIZATION = 0.8


def queueing_factor(utilization: float) -> float:
    """M/M/1-style slowdown of disk service under background traffic.

    ``utilization`` is the fraction of the current virtual second the
    device already spends on compaction I/O.  The factor is
    ``1 / (1 - u)`` with ``u`` clamped to keep it finite; at the
    paper's steady-state compaction load (~0.2) this is a mild 1.25x,
    during the SM-tree's full-level merges it dominates.  Reports use it to
    split a priced disk stage into base service time (``stage / factor``)
    and queueing delay behind compaction I/O (the rest).  The clamp is
    spelled here only; every disk term of the pricer calls this.
    """
    # Two compares rather than min(max(...)): same float, fewer calls.
    if utilization < 0.0:
        utilization = 0.0
    elif utilization > _MAX_UTILIZATION:
        utilization = _MAX_UTILIZATION
    return 1.0 / (1.0 - utilization)


class ReadPricer:
    """Prices a :class:`~repro.lsm.base.ReadCost` in modeled seconds.

    Every pricing constant is bound once at construction.  The arithmetic
    is spelled twice here, :meth:`stage_terms` (the labeled addends) and
    :meth:`service_seconds` (their fused sum), and once more in the point
    loop of :meth:`~repro.sim.kernel.ReadKernel.run_tick`; all three keep
    one expression order (float addition is not associative, and the
    RunResult series must be bit-identical between them), including the
    conditional structure: zero-probe bloom terms still add ``0.0``, and
    disk terms are only added when there is disk work.
    """

    __slots__ = (
        "ops_scale",
        "write_s",
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

    def __init__(self, config: SystemConfig) -> None:
        self.ops_scale = config.ops_scale
        #: Engine ingest of one write (no read of any run is involved).
        self.write_s = config.cache_hit_s
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

        Times ``ops_scale``, it is what the read debits from a thread
        budget; unscaled, it is the quantity the serve layer records as
        a request's service time, and exactly the left-to-right sum of
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
            queueing = queueing_factor(utilization)
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
            queueing = queueing_factor(utilization)
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
