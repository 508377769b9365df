"""Read-path span profiling: sampled per-read traces with durations.

The driver prices every read from its :class:`~repro.lsm.base.ReadCost`,
but a priced total cannot say *where* a slow read spent its time — in
Bloom probes, in the cache hierarchy, or queued behind compaction I/O on
the disk.  :class:`SpanProfiler` closes that gap: every ``sample_every``-th
read is decomposed, stage by stage from the addends of
:meth:`~repro.storage.iomodel.ReadPricer.stage_terms`, into a
:class:`~repro.obs.events.ReadSpan` event carrying per-stage virtual-time
durations (memtable/CPU → Bloom → DB cache → OS cache → random disk →
sequential runs) plus the read's shape counters.  Spans travel the normal
event bus, so the existing :class:`~repro.obs.trace.TraceRecorder` writes
them into the same JSONL trace as compactions and invalidations — a dip
and the reads that suffered it end up on one timeline.

Mirroring :data:`~repro.obs.metrics.NULL_REGISTRY`, the shared
:data:`NULL_PROFILER` is permanently disabled: ``record_read`` returns
immediately, emitting no events, touching no counters and allocating
nothing, so the driver hook is free when nobody profiles.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.config import SystemConfig
from repro.obs.events import EventBus, ReadSpan
from repro.storage.iomodel import ReadPricer, queueing_factor

if TYPE_CHECKING:  # repro.lsm.base imports repro.obs — keep this one-way.
    from repro.lsm.base import ReadCost

#: Default sampling period: one span per this many reads.
DEFAULT_SAMPLE_EVERY = 32


class SpanProfiler:
    """Samples reads into :class:`~repro.obs.events.ReadSpan` events."""

    __slots__ = (
        "enabled",
        "sample_every",
        "reads_seen",
        "spans_emitted",
        "_bus",
        "_pricer",
    )

    def __init__(
        self,
        bus: EventBus | None = None,
        config: SystemConfig | None = None,
        sample_every: int = DEFAULT_SAMPLE_EVERY,
        enabled: bool = True,
    ) -> None:
        if enabled and (bus is None or config is None):
            raise ValueError("an enabled SpanProfiler needs a bus and a config")
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {sample_every}")
        self.enabled = enabled
        self.sample_every = sample_every
        self.reads_seen = 0
        self.spans_emitted = 0
        self._bus = bus
        self._pricer = ReadPricer(config) if config is not None else None

    def record_read(
        self,
        cost: ReadCost,
        utilization: float,
        pairs_returned: int = 0,
        is_scan: bool = False,
    ) -> None:
        """Observe one completed read; emit a span if it is sampled."""
        if not self.enabled:
            return
        self.reads_seen += 1
        if self.reads_seen % self.sample_every:
            return
        span = self.decompose(
            cost,
            utilization,
            pairs_returned=pairs_returned,
            is_scan=is_scan,
            sample_index=self.reads_seen,
        )
        self.spans_emitted += 1
        self._bus.emit(span)

    def decompose(
        self,
        cost: ReadCost,
        utilization: float,
        pairs_returned: int = 0,
        is_scan: bool = False,
        sample_index: int = 0,
    ) -> ReadSpan:
        """Split one read's modeled time into per-stage durations.

        The stages are the pricer's own addends, summed in its order, so
        ``total_s`` is bitwise ``service_seconds(...)``: span traces
        reconcile with the latency reservoir exactly.
        """
        terms = self._pricer.stage_terms(
            cost, pairs_returned, utilization, is_scan
        )
        # An explicit loop: builtin sum() compensates from Python 3.12 on.
        total_s = 0.0
        for _, seconds in terms:
            total_s += seconds
        stages = dict(terms)
        return ReadSpan(
            op="scan" if is_scan else "get",
            sample_index=sample_index,
            total_s=total_s,
            cpu_s=stages["cpu"]
            + stages["scan_pairs"]
            + stages.get("scan_tables", 0.0),
            bloom_s=stages["bloom"],
            db_cache_s=stages["db_cache"],
            os_cache_s=stages["os_cache"],
            disk_random_s=stages.get("disk_random", 0.0),
            disk_seq_s=stages.get("disk_seq", 0.0),
            memtable_probes=cost.memtable_probes,
            index_probes=cost.index_probes,
            bloom_probes=cost.bloom_probes,
            tables_checked=cost.tables_checked,
            db_hit_blocks=cost.cache_hit_blocks,
            os_hit_blocks=cost.os_hit_blocks,
            disk_blocks=cost.disk_random_blocks,
            seq_kb=cost.seq_kb,
            utilization=utilization,
        )


def span_queueing_split(record: dict) -> dict[str, float]:
    """Split one ReadSpan record into queueing delay vs base service time.

    The cost model inflates a span's disk stages by the M/M/1 factor
    ``f = queueing_factor(utilization)``; the *base* device time is the
    inflated time divided by ``f``, and the difference is time the read
    spent queued behind compaction I/O.  CPU, Bloom and cache stages
    never queue, so ``queueing_s + service_s == total_s`` exactly — the
    reconciliation ``repro report`` asserts when rendering the
    decomposition.

    ``record`` is a trace record (or ``dataclasses.asdict`` form) of a
    :class:`~repro.obs.events.ReadSpan`.
    """
    factor = queueing_factor(record["utilization"])
    disk_s = record["disk_random_s"] + record["disk_seq_s"]
    queueing_s = disk_s * (1.0 - 1.0 / factor)
    return {
        "queueing_s": queueing_s,
        "service_s": record["total_s"] - queueing_s,
        "total_s": record["total_s"],
        "queueing_factor": factor,
    }


#: Shared disabled profiler: the driver binds to this when nobody asked
#: for spans, making the per-read hook one attribute check and a return.
NULL_PROFILER = SpanProfiler(enabled=False)
