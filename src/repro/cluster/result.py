"""Cluster-run results: per-shard ledgers plus fleet aggregates.

A :class:`ClusterResult` holds one :class:`~repro.serve.result.ServeResult`
per shard (each a complete, lossless serve ledger) and derives the
fleet-level quantities the hot-shard experiments report: cluster
goodput, merged read-latency percentiles (tail latency as a client
spraying the whole keyspace would see it), per-shard p99/hit-ratio/stall
attribution, and the read-imbalance factor that quantifies RangeHot
skew.  Transport is the same lossless ``to_dict``/``from_dict``
discipline as every other result (tagged ``"kind": "cluster"``), so a
parallel cluster run reassembles bit-identically to a serial one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.spec import ClusterSpec
from repro.codec import Wire
from repro.obs.tracing import exemplar_summary
from repro.serve.result import ServeResult

#: Percentile convention shared with :class:`repro.obs.metrics.Reservoir`.


def _percentile(samples: list[float], percentile: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(
        len(ordered) - 1,
        max(0, round(percentile / 100 * (len(ordered) - 1))),
    )
    return ordered[rank]


@dataclass
class MigrationReport(Wire):
    """What one live shard split did."""

    at_s: int
    source: int
    target: int
    low: int
    high: int
    #: Live entries handed from source to target.
    entries: int
    #: Queued requests drained from the source's scheduler.
    drained_requests: int
    #: Of those, re-admitted into the target's scheduler.
    adopted_requests: int
    #: Deferred-write retries moved between the retry heaps.
    moved_retries: int


@dataclass
class ClusterResult(Wire):
    """Everything one cluster run produced."""

    _wire_kind = "cluster"

    spec: ClusterSpec
    shards: list[ServeResult] = field(default_factory=list)
    migration: MigrationReport | None = None
    #: KVOracle shadow summary when the run verified:
    #: ``{writes_recorded, reads_checked, read_mismatches}``.
    verify: dict[str, int] | None = None

    # ------------------------------------------------------------------
    # Fleet aggregates.
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def duration_s(self) -> int:
        return self.shards[0].duration_s if self.shards else 0

    @property
    def reads_completed(self) -> int:
        return sum(shard.reads_completed for shard in self.shards)

    @property
    def writes_applied(self) -> int:
        return sum(shard.writes_applied for shard in self.shards)

    @property
    def stall_seconds(self) -> float:
        return sum(shard.stall_seconds for shard in self.shards)

    @property
    def total_shed(self) -> int:
        return sum(shard.total_shed for shard in self.shards)

    @property
    def total_deferred(self) -> int:
        return sum(shard.total_deferred for shard in self.shards)

    def goodput_qps(self) -> float:
        """Cluster-wide completed read-class QPS, paper-scale."""
        return sum(shard.goodput_qps() for shard in self.shards)

    def read_percentile_ms(self, percentile: float) -> float:
        """Fleet read-latency percentile over the pooled shard samples.

        Each shard's reservoir is a uniform sample of its own stream;
        pooling them weights shards by their retained sample sizes,
        which tracks their completed-read counts until a reservoir
        saturates — good enough for the tail comparisons the benchmark
        makes, and deterministic.
        """
        pooled: list[float] = []
        for shard in self.shards:
            pooled.extend(shard.read_latencies_s.samples)
        return _percentile(pooled, percentile) * 1000.0

    def shard_read_p99_ms(self) -> list[float]:
        """Per-shard read-latency p99s, in shard order."""
        return [
            shard.read_latencies_s.percentile(99) * 1000.0
            for shard in self.shards
        ]

    def read_imbalance(self) -> float:
        """Hottest shard's completed reads over the per-shard mean.

        1.0 is perfectly balanced; under RangeHot + range partitioning
        this is the skew factor the hot-shard benchmark reports.
        """
        reads = [shard.reads_completed for shard in self.shards]
        if not reads or sum(reads) == 0:
            return 1.0
        return max(reads) / (sum(reads) / len(reads))

    def hottest_shard(self) -> int:
        """Index of the shard that completed the most reads."""
        if not self.shards:
            return 0
        reads = [shard.reads_completed for shard in self.shards]
        return reads.index(max(reads))

    def worst_exemplars(self, n: int = 5) -> list[dict]:
        """Digests of the fleet's ``n`` slowest exemplars, worst first.

        Each exemplar record already carries its shard index, so this
        is the cross-shard "worst requests and which hop cost them
        what" view the tracing layer exists for.
        """
        pooled = [
            record for shard in self.shards for record in shard.exemplars
        ]
        ranked = sorted(pooled, key=lambda e: (-e["total_s"], e["seq"]))
        return [exemplar_summary(record) for record in ranked[:n]]

    def per_shard_summary(self) -> dict[str, dict[str, object]]:
        """Compact per-shard ledger for reports and the bench payload."""
        summary: dict[str, dict[str, object]] = {}
        for index, shard in enumerate(self.shards):
            summary[str(index)] = {
                "reads_completed": shard.reads_completed,
                "writes_applied": shard.writes_applied,
                "goodput_qps": shard.goodput_qps(),
                "latency_p50_ms": shard.latency_percentile_s(50) * 1000,
                "latency_p99_ms": shard.latency_percentile_s(99) * 1000,
                "mean_hit_ratio": shard.mean_hit_ratio(),
                "stall_seconds": shard.stall_seconds,
                "shed": shard.total_shed,
                "deferred": shard.total_deferred,
                "max_queue_depth": shard.max_queue_depth,
            }
        return summary

    # ------------------------------------------------------------------
    # Bench-schema summary.
    # ------------------------------------------------------------------
    def to_json_dict(self) -> dict[str, object]:
        """One bench-schema run entry (``"kind": "cluster"``)."""
        merged_events: dict[str, int] = {}
        merged_bw: dict[str, dict[str, float]] = {}
        for shard in self.shards:
            for name, count in shard.event_counts.items():
                merged_events[name] = merged_events.get(name, 0) + count
            for cause, kinds in shard.bandwidth_kb_by_cause.items():
                bucket = merged_bw.setdefault(
                    cause, {"read_kb": 0.0, "write_kb": 0.0}
                )
                bucket["read_kb"] += kinds.get("read_kb", 0.0)
                bucket["write_kb"] += kinds.get("write_kb", 0.0)
        shards = self.shards
        mean_hit = (
            sum(s.mean_hit_ratio() for s in shards) / len(shards)
            if shards
            else 0.0
        )
        entry: dict[str, object] = {
            "kind": "cluster",
            "engine": self.spec.engine,
            "config_note": (
                f"cluster; shards={self.spec.num_shards}; "
                f"partitioner={self.spec.partitioner}"
            ),
            "duration_s": self.duration_s,
            "reads_completed": self.reads_completed,
            "writes_applied": self.writes_applied,
            "mean_hit_ratio": mean_hit,
            "mean_throughput_qps": sum(s.mean_throughput() for s in shards),
            "mean_db_size_mb": sum(s.mean_db_size_mb() for s in shards),
            "latency_p50_ms": self.read_percentile_ms(50),
            "latency_p99_ms": self.read_percentile_ms(99),
            "stall_seconds": self.stall_seconds,
            "event_counts": merged_events,
            "bandwidth_kb_by_cause": {
                cause: dict(kinds)
                for cause, kinds in sorted(merged_bw.items())
            },
            "policy": self.spec.policy,
            "arrival": self.spec.arrival,
            "offered_read_qps": self.spec.read_rate_qps,
            "goodput_qps": self.goodput_qps(),
            "num_shards": self.num_shards,
            "partitioner": self.spec.partitioner,
            "shed": self.total_shed,
            "deferred": self.total_deferred,
            "read_imbalance": self.read_imbalance(),
            "hottest_shard": self.hottest_shard(),
            "shard_read_p99_ms": self.shard_read_p99_ms(),
            "per_shard": self.per_shard_summary(),
        }
        if self.migration is not None:
            entry["migration"] = self.migration.to_dict()
        if self.verify is not None:
            entry["verify"] = dict(self.verify)
        if any(shard.trace_mode != "off" for shard in shards):
            entry["trace"] = {
                "mode": shards[0].trace_mode,
                "exemplars": sum(len(s.exemplars) for s in shards),
                "flight_dumps": sum(len(s.flight_dumps) for s in shards),
                "flight_triggers": sorted(
                    {
                        dump["trigger"]
                        for shard in shards
                        for dump in shard.flight_dumps
                    }
                ),
                "worst_exemplars": self.worst_exemplars(5),
            }
        return entry
