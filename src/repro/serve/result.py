"""SLO accounting for serve runs.

A serve run keeps everything a closed-loop :class:`~repro.sim.metrics.RunResult`
keeps (the per-second series, the latency reservoir, event counts and
per-cause bandwidth totals, written by the same
:class:`~repro.sim.metrics.RunRecorder`) *plus* the open-loop quantities
that only exist with timestamped arrivals: per-class queueing delay vs service time,
shed/deferred counters, queue depth and offered load over time, and a
sampled set of individual requests whose delay components reconcile
with their totals — the audit trail behind every percentile reported.

``ServeResult`` subclasses ``RunResult`` so the sweep runner, the bench
schema helpers and the summary tables all work on serve cells
unchanged; its wire form is tagged ``"kind": "serve"`` and the sweep
loader dispatches on that tag.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.codec import Wire
from repro.obs.tracing import exemplar_summary
from repro.sim.metrics import LatencyReservoir, RunResult, TimeSeries

#: Percentiles exported per class in the JSON summary.
_SUMMARY_PERCENTILES = (50.0, 95.0, 99.0, 99.9)


@dataclass
class ClassStats(Wire):
    """One client class's SLO ledger over a serve run.

    ``latency_s`` observes total per-request latency (queueing delay +
    service time, in real seconds); ``queue_delay_s`` and ``service_s``
    observe the two components separately so the decomposition has its
    own percentiles.
    """

    #: The class's operation kind ("read" | "scan" | "write").
    op: str = "read"
    arrived: int = 0
    admitted: int = 0
    completed: int = 0
    shed: int = 0
    deferred: int = 0
    retried: int = 0
    queue_delay_s: LatencyReservoir = field(default_factory=LatencyReservoir)
    service_s: LatencyReservoir = field(default_factory=LatencyReservoir)
    latency_s: LatencyReservoir = field(default_factory=LatencyReservoir)


@dataclass
class ServeResult(RunResult):
    """A :class:`RunResult` extended with open-loop serving metrics."""

    _wire_kind = "serve"

    #: Scheduling policy and arrival process this run used.
    policy: str = "fifo"
    arrival: str = "poisson"
    #: Offered read-class load in paper-scale QPS (the sweep's x-axis).
    offered_read_qps: float = 0.0
    #: Real operations per simulated operation (from the run's config),
    #: so goodput converts to paper-scale QPS.
    ops_scale: float = 1.0
    #: Highest queue depth observed (assertable against the bound).
    max_queue_depth: int = 0
    #: Queue depth and offered (arrived this window) paper-scale QPS,
    #: sampled on the run's sampling grid.
    queue_depth: TimeSeries = field(
        default_factory=lambda: TimeSeries("queue_depth")
    )
    offered_qps: TimeSeries = field(
        default_factory=lambda: TimeSeries("offered_qps")
    )
    #: Per-class SLO ledgers, keyed by client-class name.
    class_stats: dict[str, ClassStats] = field(default_factory=dict)
    #: Every Nth completed request, with its latency decomposition:
    #: ``{seq, klass, op, arrival_s, queue_delay_s, service_s, total_s,
    #: retries}``.  ``queue_delay_s + service_s == total_s`` on every
    #: sample — the reconciliation the acceptance tests assert.
    request_samples: list[dict] = field(default_factory=list)
    #: Tracing mode the run used ("off" | "exemplar" | "full").
    trace_mode: str = "off"
    #: Kept exemplar span records (see :mod:`repro.obs.tracing`), in
    #: global request order; empty when tracing is off.
    exemplars: list[dict] = field(default_factory=list)
    #: Flight-recorder dumps fired during the run (trigger + ring
    #: window); empty when tracing is off.
    flight_dumps: list[dict] = field(default_factory=list)
    #: Runtime controller this run used ("off" when uncontrolled).
    controller: str = "off"
    #: Every runtime-control decision, in decision order: ``{t,
    #: controller, action, knob, old, new, reason}``.  Rides the
    #: lossless transport so jobs=N runs re-render identically.
    control_decisions: list[dict] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Aggregates.
    # ------------------------------------------------------------------
    def class_percentile_ms(self, klass: str, percentile: float) -> float:
        """Total-latency percentile for one class, in milliseconds."""
        stats = self.class_stats.get(klass)
        if stats is None:
            return 0.0
        return stats.latency_s.percentile(percentile) * 1000.0

    @property
    def total_shed(self) -> int:
        return sum(stats.shed for stats in self.class_stats.values())

    @property
    def total_deferred(self) -> int:
        return sum(stats.deferred for stats in self.class_stats.values())

    def goodput_qps(self) -> float:
        """Completed read-class operations per second, paper-scale."""
        if not self.duration_s:
            return 0.0
        completed = sum(
            stats.completed
            for stats in self.class_stats.values()
            if stats.op != "write"
        )
        return completed * self.ops_scale / self.duration_s

    def reconciliation_max_error_s(self) -> float:
        """Largest |queue + service − total| across the request samples."""
        if not self.request_samples:
            return 0.0
        return max(
            abs(s["queue_delay_s"] + s["service_s"] - s["total_s"])
            for s in self.request_samples
        )

    def worst_exemplars(self, n: int = 5) -> list[dict]:
        """Digests of the ``n`` slowest kept exemplars, worst first."""
        ranked = sorted(
            self.exemplars, key=lambda e: (-e["total_s"], e["seq"])
        )
        return [exemplar_summary(record) for record in ranked[:n]]

    def to_json_dict(self) -> dict[str, object]:
        summary = super().to_json_dict()
        summary["kind"] = "serve"
        summary["policy"] = self.policy
        summary["arrival"] = self.arrival
        summary["offered_read_qps"] = self.offered_read_qps
        summary["goodput_qps"] = self.goodput_qps()
        summary["max_queue_depth"] = self.max_queue_depth
        summary["shed"] = self.total_shed
        summary["deferred"] = self.total_deferred
        summary["reconciliation_max_error_s"] = self.reconciliation_max_error_s()
        classes: dict[str, object] = {}
        for name, stats in sorted(self.class_stats.items()):
            entry: dict[str, object] = {
                "op": stats.op,
                "arrived": stats.arrived,
                "admitted": stats.admitted,
                "completed": stats.completed,
                "shed": stats.shed,
                "deferred": stats.deferred,
                "retried": stats.retried,
                "queue_delay_p99_ms": stats.queue_delay_s.percentile(99) * 1000,
                "service_p99_ms": stats.service_s.percentile(99) * 1000,
            }
            for percentile in _SUMMARY_PERCENTILES:
                key = f"latency_p{percentile:g}_ms".replace(".", "_")
                entry[key] = stats.latency_s.percentile(percentile) * 1000
            classes[name] = entry
        summary["classes"] = classes
        if self.controller != "off":
            knobs = sorted({d["knob"] for d in self.control_decisions})
            summary["control"] = {
                "controller": self.controller,
                "decisions": len(self.control_decisions),
                "knobs": knobs,
                "last_decisions": [
                    dict(d) for d in self.control_decisions[-5:]
                ],
            }
        if self.trace_mode != "off":
            summary["trace"] = {
                "mode": self.trace_mode,
                "exemplars": len(self.exemplars),
                "flight_dumps": len(self.flight_dumps),
                "flight_triggers": sorted(
                    {dump["trigger"] for dump in self.flight_dumps}
                ),
                "worst_exemplars": self.worst_exemplars(5),
            }
        return summary
