"""Read spans and end-to-end request tracing.

One span record, :func:`read_stages`, sampled by count in the closed loop
(:class:`SpanProfiler`) and tail/uniform in serve.  The serve pieces, all
off by default and all deterministic:

* **Trace identity** — :func:`make_trace_id` derives a request's trace
  id from ``(seed, seq)`` alone.  Arrival seqs are assigned on the
  *global* merged stream before any shard filtering
  (:func:`~repro.serve.arrivals.arrival_stream`), so the same
  request carries the same trace id in a single-engine run, a 1-shard
  cluster, and an N-shard cluster at any ``--jobs`` — cross-layer
  identity without any runtime coordination.

* **Tail-based exemplars** — :class:`RequestTracer` watches every
  completed request but *keeps* full span trees only for the worst
  ``tail_k`` requests by total latency (a min-heap over totals) plus a
  small uniform sample (every ``uniform_every``-th completion), or for
  everything in ``"full"`` mode.  A kept read's service stages are its
  :func:`read_stages`, so ``queue + Σstages == total`` holds with
  reconciliation error exactly ``0.0`` (see
  :func:`~repro.obs.trace.reconciliation_error_s`).

* **Flight recorder** — :class:`FlightRecorder` keeps a bounded ring of
  the most recent bus events per shard and dumps the window to JSONL
  when an anomaly trigger fires: a request total above the SLO bound,
  a per-tick stall spike, or a cache hit-ratio sample under the dip
  threshold (the same default threshold the diagnose layer uses).  The
  dumped window is exactly the evidence
  :func:`~repro.obs.diagnose.diagnose_dips` attributes from.

When tracing is off the serve loop holds no tracer and no flight
recorder (plain ``None`` checks, mirroring ``NULL_PROFILER``), the bus
keeps its counting-only amortization, and the hot path is unchanged.
"""

from __future__ import annotations

import heapq
import re
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from hashlib import blake2b

from repro.config import SystemConfig
from repro.obs.events import EventBus, ReadSpan
from repro.obs.trace import event_record, stage_sum_s, write_jsonl
from repro.storage.iomodel import ReadPricer, queueing_factor

if TYPE_CHECKING:  # repro.lsm.base imports repro.obs: keep this one-way.
    from repro.lsm.base import ReadCost

#: Default closed-loop sampling period: one span per this many reads.
DEFAULT_SAMPLE_EVERY = 32

#: Valid tracing modes for specs and CLI flags.
TRACE_MODES = ("off", "exemplar", "full")

#: Worst-by-total-latency exemplars retained per shard in exemplar mode.
DEFAULT_TAIL_K = 16

#: Uniform-sample period (prime, so it doesn't phase-lock with load).
DEFAULT_UNIFORM_EVERY = 101

#: Hard cap on retained exemplars (guards ``"full"`` mode memory).
DEFAULT_MAX_EXEMPLARS = 10_000


def make_trace_id(seed: int, seq: int) -> str:
    """Deterministic 16-hex-digit trace id for request ``seq`` of ``seed``.

    Depends only on the run seed and the request's global sequence
    number, both of which are invariant under shard count and worker
    count — the identity that ties a request's hops together.
    """
    return blake2b(f"{seed}/req/{seq}".encode(), digest_size=8).hexdigest()


def read_stages(
    pricer: ReadPricer, cost: ReadCost, pairs: int, utilization: float, is_scan: bool
) -> list[dict]:
    """One read's span: the pricer's non-zero terms as ``{"stage",
    "duration_s"}``, in its order.

    Dropping a ``+0.0`` addend from a positive left-to-right sum is
    bitwise identity (the leading cpu term is always > 0), so
    :func:`stage_sum_s` of the list is ``pricer.service_seconds(...)``.
    """
    terms = pricer.stage_terms(cost, pairs, utilization, is_scan)
    return [
        {"stage": name, "duration_s": seconds} for name, seconds in terms if seconds
    ]


def span_queueing_split(record: dict) -> tuple[float, float]:
    """``(queueing_s, service_s)`` of one ReadSpan trace record.

    The pricer inflates the ``disk_random``/``disk_seq`` stages by
    ``f = queueing_factor(utilization)``; the base device time is the
    stage over ``f``, the rest is time queued behind compaction I/O.  No
    other stage queues, so the two sum to ``total_s``.
    """
    factor = queueing_factor(record["utilization"])
    disk_s = 0.0
    for stage in record["stages"]:
        if stage["stage"] in ("disk_random", "disk_seq"):
            disk_s += stage["duration_s"]
    queueing_s = disk_s * (1.0 - 1.0 / factor)
    return queueing_s, record["total_s"] - queueing_s


class SpanProfiler:
    """Samples every ``sample_every``-th closed-loop read into a ReadSpan.

    Spans travel the event bus, so a trace recorder puts a dip and the
    reads that suffered it on one timeline.
    """

    __slots__ = (
        "enabled", "sample_every", "reads_seen", "spans_emitted", "_bus", "_pricer"
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
        stages = read_stages(self._pricer, cost, pairs_returned, utilization, is_scan)
        self.spans_emitted += 1
        self._bus.emit(
            ReadSpan(
                op="scan" if is_scan else "get",
                sample_index=self.reads_seen,
                utilization=utilization,
                total_s=stage_sum_s(stages),
                stages=stages,
                cost=cost,
            )
        )


#: Shared disabled profiler: the driver binds to this when nobody asked
#: for spans, making the per-read hook one attribute check and a return.
NULL_PROFILER = SpanProfiler(enabled=False)


def span_tree(exemplar: dict) -> dict:
    """The nested span-tree view of one exemplar record.

    ``request`` → (``queue``, ``service`` → per-stage leaves).  Derived
    deterministically from the flat record, so comparing exemplar lists
    compares span trees.
    """
    return {
        "name": "request",
        "trace_id": exemplar["trace_id"],
        "start_s": exemplar["arrival_s"],
        "duration_s": exemplar["total_s"],
        "children": [
            {
                "name": "queue",
                "duration_s": exemplar["queue_delay_s"],
                "children": [],
            },
            {
                "name": "service",
                "duration_s": exemplar["service_s"],
                "children": [
                    {"name": stage["stage"], "duration_s": stage["duration_s"]}
                    for stage in exemplar["stages"]
                ],
            },
        ],
    }


def exemplar_summary(exemplar: dict) -> dict:
    """Compact one-line digest of an exemplar for reports and payloads."""
    candidates = [
        {"stage": "queue", "duration_s": exemplar["queue_delay_s"]}
    ] + list(exemplar["stages"])
    top = max(candidates, key=lambda stage: stage["duration_s"])
    return {
        "trace_id": exemplar["trace_id"],
        "seq": exemplar["seq"],
        "shard": exemplar.get("shard"),
        "klass": exemplar["klass"],
        "op": exemplar["op"],
        "sampled": exemplar["sampled"],
        "total_ms": exemplar["total_s"] * 1000.0,
        "queue_ms": exemplar["queue_delay_s"] * 1000.0,
        "service_ms": exemplar["service_s"] * 1000.0,
        "top_stage": top["stage"],
        "top_stage_ms": top["duration_s"] * 1000.0,
    }


def safe_label(text: str) -> str:
    """A label reduced to filename-safe characters."""
    return re.sub(r"[^A-Za-z0-9._-]+", "-", text).strip("-")


class RequestTracer:
    """Tail-biased exemplar sampler over one serve loop's completions.

    The admission decision per completed request is O(1) against the
    current tail heap; a span tree is only *built* for requests that
    are actually kept, so exemplar mode's cost is dominated by the heap
    compare, not by span construction.
    """

    __slots__ = (
        "mode",
        "seed",
        "shard",
        "tail_k",
        "uniform_every",
        "max_exemplars",
        "offered",
        "dropped",
        "_pricer",
        "_cache_hit_s",
        "_tail_heap",
        "_tail",
        "_uniform",
        "_full",
    )

    def __init__(
        self,
        mode: str,
        seed: int,
        shard: int | None = None,
        tail_k: int = DEFAULT_TAIL_K,
        uniform_every: int = DEFAULT_UNIFORM_EVERY,
        max_exemplars: int = DEFAULT_MAX_EXEMPLARS,
    ) -> None:
        if mode not in TRACE_MODES or mode == "off":
            raise ValueError(
                f"tracer mode must be one of {TRACE_MODES[1:]}, got {mode!r}"
            )
        if tail_k < 1:
            raise ValueError(f"tail_k must be >= 1, got {tail_k}")
        if uniform_every < 1:
            raise ValueError(
                f"uniform_every must be >= 1, got {uniform_every}"
            )
        self.mode = mode
        self.seed = seed
        self.shard = shard
        self.tail_k = tail_k
        self.uniform_every = uniform_every
        self.max_exemplars = max_exemplars
        self.offered = 0
        self.dropped = 0
        self._pricer = None
        self._cache_hit_s = 0.0
        #: Min-heap of (total_s, seq) over the retained tail exemplars.
        self._tail_heap: list[tuple[float, int]] = []
        self._tail: dict[int, dict] = {}
        self._uniform: list[dict] = []
        self._full: list[dict] = []

    def bind_pricer(self, pricer) -> None:
        """Adopt the serve loop's pricer (the source of stage terms)."""
        self._pricer = pricer
        self._cache_hit_s = pricer.write_s

    # ------------------------------------------------------------------
    # Sampling decisions.
    # ------------------------------------------------------------------
    def _admit(self, total_s: float, seq: int) -> str | None:
        """Keep this completion?  Returns its sample tag, or ``None``."""
        if self.mode == "full":
            if len(self._full) >= self.max_exemplars:
                self.dropped += 1
                return None
            return "full"
        if (
            (self.offered - 1) % self.uniform_every == 0
            and len(self._uniform) < self.max_exemplars
        ):
            return "uniform"
        heap = self._tail_heap
        if len(heap) < self.tail_k or (total_s, seq) > heap[0]:
            return "tail"
        return None

    def _keep(
        self,
        request,
        queue_delay_s: float,
        service_s: float,
        total_s: float,
        stages: list[dict],
        tag: str,
        extra: dict,
    ) -> None:
        record = {
            "trace_id": make_trace_id(self.seed, request.seq),
            "seq": request.seq,
            "klass": request.klass,
            "op": request.op,
            "shard": self.shard,
            "sampled": tag,
            "retries": request.retries,
            "arrival_s": request.arrival_s,
            "queue_delay_s": queue_delay_s,
            "service_s": service_s,
            "total_s": total_s,
            "stages": stages,
        }
        record.update(extra)
        if tag == "tail":
            if len(self._tail_heap) >= self.tail_k:
                _, evicted = heapq.heapreplace(
                    self._tail_heap, (total_s, request.seq)
                )
                del self._tail[evicted]
            else:
                heapq.heappush(self._tail_heap, (total_s, request.seq))
            self._tail[request.seq] = record
        elif tag == "uniform":
            self._uniform.append(record)
        else:
            self._full.append(record)

    # ------------------------------------------------------------------
    # Completion hooks (called by the serve loop's dispatch).
    # ------------------------------------------------------------------
    def offer_read(
        self,
        request,
        queue_delay_s: float,
        service_s: float,
        total_s: float,
        cost,
        pairs: int,
        utilization: float,
        is_scan: bool,
    ) -> None:
        """Offer a completed read/scan; build its span tree if kept."""
        self.offered += 1
        tag = self._admit(total_s, request.seq)
        if tag is None:
            return
        self._keep(
            request,
            queue_delay_s,
            service_s,
            total_s,
            read_stages(self._pricer, cost, pairs, utilization, is_scan),
            tag,
            {"utilization": utilization},
        )

    def offer_write(
        self,
        request,
        queue_delay_s: float,
        service_s: float,
        total_s: float,
        stall_s: float,
    ) -> None:
        """Offer a completed write: engine ingest plus any stall block."""
        self.offered += 1
        tag = self._admit(total_s, request.seq)
        if tag is None:
            return
        # service_s was computed as write_s + stall_s, in that
        # order, so these two stages sum to it bitwise (and dropping a
        # zero stall term preserves the sum exactly).
        stages = [{"stage": "engine_write", "duration_s": self._cache_hit_s}]
        if stall_s != 0.0:
            stages.append({"stage": "write_stall", "duration_s": stall_s})
        self._keep(
            request,
            queue_delay_s,
            service_s,
            total_s,
            stages,
            tag,
            {"stall_s": stall_s},
        )

    # ------------------------------------------------------------------
    # Harvest.
    # ------------------------------------------------------------------
    def exemplars(self) -> list[dict]:
        """Every kept exemplar, in global request order."""
        records = self._full + self._uniform + list(self._tail.values())
        return sorted(records, key=lambda record: record["seq"])

    def summary(self) -> dict:
        return {
            "mode": self.mode,
            "offered": self.offered,
            "kept": len(self._full) + len(self._uniform) + len(self._tail),
            "dropped": self.dropped,
            "tail_k": self.tail_k,
            "uniform_every": self.uniform_every,
        }


# ----------------------------------------------------------------------
# Flight recorder.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FlightPolicy:
    """When the flight recorder dumps, and how much it remembers.

    The defaults line up with the rest of the stack: ``dip_threshold``
    matches :func:`~repro.obs.diagnose.diagnose_dips`'s default, and
    ``stall_spike_s`` matches the admission controller's default
    per-window stall budget.
    """

    capacity: int = 512
    slo_total_s: float = 1.0
    stall_spike_s: float = 0.25
    dip_threshold: float = 0.7
    cooldown_s: float = 120.0
    max_dumps: int = 8


class FlightRecorder:
    """Bounded ring of recent events, dumped to JSONL on anomalies.

    Subscribes to the shard's bus (which switches the bus out of
    counting-only mode — the price of having the evidence on hand) and
    timestamps each event with the engine clock.  Triggers are checked
    by the serve loop (``observe_latency`` per completion,
    ``observe_stall`` per tick, ``observe_hit_ratio`` per cache
    sample); each trigger kind has its own cooldown so one sustained
    anomaly doesn't flood the dump budget.
    """

    def __init__(
        self,
        clock,
        bus=None,
        policy: FlightPolicy = FlightPolicy(),
        shard: int | None = None,
        out_dir: str | Path | None = None,
        label: str = "",
    ) -> None:
        self.policy = policy
        self.clock = clock
        self.shard = shard
        self.out_dir = None if out_dir is None else Path(out_dir)
        self.label = safe_label(label) if label else ""
        self.dumps: list[dict] = []
        self.dropped_dumps = 0
        self._ring: deque[dict] = deque(maxlen=policy.capacity)
        self._last_trigger: dict[str, float] = {}
        if bus is not None:
            bus.subscribe_all(self._on_event)

    def _on_event(self, event) -> None:
        self._ring.append(event_record(self.clock.now, event))

    def note(self, t: float, event: str, **fields) -> None:
        """Append a synthetic record (request breadcrumbs, markers)."""
        record = {"t": t, "event": event}
        record.update(fields)
        self._ring.append(record)

    # ------------------------------------------------------------------
    # Trigger checks.
    # ------------------------------------------------------------------
    def observe_latency(
        self, t: float, total_s: float, seq: int, klass: str
    ) -> None:
        if total_s > self.policy.slo_total_s:
            self._trigger(
                "slo-breach",
                t,
                total_s,
                self.policy.slo_total_s,
                {"seq": seq, "klass": klass},
            )

    def observe_stall(self, t: float, stall_tick_s: float) -> None:
        if stall_tick_s > self.policy.stall_spike_s:
            self._trigger(
                "stall-spike", t, stall_tick_s, self.policy.stall_spike_s
            )

    def observe_hit_ratio(self, t: float, ratio: float) -> None:
        if ratio < self.policy.dip_threshold:
            self._trigger(
                "hit-ratio-dip", t, ratio, self.policy.dip_threshold
            )

    def _trigger(
        self,
        kind: str,
        t: float,
        value: float,
        threshold: float,
        detail: dict | None = None,
    ) -> None:
        last = self._last_trigger.get(kind)
        if last is not None and t - last < self.policy.cooldown_s:
            return
        self._last_trigger[kind] = t
        if len(self.dumps) >= self.policy.max_dumps:
            self.dropped_dumps += 1
            return
        dump = {
            "trigger": kind,
            "t": t,
            "value": value,
            "threshold": threshold,
            "shard": self.shard,
            "records": list(self._ring),
        }
        if detail:
            dump.update(detail)
        self.dumps.append(dump)
        if self.out_dir is not None:
            self._write(dump)

    def _write(self, dump: dict) -> None:
        shard_part = "" if self.shard is None else f"_shard{self.shard}"
        name = (
            f"flight_{self.label}{shard_part}"
            f"_{dump['trigger']}_t{dump['t']}.jsonl"
        )
        header = {
            key: value for key, value in dump.items() if key != "records"
        }
        header["event"] = "FlightDump"
        write_jsonl(self.out_dir / name, [header, *dump["records"]])

    def summary(self) -> dict:
        return {
            "dumps": len(self.dumps),
            "dropped_dumps": self.dropped_dumps,
            "triggers": sorted({dump["trigger"] for dump in self.dumps}),
        }
