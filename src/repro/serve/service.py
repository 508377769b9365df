"""The open-loop service simulator.

:class:`ServiceSimulator` runs the serve tick loop: ingest this second's
arrivals (and due write retries) through admission control into the
bounded scheduler, let the engine do its compaction housekeeping, then
dispatch queued requests against the engine under the same
``read_threads`` thread-second budget — and the same
:class:`~repro.storage.iomodel.ReadPricer` arithmetic — as the closed-loop
driver.  The one semantic difference is what latency means: here a
request's latency is *queueing delay* (arrival to dispatch) plus
*service time* (the priced engine work), which is exactly the quantity
that hockey-sticks as offered load approaches capacity.

Per-request accounting feeds :class:`~repro.serve.result.ServeResult`:
per-class reservoirs for total latency and both components, shed and
deferral counters that reconcile with the ``RequestShed`` /
``WriteDeferred`` events on the bus, and a sampled set of raw requests
whose ``queue_delay_s + service_s == total_s`` by construction.

The loop is *steppable*: :meth:`ServiceSimulator.begin` /
:meth:`~ServiceSimulator.step` / :meth:`~ServiceSimulator.finish`
expose one-tick granularity so the cluster tier can interleave several
shard simulators on one virtual timeline (and migrate key ranges
between them mid-run); :meth:`~ServiceSimulator.run` is the
begin/step×N/finish composition every single-engine path uses.

:func:`execute_serve` is the spec-to-result entry point the sweep
workers call, mirroring :func:`repro.sim.experiment.execute`.  It is
itself a composition of :func:`prepare_serve` (build the stack, place
the preload, take the arrival stream) and :func:`finalize_serve` (stamp
spec metadata on the result) so a cluster shard can run the *identical*
pipeline with its placement filter and its bucket of the arrival stream
injected — the all-pass filter and the whole stream reproduce the
single-engine run bit for bit, which is what the 1-shard differential
test pins.
"""

from __future__ import annotations

import heapq
from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from typing import Callable, Protocol

from repro.config import SystemConfig
from repro.errors import EngineError
from repro.obs.events import RequestShed, WriteDeferred
from repro.obs.trace import write_jsonl
from repro.obs.tracing import FlightPolicy, FlightRecorder, RequestTracer, safe_label
from repro.control import Controller, make_controller
from repro.serve.admission import ADMIT, DEFER, AdmissionController, AdmissionPolicy
from repro.serve.arrivals import Request, arrival_stream
from repro.serve.result import ClassStats, ServeResult
from repro.serve.scheduler import Scheduler, make_scheduler
from repro.serve.spec import ServiceSpec
from repro.sim.kernel import MAX_READS_PER_TICK
from repro.sim.metrics import RunRecorder
from repro.sstable.entry import Entry
from repro.storage.iomodel import ReadPricer
from repro.workload.ycsb import RangeHotWorkload

#: Cap on retained per-request decomposition samples.
_MAX_REQUEST_SAMPLES = 2_000


class DispatchObserver(Protocol):
    """Callbacks fired as the simulator dispatches requests.

    The cluster tier's oracle verification hangs off these: every write
    reports the sequence number the engine assigned, every point read
    reports the engine's answer, so an external model (the
    :class:`~repro.check.oracle.KVOracle`) can shadow the run without
    touching the dispatch arithmetic.
    """

    def on_write(self, request: Request, seq: int) -> None: ...

    def on_read(self, request: Request, got) -> None: ...


class ServiceSimulator:
    """Drives one engine under an open-loop arrival stream.

    ``arrivals`` is read once, in order, one request ahead of the run."""

    def __init__(
        self,
        engine,
        config: SystemConfig,
        clock,
        arrivals: Iterable[Request],
        scheduler: Scheduler,
        admission: AdmissionController,
        request_sample_every: int = 17,
        observer: DispatchObserver | None = None,
        tracer: RequestTracer | None = None,
        flight: FlightRecorder | None = None,
        controller: Controller | None = None,
    ) -> None:
        self.engine = engine
        self.config = config
        self.clock = clock
        self.arrivals = iter(arrivals)
        self.scheduler = scheduler
        self.admission = admission
        self.pricer = ReadPricer(config)
        self.request_sample_every = max(1, request_sample_every)
        self.observer = observer
        # Tracing off means both stay None: the dispatch loop's only
        # added cost is a None check, and nothing subscribes to the bus
        # (which would break its counting-only amortization).
        self.tracer = tracer
        if tracer is not None:
            tracer.bind_pricer(self.pricer)
        self.flight = flight
        # Control off means ``controller`` stays None — like tracing,
        # the step loop's only added cost is a None check, keeping the
        # uncontrolled path bit-identical to pre-controller builds.
        self.controller = controller
        self.recorder = RunRecorder(engine, config.ops_scale)
        #: The recorder's tally; the controller reads its deferral count.
        self.event_tally = self.recorder.event_tally
        #: Deferred writes waiting to re-offer: (retry_at_s, seq, request).
        self._retry_heap: list[tuple[float, int, Request]] = []
        #: (tick, stall seconds accrued that tick) for the admission window.
        self._stall_window: deque[tuple[int, float]] = deque()
        self._read_debt = 0.0
        #: The first arrival not yet ingested (read in begin()).
        self._next_arrival: Request | None = None
        self._completed_count = 0
        # Per-run loop state, created by begin().
        self._result: ServeResult | None = None
        self._start_tick = 0
        # Bound last: the controller snapshots loop-state baselines.
        if controller is not None:
            controller.bind(self)

    # ------------------------------------------------------------------
    # The run loop: begin / step×duration / finish.
    # ------------------------------------------------------------------
    def begin(self, duration_s: int) -> ServeResult:
        """Open a run: allocate the result, snapshot the baselines."""
        result = ServeResult(engine=self.engine.name, duration_s=duration_s)
        self.recorder.begin(result)
        # Arrival timestamps are relative to the run's first tick; the
        # engine keeps its own absolute clock (it may have ticked before).
        self._start_tick = self.clock.now
        self._next_arrival = next(self.arrivals, None)
        self._result = result
        return result

    def step(self) -> None:
        """Advance the run by one virtual second."""
        result = self._result
        if result is None:
            raise EngineError("step() before begin()")
        now = self.clock.now - self._start_tick
        arrived = self._ingest(now, result)
        self.engine.tick(self.clock.now)
        utilization = self.engine.disk.utilization()
        reads = self._dispatch(now, utilization, result)
        recorder = self.recorder
        stall = recorder.stall_tick()
        self._stall_window.append((now, stall))
        if self.flight is not None:
            self.flight.observe_stall(now, stall)
        cutoff = now - self.admission.policy.stall_window_s
        while self._stall_window and self._stall_window[0][0] <= cutoff:
            self._stall_window.popleft()
        controller = self.controller
        if (
            controller is not None
            and now
            and now % controller.interval_s == 0
        ):
            decisions = controller.tick(now)
            if decisions:
                result.control_decisions.extend(decisions)
        # Sampled after the controller tick: a resize it makes shows in
        # this tick's cache_usage point.
        result.queue_depth.add(now, float(len(self.scheduler)))
        result.offered_qps.add(now, float(arrived) * self.config.ops_scale)
        ratio = recorder.sample(now, reads, utilization, stall)
        if ratio is not None and self.flight is not None:
            self.flight.observe_hit_ratio(now, ratio)
        self.clock.advance(1)

    def finish(self) -> ServeResult:
        """Close the run: event/bandwidth/stall windows onto the result."""
        result = self._result
        if result is None:
            raise EngineError("finish() before begin()")
        self.recorder.finish()
        if self.tracer is not None:
            result.trace_mode = self.tracer.mode
            result.exemplars = self.tracer.exemplars()
        if self.flight is not None:
            result.flight_dumps = [dict(d) for d in self.flight.dumps]
        self._result = None
        return result

    def run(self, duration_s: int) -> ServeResult:
        self.begin(duration_s)
        for _ in range(duration_s):
            self.step()
        return self.finish()

    @property
    def current_result(self) -> ServeResult | None:
        """The in-flight result between begin() and finish() (live views)."""
        return self._result

    # ------------------------------------------------------------------
    # Migration fencing (used by the cluster tier's shard split).
    # ------------------------------------------------------------------
    def extract_pending(
        self, predicate: Callable[[int], bool]
    ) -> tuple[list[Request], list[tuple[float, int, Request]]]:
        """Remove every pending request whose key matches ``predicate``.

        Returns ``(queued, retries)``: the scheduler-queued requests in
        dispatch order and the deferred-write retry entries (heap items,
        untouched so their retry times survive the move).  After this
        call the shard will never dispatch a request for the drained
        keys — the fence a split needs before handing the range over.
        """
        queued = self.scheduler.drain(
            lambda request: predicate(request.key)
        )
        retries = [
            item for item in self._retry_heap if predicate(item[2].key)
        ]
        if retries:
            self._retry_heap = [
                item for item in self._retry_heap if not predicate(item[2].key)
            ]
            heapq.heapify(self._retry_heap)
        return queued, retries

    def adopt_pending(
        self,
        queued: list[Request],
        retries: list[tuple[float, int, Request]],
    ) -> int:
        """Take over requests fenced out of another shard.

        Queued requests re-offer into this shard's scheduler in their
        original dispatch order (overflow sheds, attributed on the bus);
        deferred writes keep their retry clocks.  Returns how many
        queued requests were admitted.
        """
        result = self._result
        if result is None:
            raise EngineError("adopt_pending() before begin()")
        adopted = 0
        for request in queued:
            stats = self._class_ledger(request, result)
            if self.scheduler.offer(request):
                adopted += 1
                depth = len(self.scheduler)
                if depth > result.max_queue_depth:
                    result.max_queue_depth = depth
                continue
            stats.shed += 1
            self.engine.bus.emit(
                RequestShed(
                    klass=request.klass,
                    op=request.op,
                    reason="migration-overflow",
                    retries=request.retries,
                )
            )
        for item in retries:
            heapq.heappush(self._retry_heap, item)
        return adopted

    # ------------------------------------------------------------------
    # Ingestion: arrivals + due retries through admission control.
    # ------------------------------------------------------------------
    def _recent_stall_s(self) -> float:
        return sum(stall for _, stall in self._stall_window)

    @staticmethod
    def _class_ledger(request: Request, result: ServeResult) -> ClassStats:
        """The request's class ledger (a class first seen mid-run gets one)."""
        stats = result.class_stats.get(request.klass)
        if stats is None:
            stats = result.class_stats[request.klass] = ClassStats(op=request.op)
        return stats

    def _ingest(self, now: int, result: ServeResult) -> int:
        """Offer this second's arrivals and due retries; returns arrivals."""
        new_arrivals = 0
        horizon = now + 1.0
        # The stall window only moves at the end of step(), after
        # dispatch, so one sum serves every admission decision this tick.
        recent_stall_s = self._recent_stall_s()
        arrival = self._next_arrival
        while True:
            retry_due = (
                self._retry_heap and self._retry_heap[0][0] < horizon
            )
            arrival_due = arrival is not None and arrival.arrival_s < horizon
            if retry_due and arrival_due:
                # Interleave strictly by time so admission sees queue
                # depth in event order.
                retry_due = self._retry_heap[0][0] <= arrival.arrival_s
                arrival_due = not retry_due
            if retry_due:
                _, _, request = heapq.heappop(self._retry_heap)
                self._offer(request, result, recent_stall_s, is_retry=True)
            elif arrival_due:
                new_arrivals += 1
                self._offer(arrival, result, recent_stall_s, is_retry=False)
                arrival = next(self.arrivals, None)
            else:
                break
        self._next_arrival = arrival
        return new_arrivals

    def _offer(
        self,
        request: Request,
        result: ServeResult,
        recent_stall_s: float,
        is_retry: bool,
    ) -> None:
        stats = self._class_ledger(request, result)
        if is_retry:
            stats.retried += 1
        else:
            stats.arrived += 1
        action, reason = self.admission.decide(
            request, len(self.scheduler), recent_stall_s
        )
        if action == DEFER:
            request.retries += 1
            retry_at = request.arrival_s + (
                self.admission.policy.retry_after_s * request.retries
            )
            stats.deferred += 1
            heapq.heappush(self._retry_heap, (retry_at, request.seq, request))
            self.engine.bus.emit(
                WriteDeferred(
                    klass=request.klass,
                    retry_at_s=retry_at,
                    reason=reason,
                    retries=request.retries,
                )
            )
            return
        if action == ADMIT:
            if self.scheduler.offer(request):
                stats.admitted += 1
                depth = len(self.scheduler)
                if depth > result.max_queue_depth:
                    result.max_queue_depth = depth
                return
            reason = "queue-full"
        stats.shed += 1
        self.engine.bus.emit(
            RequestShed(
                klass=request.klass,
                op=request.op,
                reason=reason,
                retries=request.retries,
            )
        )

    # ------------------------------------------------------------------
    # Dispatch: queued requests against the engine, thread-budgeted.
    # ------------------------------------------------------------------
    def _dispatch(
        self, now: int, utilization: float, result: ServeResult
    ) -> int:
        config = self.config
        threads = float(config.read_threads)
        budget = threads - self._read_debt
        reads = 0
        dispatched = 0
        while budget > 0.0 and dispatched < MAX_READS_PER_TICK:
            request = self.scheduler.pop()
            if request is None:
                break
            dispatched += 1
            # Intra-tick start offset: requests dispatched later in the
            # second start later, in proportion to thread-time already
            # spent this tick.
            spent = threads - self._read_debt - budget
            start_s = now + min(1.0, max(0.0, spent / threads))
            if request.op == "write":
                stall_before = self.engine.stats.stall_seconds
                seq = self.engine.put(request.key)
                if self.observer is not None:
                    self.observer.on_write(request, seq)
                stall_s = self.engine.stats.stall_seconds - stall_before
                # One simulated write stands for ops_scale real writes'
                # worth of ingestion; a stall blocks the write path once.
                budget -= self.pricer.write_s * config.ops_scale + stall_s
                service_s = self.pricer.write_s + stall_s
                result.writes_applied += 1
            else:
                if request.op == "scan":
                    scan = self.engine.scan(request.key, request.key_high)
                    cost, pairs = scan.cost, len(scan.entries)
                else:
                    got = self.engine.get(request.key)
                    if self.observer is not None:
                        self.observer.on_read(request, got)
                    cost, pairs = got.cost, 0
                is_scan = request.op == "scan"
                # The unscaled service seconds *are* the recorded
                # service time; scaling by ops_scale afterwards yields
                # the same budget debit the closed-loop pricer charges,
                # and keeps service_s bitwise equal to the left-to-right
                # sum of the pricer's stage terms (the tracing layer's
                # exact-reconciliation contract).
                seconds = self.pricer.service_seconds(
                    cost, pairs, utilization, is_scan
                )
                budget -= seconds * config.ops_scale
                service_s = seconds
                result.reads_completed += 1
                reads += 1
            queue_delay_s = max(0.0, start_s - request.arrival_s)
            total_s = queue_delay_s + service_s
            tracer = self.tracer
            if tracer is not None:
                if request.op == "write":
                    tracer.offer_write(
                        request, queue_delay_s, service_s, total_s, stall_s
                    )
                else:
                    tracer.offer_read(
                        request,
                        queue_delay_s,
                        service_s,
                        total_s,
                        cost,
                        pairs,
                        utilization,
                        is_scan,
                    )
                if self.flight is not None:
                    self.flight.observe_latency(
                        now, total_s, request.seq, request.klass
                    )
            self._complete(request, queue_delay_s, service_s, total_s, result)
        self._read_debt = -budget if budget < 0.0 else 0.0
        return reads

    def _complete(
        self,
        request: Request,
        queue_delay_s: float,
        service_s: float,
        total_s: float,
        result: ServeResult,
    ) -> None:
        stats = result.class_stats[request.klass]
        stats.completed += 1
        stats.queue_delay_s.append(queue_delay_s)
        stats.service_s.append(service_s)
        stats.latency_s.append(total_s)
        if request.op != "write":
            result.read_latencies_s.append(total_s)
        self._completed_count += 1
        if (
            self._completed_count % self.request_sample_every == 0
            and len(result.request_samples) < _MAX_REQUEST_SAMPLES
        ):
            result.request_samples.append(
                {
                    "seq": request.seq,
                    "klass": request.klass,
                    "op": request.op,
                    "arrival_s": request.arrival_s,
                    "queue_delay_s": queue_delay_s,
                    "service_s": service_s,
                    "total_s": total_s,
                    "retries": request.retries,
                }
            )


@dataclass
class ServeSession:
    """A fully wired serve run, prepared but not yet driven."""

    spec: ServiceSpec
    setup: object  # repro.sim.experiment.ExperimentSetup
    simulator: ServiceSimulator
    duration_s: int


def serve_duration(spec: ServiceSpec, config: SystemConfig) -> int:
    """Virtual seconds the spec's run lasts."""
    return spec.duration_s if spec.duration_s is not None else config.duration_s


def serve_arrivals(spec: ServiceSpec, config: SystemConfig) -> Iterator[Request]:
    """The spec's whole merged arrival stream, drawn as it is read.

    Every call builds new :class:`Request` objects: a run mutates
    ``Request.retries``, so a stream is never shared between runs.
    """
    return arrival_stream(
        spec.client_classes(config),
        config,
        RangeHotWorkload(config),
        serve_duration(spec, config),
        spec.seed,
    )


def prepare_serve(
    spec: ServiceSpec,
    owned: Callable[[int], bool] | None = None,
    arrivals: Iterable[Request] | None = None,
    observer: DispatchObserver | None = None,
    shard: int | None = None,
) -> ServeSession:
    """Build the engine stack and arrival stream for one serve run.

    ``owned`` filters *data placement*: which preloaded keys (and which
    warm-cache touches) belong to this engine.  ``arrivals`` is the
    requests this engine serves, in arrival order; ``None`` means the
    spec's whole stream (:func:`serve_arrivals`).  Either way nothing is
    drawn here: the run reads the stream as it goes.  With both left at
    their defaults the session is exactly the single-engine run.  The
    cluster tier passes a shard-ownership predicate and the shard's
    bucket of the whole stream instead
    (:func:`repro.cluster.shard.partition_arrivals`): the stream is
    always drawn whole and only then divided, so request seqs,
    timestamps and key choices are identical across every shard count
    (a request routes somewhere, never changes).
    """
    from repro.sim.experiment import build_engine

    config = spec.config()
    setup = build_engine(spec.engine, config)
    if spec.do_preload:
        entries = [
            Entry(key, 0)
            for key in range(config.unique_keys)
            if owned is None or owned(key)
        ]
        setup.engine.bulk_load(entries)
    if spec.warm_cache:
        # One unaccounted pass over the hot range: serving starts from
        # the steady state the closed-loop figures reach after warm-up.
        workload = RangeHotWorkload(config)
        for key in range(workload.hot_start, workload.hot_start + workload.hot_size):
            if owned is None or owned(key):
                setup.engine.get(key)
    classes = spec.client_classes(config)
    duration = serve_duration(spec, config)
    if arrivals is None:
        arrivals = serve_arrivals(spec, config)
    scheduler = make_scheduler(spec.policy, spec.queue_bound, classes)
    admission = AdmissionController(
        AdmissionPolicy(
            queue_bound=spec.queue_bound,
            admit_queue_fraction=spec.admit_queue_fraction,
            retry_after_s=spec.retry_after_s,
            max_retries=spec.max_retries,
        )
    )
    tracer: RequestTracer | None = None
    flight: FlightRecorder | None = None
    if spec.trace != "off":
        tracer = RequestTracer(mode=spec.trace, seed=spec.seed, shard=shard)
        flight = FlightRecorder(
            clock=setup.clock,
            bus=setup.substrate.bus,
            policy=FlightPolicy(
                slo_total_s=spec.trace_slo_s,
                stall_spike_s=spec.trace_stall_spike_s,
                dip_threshold=spec.trace_dip_threshold,
            ),
            shard=shard,
            out_dir=spec.trace_dir,
            label=safe_label(spec.label()),
        )
    controller = make_controller(spec.controller, spec.control_interval_s)
    simulator = ServiceSimulator(
        setup.engine,
        config,
        setup.clock,
        arrivals,
        scheduler,
        admission,
        request_sample_every=spec.request_sample_every,
        observer=observer,
        tracer=tracer,
        flight=flight,
        controller=controller,
    )
    return ServeSession(
        spec=spec, setup=setup, simulator=simulator, duration_s=duration
    )


def finalize_serve(session: ServeSession, result: ServeResult) -> ServeResult:
    """Stamp spec metadata and the closing registry snapshot on a result."""
    spec = session.spec
    config = session.simulator.config
    result.policy = spec.policy
    result.arrival = spec.arrival
    result.offered_read_qps = spec.read_rate_qps
    result.ops_scale = config.ops_scale
    result.controller = spec.controller
    result.config_note = (
        f"serve; policy={spec.policy}; arrival={spec.arrival}; "
        f"rate={spec.read_rate_qps:g}qps"
    )
    if spec.controller != "off":
        result.config_note += f"; controller={spec.controller}"
    result.metrics = session.setup.substrate.registry.snapshot()
    tracer = session.simulator.tracer
    if tracer is not None and spec.trace_dir and result.exemplars:
        shard_part = "" if tracer.shard is None else f"_shard{tracer.shard}"
        write_jsonl(
            f"{spec.trace_dir}/trace_{safe_label(spec.label())}"
            f"{shard_part}.jsonl",
            result.exemplars,
        )
    return result


def execute_serve(spec: ServiceSpec) -> ServeResult:
    """Materialize one :class:`ServiceSpec` into its measured result.

    The serve counterpart of :func:`repro.sim.experiment.execute`: build
    the engine stack, preload the unique data set, then run the service
    loop over the arrival stream, drawn as it is read.  The result
    carries the substrate registry's closing snapshot like every other
    run.
    """
    session = prepare_serve(spec)
    result = session.simulator.run(session.duration_s)
    return finalize_serve(session, result)
