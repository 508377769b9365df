"""Tests for the open-loop service layer (repro.serve).

Covers the arrival processes (determinism, achieved rates, merge
order), the scheduling policies, admission-control decisions, the
engine-level write-stall metric the admission path consumes, the
end-to-end service simulator (SLO reconciliation, shed/defer
attribution, queue bounds), transport losslessness, and the serve
grid's jobs=1 ≡ jobs=N determinism guarantee.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

from repro.config import SystemConfig
from repro.errors import ConfigError
from repro.serve import arrivals
from repro.serve.admission import ADMIT, DEFER, SHED, AdmissionController, AdmissionPolicy
from repro.serve.arrivals import ClientClass, Request, generate_arrivals
from repro.serve.result import ServeResult
from repro.serve.scheduler import make_scheduler
from repro.serve.service import (
    execute_serve,
    finalize_serve,
    prepare_serve,
    serve_arrivals,
)
from repro.serve.spec import ServiceSpec, expand_serve_grid
from repro.sim.experiment import build_engine
from repro.sim.sweep import run_sweep
from repro.workload.ycsb import RangeHotWorkload


def _tiny_classes(**changes) -> tuple[ClientClass, ...]:
    base = dict(name="readers", op="read", rate_qps=5.0)
    base.update(changes)
    return (ClientClass(**base),)


class TestClientClass:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ClientClass(name="", op="read", rate_qps=1.0)
        with pytest.raises(ConfigError):
            ClientClass(name="x", op="nope", rate_qps=1.0)
        with pytest.raises(ConfigError):
            ClientClass(name="x", op="read", rate_qps=-1.0)
        with pytest.raises(ConfigError):
            ClientClass(name="x", op="read", rate_qps=1.0, process="weird")
        with pytest.raises(ConfigError):
            ClientClass(name="x", op="read", rate_qps=1.0, burst_fraction=1.5)

    def test_round_trip(self):
        klass = ClientClass(
            name="w", op="write", rate_qps=7.5, process="bursty", weight=2
        )
        assert ClientClass.from_dict(klass.to_dict()) == klass


class TestArrivals:
    def setup_method(self):
        self.config = SystemConfig.tiny()
        self.workload = RangeHotWorkload(self.config)

    def _generate(self, classes, duration=2000, seed=0):
        return generate_arrivals(
            classes, self.config, self.workload, duration, seed
        )

    def test_deterministic_per_seed(self):
        classes = _tiny_classes()
        first = self._generate(classes)
        second = self._generate(classes)
        assert [(r.arrival_s, r.key) for r in first] == [
            (r.arrival_s, r.key) for r in second
        ]
        different = self._generate(classes, seed=1)
        assert [(r.arrival_s, r.key) for r in first] != [
            (r.arrival_s, r.key) for r in different
        ]

    def test_poisson_rate_achieved(self):
        # tiny config has ops_scale=1, so sim rate == rate_qps.
        stream = self._generate(_tiny_classes(rate_qps=5.0), duration=2000)
        assert len(stream) == pytest.approx(10_000, rel=0.1)

    def test_bursty_long_run_rate_matches(self):
        # A short mean burst gives many base/burst cycles in 2000s, so
        # the long-run average concentrates around the configured rate.
        stream = self._generate(
            _tiny_classes(process="bursty", rate_qps=5.0, mean_burst_s=5.0),
            duration=2000,
        )
        assert len(stream) == pytest.approx(10_000, rel=0.2)

    def test_bursty_is_burstier_than_poisson(self):
        duration = 2000
        def per_second_variance(stream):
            counts = [0] * duration
            for req in stream:
                counts[int(req.arrival_s)] += 1
            mean = sum(counts) / duration
            return sum((c - mean) ** 2 for c in counts) / duration

        poisson = per_second_variance(self._generate(_tiny_classes()))
        bursty = per_second_variance(
            self._generate(_tiny_classes(process="bursty"))
        )
        assert bursty > 2 * poisson

    def test_merged_stream_is_time_ordered_with_dense_seq(self):
        classes = (
            ClientClass(name="readers", op="read", rate_qps=4.0),
            ClientClass(name="writers", op="write", rate_qps=2.0),
            ClientClass(name="scanners", op="scan", rate_qps=1.0),
        )
        stream = self._generate(classes, duration=500)
        times = [r.arrival_s for r in stream]
        assert times == sorted(times)
        assert [r.seq for r in stream] == list(range(len(stream)))
        assert {r.klass for r in stream} == {"readers", "writers", "scanners"}
        scan = next(r for r in stream if r.op == "scan")
        assert scan.key_high > scan.key

    def test_rate_guard(self):
        with pytest.raises(ConfigError):
            self._generate(_tiny_classes(rate_qps=5_000.0), duration=500)

    def test_rate_guard_refuses_before_any_rng_is_built(self, monkeypatch):
        def no_rng(*args):
            raise AssertionError("an oversized spec drew a random number")

        monkeypatch.setattr(arrivals, "random", SimpleNamespace(Random=no_rng))
        with pytest.raises(ConfigError, match="exceeds"):
            self._generate(_tiny_classes(rate_qps=5_000.0), duration=500)

    def test_rate_guard_still_counts_what_was_drawn(self, monkeypatch):
        # Expected 50 arrivals under a cap of 100, but the draw yields 101.
        monkeypatch.setattr(arrivals, "_MAX_TOTAL_ARRIVALS", 100)
        monkeypatch.setattr(
            arrivals, "_arrival_times", lambda *args: [0.5] * 101
        )
        with pytest.raises(ConfigError, match="exceeds"):
            self._generate(_tiny_classes(rate_qps=1.0), duration=50)

    def test_rate_guard_refuses_an_expected_count_over_the_cap(
        self, monkeypatch
    ):
        # The declared edge: 101 expected against a cap of 100 is refused
        # even though this draw would have produced only 50.
        monkeypatch.setattr(arrivals, "_MAX_TOTAL_ARRIVALS", 100)
        monkeypatch.setattr(
            arrivals, "_arrival_times", lambda *args: [0.5] * 50
        )
        with pytest.raises(ConfigError, match="exceeds"):
            self._generate(_tiny_classes(rate_qps=1.0), duration=101)
        assert len(self._generate(_tiny_classes(rate_qps=1.0), duration=100)) == 50


def _request(seq, klass="readers", op="read", arrival=0.0, retries=0):
    return Request(
        seq=seq, klass=klass, op=op, key=0, arrival_s=arrival, retries=retries
    )


_CLASSES = (
    ClientClass(name="readers", op="read", rate_qps=1.0, weight=3),
    ClientClass(name="writers", op="write", rate_qps=1.0, weight=1),
)


class TestSchedulers:
    def test_fifo_order_and_bound(self):
        fifo = make_scheduler("fifo", 2, _CLASSES)
        assert fifo.offer(_request(0))
        assert fifo.offer(_request(1))
        assert not fifo.offer(_request(2))  # at bound
        assert fifo.pop().seq == 0
        assert fifo.pop().seq == 1
        assert fifo.pop() is None

    def test_read_priority_pops_reads_first(self):
        sched = make_scheduler("read-priority", 8, _CLASSES)
        sched.offer(_request(0, klass="writers", op="write"))
        sched.offer(_request(1))
        sched.offer(_request(2, klass="writers", op="write"))
        sched.offer(_request(3, op="scan"))
        assert [sched.pop().seq for _ in range(4)] == [1, 3, 0, 2]

    def test_weighted_fair_splits_by_weight(self):
        sched = make_scheduler("weighted-fair", 40, _CLASSES)
        for seq in range(20):
            sched.offer(_request(seq))
            sched.offer(_request(100 + seq, klass="writers", op="write"))
        first_cycle = [sched.pop().klass for _ in range(4)]
        assert first_cycle.count("readers") == 3
        assert first_cycle.count("writers") == 1
        # Weight share holds over a longer horizon too.
        drained = [sched.pop().klass for _ in range(20)]
        assert drained.count("readers") == 15
        assert drained.count("writers") == 5

    def test_weighted_fair_skips_empty_classes(self):
        sched = make_scheduler("weighted-fair", 8, _CLASSES)
        sched.offer(_request(0, klass="writers", op="write"))
        assert sched.pop().klass == "writers"
        assert sched.pop() is None

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError):
            make_scheduler("lifo", 4, _CLASSES)


class TestAdmission:
    def setup_method(self):
        self.controller = AdmissionController(
            AdmissionPolicy(
                queue_bound=10,
                admit_queue_fraction=0.5,
                max_retries=2,
                stall_budget_s=0.25,
            )
        )

    def test_reads_always_admit(self):
        action, _ = self.controller.decide(_request(0), 10, 99.0)
        assert action == ADMIT

    def test_writes_defer_under_queue_pressure(self):
        write = _request(0, klass="writers", op="write")
        assert self.controller.decide(write, 4, 0.0) == (ADMIT, "")
        assert self.controller.decide(write, 5, 0.0) == (
            DEFER,
            "queue-pressure",
        )

    def test_writes_defer_under_stall_pressure(self):
        write = _request(0, klass="writers", op="write")
        assert self.controller.decide(write, 0, 0.3) == (DEFER, "write-stall")

    def test_writes_shed_after_max_retries(self):
        write = _request(0, klass="writers", op="write", retries=2)
        action, reason = self.controller.decide(write, 9, 0.0)
        assert action == SHED
        assert reason == "queue-pressure"


class TestStallMetric:
    def test_engine_accrues_stall_seconds_under_write_pressure(self):
        config = SystemConfig.tiny()
        setup = build_engine("leveldb", config)
        engine = setup.engine
        pairs = int(3 * config.level0_size_kb / config.pair_size_kb)
        for key in range(pairs):
            engine.put(key)
        assert engine.stats.stall_seconds > 0
        snapshot = setup.substrate.registry.snapshot()
        assert snapshot["engine.stall_seconds"] == pytest.approx(
            engine.stats.stall_seconds
        )

    def test_run_result_stall_series_sums_to_total(self):
        from repro.sim.spec import ExperimentSpec
        from repro.sim.experiment import execute

        result = execute(
            ExperimentSpec(engine="leveldb", base="tiny", scale=0,
                           duration_s=400)
        )
        assert result.stall_seconds >= 0
        assert sum(result.stall.values) == pytest.approx(
            result.stall_seconds, abs=1e-9
        )


class TestServeEndToEnd:
    def _run(self, **changes) -> ServeResult:
        spec = ServiceSpec(
            engine="lsbm",
            base="tiny",
            scale=0,
            duration_s=400,
            read_rate_qps=3.0,
            **changes,
        )
        return execute_serve(spec)

    def test_latency_components_reconcile_exactly(self):
        result = self._run()
        assert result.request_samples
        assert result.reconciliation_max_error_s() == 0.0
        for sample in result.request_samples:
            assert sample["queue_delay_s"] >= 0
            assert sample["service_s"] > 0

    def test_class_accounting_invariants(self):
        result = self._run()
        for stats in result.class_stats.values():
            assert stats.completed <= stats.admitted <= stats.arrived
            assert len(stats.latency_s) == stats.completed
        readers = result.class_stats["readers"]
        assert readers.completed > 0
        assert readers.shed == 0  # reads are never shed by admission here
        assert result.reads_completed == readers.completed

    def test_sheds_and_deferrals_attributed_on_bus(self):
        result = self._run(
            arrival="bursty", write_rate_qps=24.0, queue_bound=16,
            max_retries=1,
        )
        assert result.total_deferred > 0
        assert result.total_shed > 0
        assert result.max_queue_depth <= 16
        assert result.event_counts.get("WriteDeferred", 0) == (
            result.total_deferred
        )
        assert result.event_counts.get("RequestShed", 0) == result.total_shed

    def test_queue_bound_respected_and_series_present(self):
        result = self._run(queue_bound=8)
        assert result.max_queue_depth <= 8
        assert max(result.queue_depth.values) <= 8
        assert len(result.offered_qps) == result.duration_s
        assert result.stall_seconds >= 0

    def test_transport_round_trips_through_json(self):
        result = self._run()
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["kind"] == "serve"
        restored = ServeResult.from_dict(payload)
        assert restored == result

    def test_policies_change_read_tail_under_write_load(self):
        fifo = self._run(policy="fifo", write_rate_qps=24.0)
        prio = self._run(policy="read-priority", write_rate_qps=24.0)
        f = fifo.class_stats["readers"].latency_s.percentile(99)
        p = prio.class_stats["readers"].latency_s.percentile(99)
        assert p <= f

    def test_one_class_ledger_per_client_class(self, monkeypatch):
        """A ClassStats seeds three Mersenne-Twister reservoirs: the run
        may build one per class, never one per offered request."""
        from repro.serve import service

        built: list[str] = []

        class CountingClassStats(service.ClassStats):
            def __init__(self, *args, **kwargs):
                built.append(kwargs.get("op", "?"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(service, "ClassStats", CountingClassStats)
        result = self._run(write_rate_qps=24.0, queue_bound=16)
        assert sum(s.arrived + s.retried for s in result.class_stats.values()) > 100
        assert len(built) <= len(result.class_stats) == 2

    def test_explicit_whole_stream_equals_generated_stream(self):
        """``arrivals=`` handed the whole stream is the ``None`` run."""
        spec = ServiceSpec(
            engine="lsbm", scale=8192, duration_s=300,
            read_rate_qps=30_000.0, seed=1,
        )

        def digest(session) -> str:
            result = finalize_serve(
                session, session.simulator.run(session.duration_s)
            )
            return json.dumps(result.to_dict(), sort_keys=True)

        stream = list(serve_arrivals(spec, spec.config()))
        assert stream
        assert digest(prepare_serve(spec, arrivals=stream)) == digest(
            prepare_serve(spec)
        )


class TestLazyStream:
    """A serve run draws its arrivals as it reads them."""

    def test_prepare_draws_nothing_and_a_step_draws_one_tick(self, monkeypatch):
        built: list[int] = []

        class CountingRequest(Request):
            __slots__ = ()

            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(arrivals, "Request", CountingRequest)
        spec = ServiceSpec(
            engine="lsbm", scale=8192, duration_s=300,
            read_rate_qps=30_000.0, write_rate_qps=20_000.0, seed=1,
        )
        classes = len(spec.client_classes(spec.config()))
        assert classes == 2
        session = prepare_serve(spec)
        assert not built
        simulator = session.simulator
        simulator.begin(session.duration_s)
        for _ in range(session.duration_s):
            simulator.step()
            ledgers = simulator.current_result.class_stats.values()
            arrived = sum(stats.arrived for stats in ledgers)
            # The merge holds one drawn request per class: the
            # simulator's lookahead and the other classes' heads.
            assert len(built) <= arrived + classes
        result = simulator.finish()
        assert arrived == len(built) > 1000
        # Ledgers open as classes first arrive, in stream order.
        stream = serve_arrivals(spec, spec.config())
        assert list(result.class_stats) == list(
            dict.fromkeys(request.klass for request in stream)
        )


class TestServiceSpec:
    def test_round_trip(self):
        spec = ServiceSpec(
            engine="lsbm",
            policy="weighted-fair",
            arrival="bursty",
            read_rate_qps=4000.0,
            queue_bound=32,
            classes=(
                ClientClass(name="hot", op="read", rate_qps=3000.0, weight=4),
            ),
        )
        assert ServiceSpec.from_dict(spec.to_dict()) == spec

    def test_validation(self):
        with pytest.raises(ConfigError):
            ServiceSpec(engine="lsbm", policy="lifo")
        with pytest.raises(ConfigError):
            ServiceSpec(engine="lsbm", arrival="weird")
        with pytest.raises(ConfigError):
            ServiceSpec(engine="lsbm", queue_bound=0)
        with pytest.raises(ConfigError):
            ServiceSpec(engine="lsbm", overrides=(("nonsense", 1),))

    def test_labels_distinguish_cells_not_seeds(self):
        a = ServiceSpec(engine="lsbm", read_rate_qps=2000.0, seed=0)
        b = ServiceSpec(engine="lsbm", read_rate_qps=2000.0, seed=1)
        c = ServiceSpec(engine="lsbm", read_rate_qps=8000.0, seed=0)
        assert a.cell_key() == b.cell_key()
        assert a.label() != b.label()
        assert a.cell_key() != c.cell_key()
        assert a.cell_key().startswith("serve/")

    def test_expand_grid_shape(self):
        specs = expand_serve_grid(
            ["leveldb", "lsbm"], [2000.0, 8000.0], ["fifo"], [0, 1]
        )
        assert len(specs) == 8
        assert len({spec.label() for spec in specs}) == 8


class TestServeGridDeterminism:
    def test_jobs_1_matches_jobs_2_bit_for_bit(self):
        specs = expand_serve_grid(
            ["leveldb", "lsbm"], [2000.0], ["fifo"], [0],
            scale=8192, duration_s=200,
        )
        serial = run_sweep(specs, jobs=1)
        parallel = run_sweep(specs, jobs=2)
        for left, right in zip(serial.outcomes, parallel.outcomes):
            assert left.spec == right.spec
            assert left.result == right.result
        assert json.dumps(
            {o.spec.label(): o.result.to_dict() for o in serial.outcomes},
            sort_keys=True,
        ) == json.dumps(
            {o.spec.label(): o.result.to_dict() for o in parallel.outcomes},
            sort_keys=True,
        )

    def test_mixed_experiment_and_serve_specs_in_one_sweep(self):
        from repro.sim.spec import ExperimentSpec

        specs = [
            ExperimentSpec(engine="lsbm", scale=8192, duration_s=150),
            ServiceSpec(engine="lsbm", scale=8192, duration_s=150,
                        read_rate_qps=2000.0),
        ]
        outcome = run_sweep(specs, jobs=1)
        assert isinstance(outcome.outcomes[1].result, ServeResult)
        assert not isinstance(outcome.outcomes[0].result, ServeResult)
        payload = outcome.to_payload("mixed")
        from benchmarks.common import validate_bench

        validate_bench(payload)
