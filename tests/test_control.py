"""Tests for the adaptive runtime controller (repro.control).

The controller's claims are proven against artifacts the repo already
trusts:

* actuator safety — ``Cache.resize`` / ``set_memtable_budget`` /
  ``TrimProcess.retune`` / ``AdmissionController.retune`` clamp and
  validate, and a Hypothesis property interleaves arbitrary resizes
  with a KVOracle-shadowed workload to show no entry is ever lost or
  resurrected;
* the ``static`` controller is indistinguishable from a controller-free
  run — ordered event streams and full lossless result dicts match over
  the pinned differential seeds in ``tests/seeds.json``;
* ``rules`` and ``gradient`` make structured, bus-visible decisions and
  keep the memory ledger inside its documented clamps;
* controller runs stay jobs-independent (``jobs=1`` ≡ ``jobs=2``) for
  both the serve grid and the sharded cluster tier;
* ``diagnose_dips`` attributes a controller-induced cache shrink to the
  control events, not to a coincident compaction.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache.db_cache import DBBufferCache
from repro.cache.os_cache import OSBufferCache
from repro.check.oracle import KVOracle
from repro.cluster import ClusterSpec, run_cluster
from repro.config import SystemConfig
from repro.control import (
    CONTROLLER_NAMES,
    GradientController,
    RulesController,
    StaticController,
    make_controller,
)
from repro.errors import ConfigError
from repro.obs.diagnose import diagnose_dips, diagnose_shard_dips
from repro.obs.events import CacheResized, MemtableResized
from repro.serve.admission import AdmissionController, AdmissionPolicy
from repro.serve.result import ServeResult
from repro.serve.service import execute_serve, finalize_serve, prepare_serve
from repro.serve.spec import ServiceSpec, expand_serve_grid
from repro.sim.experiment import build_engine
from repro.sim.metrics import TimeSeries
from repro.sim.sweep import run_sweep
from repro.sstable.entry import value_for

PINNED_SEEDS = json.loads(
    (Path(__file__).parent / "seeds.json").read_text()
)["differential"]["seeds"]

SCALE = 8192
DURATION = 300
RATE = 30_000.0


def serve_spec(**overrides) -> ServiceSpec:
    params: dict = dict(
        engine="lsbm",
        scale=SCALE,
        duration_s=DURATION,
        read_rate_qps=RATE,
        seed=0,
    )
    params.update(overrides)
    return ServiceSpec(**params)


def run_with_events(spec: ServiceSpec) -> tuple[list[str], ServeResult]:
    """Run one serve spec recording the ordered engine event stream."""
    session = prepare_serve(spec)
    events: list[str] = []
    session.setup.engine.bus.subscribe_all(lambda e: events.append(repr(e)))
    result = finalize_serve(
        session, session.simulator.run(session.duration_s)
    )
    return events, result


# ----------------------------------------------------------------------
# Actuators.
# ----------------------------------------------------------------------
def _filled_cache(kind: str, capacity: int, keys: int):
    """A DB or OS cache holding ``keys`` blocks/pages of file 1 in order."""
    if kind == "db":
        cache = DBBufferCache(capacity)
        for block in range(keys):
            cache.insert(file_id=1, block_index=block)
    else:
        cache = OSBufferCache(capacity_pages=capacity, page_size_kb=4)
        cache.read_for_compaction(address_kb=0, size_kb=4 * keys)
    assert len(cache) == keys
    return cache


class TestCacheResize:
    @pytest.mark.parametrize("kind", ["db", "os"])
    def test_shrink_evicts_to_new_capacity(self, kind):
        cache = _filled_cache(kind, 8, 8)
        resident = list(cache._order)
        evicted = cache.resize(3)
        assert evicted == 5
        assert len(cache) == 3
        assert cache.stats.evictions == 5
        assert list(cache._order) == resident[5:]  # The LRU five left.
        if kind == "db":
            assert cache.capacity_blocks == 3
            assert cache.cached_blocks(1) == 3
        else:
            assert cache.capacity_pages == 3

    @pytest.mark.parametrize("kind", ["db", "os"])
    def test_grow_evicts_nothing(self, kind):
        cache = _filled_cache(kind, 4, 4)
        resident = list(cache._order)
        assert cache.resize(16) == 0
        assert list(cache._order) == resident
        if kind == "db":
            assert cache.capacity_blocks == 16
            assert cache.cached_blocks(1) == 4
        else:
            assert cache.capacity_pages == 16

    def test_db_cache_noop_resize(self):
        cache = DBBufferCache(4)
        assert cache.resize(4) == 0

    def test_db_cache_rejects_nonpositive_capacity(self):
        cache = DBBufferCache(4)
        with pytest.raises(ValueError):
            cache.resize(0)

    def test_resize_emits_cache_resized_event(self):
        config = SystemConfig.tiny()
        setup = build_engine("lsbm", config)
        events = []
        setup.substrate.bus.subscribe(CacheResized, events.append)
        for block in range(4):
            setup.engine.db_cache.insert(file_id=1, block_index=block)
        setup.engine.db_cache.resize(2)
        assert len(events) == 1
        assert events[0].old_capacity == config.cache_blocks
        assert events[0].new_capacity == 2
        assert events[0].evicted == 2

    def test_shrink_keeps_per_file_accounting_consistent(self):
        cache = DBBufferCache(6)
        for block in range(4):
            cache.insert(file_id=7, block_index=block)
        for block in range(2):
            cache.insert(file_id=8, block_index=block)
        cache.resize(2)
        assert (
            cache.cached_blocks(7) + cache.cached_blocks(8)
            == len(cache)
            == 2
        )


class TestMemtableBudget:
    def test_set_budget_emits_event_and_moves_pressure(self):
        config = SystemConfig.tiny()
        setup = build_engine("blsm", config)
        engine = setup.engine
        events = []
        setup.substrate.bus.subscribe(MemtableResized, events.append)
        assert engine.memtable_budget_kb == config.level0_size_kb
        engine.put(1)
        before = engine.l0_pressure
        engine.set_memtable_budget(config.level0_size_kb * 2)
        assert engine.memtable_budget_kb == config.level0_size_kb * 2
        assert engine.l0_pressure == pytest.approx(before / 2)
        assert len(events) == 1
        assert events[0].old_kb == config.level0_size_kb
        assert events[0].new_kb == config.level0_size_kb * 2

    def test_budget_clamped_to_file_size_floor(self):
        config = SystemConfig.tiny()
        setup = build_engine("lsbm", config)
        setup.engine.set_memtable_budget(1)
        assert setup.engine.memtable_budget_kb == config.file_size_kb

    def test_noop_budget_change_emits_nothing(self):
        setup = build_engine("lsbm", SystemConfig.tiny())
        events = []
        setup.substrate.bus.subscribe(MemtableResized, events.append)
        setup.engine.set_memtable_budget(setup.engine.memtable_budget_kb)
        assert events == []

    def test_shrunk_budget_still_flushes(self):
        """A smaller live budget flushes earlier, not never."""
        config = SystemConfig.tiny()
        setup = build_engine("lsbm", config)
        engine = setup.engine
        engine.set_memtable_budget(config.file_size_kb)
        flushes_before = engine.stats.flushes
        for key in range(200):
            engine.put(key)
        assert engine.stats.flushes > flushes_before


class TestTrimAndAdmissionRetune:
    def test_trim_retune_clamps(self):
        config = SystemConfig.tiny()
        setup = build_engine("lsbm", config)
        trim = setup.engine.buffer.trim
        trim.retune(threshold=5.0, interval_s=0)
        assert trim.threshold == 1.0
        assert trim.interval_s == 1
        trim.retune(threshold=0.001)
        assert trim.threshold == 0.05

    def test_admission_retune_recomputes_defer_depth(self):
        controller = AdmissionController(AdmissionPolicy(queue_bound=64))
        assert controller.defer_depth == 48
        controller.retune(admit_queue_fraction=0.5)
        assert controller.defer_depth == 32
        assert controller.policy.admit_queue_fraction == 0.5

    def test_admission_retune_validates(self):
        controller = AdmissionController(AdmissionPolicy())
        with pytest.raises(ConfigError):
            controller.retune(admit_queue_fraction=2.0)
        # The failed retune left the old policy in force.
        assert controller.policy.admit_queue_fraction == 0.75


# ----------------------------------------------------------------------
# Registry + spec plumbing.
# ----------------------------------------------------------------------
class TestControllerRegistry:
    def test_off_builds_none(self):
        assert make_controller("off") is None

    def test_all_names_build(self):
        built = {
            name: make_controller(name, interval_s=10)
            for name in CONTROLLER_NAMES
            if name != "off"
        }
        assert isinstance(built["static"], StaticController)
        assert isinstance(built["rules"], RulesController)
        assert isinstance(built["gradient"], GradientController)
        assert all(c.interval_s == 10 for c in built.values())

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError):
            make_controller("pid")

    def test_spec_validates_controller(self):
        with pytest.raises(ConfigError):
            serve_spec(controller="pid")
        with pytest.raises(ConfigError):
            serve_spec(controller="rules", control_interval_s=0)

    def test_cell_key_only_tags_controlled_runs(self):
        plain = serve_spec()
        controlled = serve_spec(controller="rules", control_interval_s=15)
        assert "ctl" not in plain.cell_key()
        assert "ctl:rules" in controlled.cell_key()
        assert "ci15" in controlled.cell_key()
        default_interval = serve_spec(controller="rules")
        assert "ci" not in default_interval.cell_key().replace("ctl:", "")

    def test_spec_roundtrip_keeps_controller(self):
        spec = serve_spec(controller="gradient", control_interval_s=45)
        assert ServiceSpec.from_dict(spec.to_dict()) == spec

    def test_cluster_spec_threads_controller(self):
        spec = ClusterSpec(
            engine="lsbm", num_shards=2, scale=SCALE, duration_s=DURATION,
            controller="rules", control_interval_s=25,
        )
        assert spec.service_spec().controller == "rules"
        assert spec.service_spec().control_interval_s == 25
        assert ClusterSpec.from_dict(spec.to_dict()) == spec
        assert "ctl:rules" in spec.cell_key()


# ----------------------------------------------------------------------
# Static controller: provably inert.
# ----------------------------------------------------------------------
class TestStaticIdentity:
    @pytest.mark.parametrize("seed", PINNED_SEEDS)
    def test_event_stream_identical_to_controller_free(self, seed):
        events_off, result_off = run_with_events(serve_spec(seed=seed))
        events_static, result_static = run_with_events(
            serve_spec(seed=seed, controller="static")
        )
        assert events_off, "run emitted no events"
        assert events_off == events_static
        off, static = result_off.to_dict(), result_static.to_dict()
        assert off.pop("controller") == "off"
        assert static.pop("controller") == "static"
        # The only other permitted delta is the human-facing note naming
        # the controller; everything measured must match exactly.
        note = off.pop("config_note")
        assert static.pop("config_note") == f"{note}; controller=static"
        assert off == static

    def test_static_registers_no_control_metrics(self):
        _, result = run_with_events(serve_spec(controller="static"))
        assert not any(
            name.startswith("control.") for name in result.metrics
        )


# ----------------------------------------------------------------------
# Rules + gradient behavior.
# ----------------------------------------------------------------------
#: Write-heavy, bursty offered load that reliably stalls the tiny
#: config's write path, so the controllers have pressure to react to.
STRESS = dict(
    engine="lsbm",
    write_rate_qps=60_000.0,
    arrival="bursty",
    control_interval_s=20,
)


class TestRulesController:
    def test_decisions_are_structured_and_bus_visible(self):
        result = execute_serve(serve_spec(controller="rules", **STRESS))
        assert result.controller == "rules"
        assert result.control_decisions, "stress run made no decisions"
        for decision in result.control_decisions:
            assert set(decision) == {
                "t", "controller", "action", "knob", "old", "new", "reason"
            }
            assert decision["controller"] == "rules"
            assert decision["old"] != decision["new"]
            assert 0 < decision["t"] <= DURATION
        assert result.event_counts.get("ControlDecision", 0) == len(
            result.control_decisions
        )
        assert result.metrics["control.decisions"] == len(
            result.control_decisions
        )

    def test_pressure_grows_memtable_budget(self):
        result = execute_serve(serve_spec(controller="rules", **STRESS))
        budget_moves = [
            d for d in result.control_decisions
            if d["knob"] == "memtable_budget_kb"
        ]
        assert budget_moves
        assert budget_moves[0]["new"] > budget_moves[0]["old"]

    def test_decision_times_align_to_interval(self):
        result = execute_serve(serve_spec(controller="rules", **STRESS))
        interval = STRESS["control_interval_s"]
        assert all(
            d["t"] % interval == 0 for d in result.control_decisions
        )

    def test_calm_run_holds_steady(self):
        """Low offered load never crosses the pressure band, so the
        hysteresis controller makes no (or only restoring) moves."""
        result = execute_serve(
            serve_spec(
                controller="rules", read_rate_qps=500.0,
                write_rate_qps=200.0, control_interval_s=20,
            )
        )
        pressure_moves = [
            d for d in result.control_decisions
            if d["knob"] == "memtable_budget_kb" and d["new"] > d["old"]
        ]
        assert not pressure_moves


class TestGradientController:
    def test_hill_climb_moves_memory_within_clamps(self):
        spec = serve_spec(controller="gradient", **STRESS)
        session = prepare_serve(spec)
        engine = session.setup.engine
        config = session.setup.config
        base_budget = engine.memtable_budget_kb
        base_cache = engine.db_cache.capacity_blocks
        result = finalize_serve(
            session, session.simulator.run(session.duration_s)
        )
        assert result.control_decisions
        assert config.file_size_kb <= engine.memtable_budget_kb <= base_budget * 4
        assert (
            max(1, base_cache // 4)
            <= engine.db_cache.capacity_blocks
            <= base_cache * 2
        )

    def test_moves_come_in_cache_memtable_pairs(self):
        result = execute_serve(serve_spec(controller="gradient", **STRESS))
        by_tick: dict[float, set[str]] = {}
        for decision in result.control_decisions:
            by_tick.setdefault(decision["t"], set()).add(decision["knob"])
        assert by_tick
        # Every gradient move rebalances: the ticks that touched the
        # memtable budget also touched the cache capacity.
        for knobs in by_tick.values():
            if "memtable_budget_kb" in knobs:
                assert "cache_capacity" in knobs


# ----------------------------------------------------------------------
# Jobs-independence: the decisions ride the lossless transport.
# ----------------------------------------------------------------------
class TestJobsIndependence:
    def test_serve_controller_grid_jobs_1_equals_jobs_2(self):
        specs = expand_serve_grid(
            ["lsbm"], [RATE], ["fifo"], [0, 1],
            scale=SCALE, duration_s=200,
            controller="rules", control_interval_s=20,
            write_rate_qps=60_000.0, arrival="bursty",
        )
        serial = run_sweep(specs, jobs=1)
        parallel = run_sweep(specs, jobs=2)
        assert any(
            o.result.control_decisions for o in serial.outcomes
        ), "grid exercised no control decisions"
        assert json.dumps(
            {o.spec.label(): o.result.to_dict() for o in serial.outcomes},
            sort_keys=True,
        ) == json.dumps(
            {o.spec.label(): o.result.to_dict() for o in parallel.outcomes},
            sort_keys=True,
        )

    def test_cluster_controller_jobs_1_equals_jobs_2(self):
        spec = ClusterSpec(
            engine="lsbm", num_shards=2, scale=SCALE, duration_s=200,
            read_rate_qps=RATE, write_rate_qps=60_000.0, arrival="bursty",
            controller="rules", control_interval_s=20,
        )
        serial = run_cluster(spec, jobs=1)
        parallel = run_cluster(spec, jobs=2)
        assert serial.to_dict() == parallel.to_dict()
        assert any(
            shard.control_decisions for shard in serial.shards
        ), "cluster run exercised no control decisions"


# ----------------------------------------------------------------------
# Transport.
# ----------------------------------------------------------------------
class TestTransport:
    def test_serve_result_roundtrips_control_decisions(self):
        result = execute_serve(serve_spec(controller="rules", **STRESS))
        assert result.control_decisions
        clone = ServeResult.from_dict(result.to_dict())
        assert clone.controller == "rules"
        assert clone.control_decisions == result.control_decisions
        assert clone.to_dict() == result.to_dict()

    def test_summary_exposes_control_section(self):
        result = execute_serve(serve_spec(controller="rules", **STRESS))
        summary = result.to_json_dict()
        control = summary["control"]
        assert control["controller"] == "rules"
        assert control["decisions"] == len(result.control_decisions)
        assert control["knobs"]
        uncontrolled = execute_serve(serve_spec(duration_s=100))
        assert "control" not in uncontrolled.to_json_dict()

    def test_bench_payload_with_controller_runs_validates(self):
        from benchmarks.common import validate_bench

        specs = [
            serve_spec(duration_s=100),
            serve_spec(duration_s=100, controller="rules"),
        ]
        payload = run_sweep(specs, jobs=1).to_payload("control-check")
        validate_bench(payload)


# ----------------------------------------------------------------------
# Diagnose attribution (controller-induced dips must name the
# controller, not a coincident compaction).
# ----------------------------------------------------------------------
class TestDiagnoseAttribution:
    @staticmethod
    def _dip_series() -> TimeSeries:
        series = TimeSeries("hit_ratio")
        for t, v in [(20, 0.9), (40, 0.9), (60, 0.4), (80, 0.9)]:
            series.add(t, v)
        return series

    def test_controller_shrink_explains_dip(self):
        records = [
            {"t": 55, "event": "ControlDecision", "knob": "cache_capacity"},
            {"t": 55, "event": "CacheResized", "evicted": 40},
        ]
        report = diagnose_dips(self._dip_series(), records, threshold=0.7)
        assert report.total_dips == 1
        diagnosis = report.diagnoses[0]
        assert diagnosis.explained
        assert diagnosis.cause_counts == {
            "ControlDecision": 1, "CacheResized": 1
        }
        # No compaction ran: nothing to misattribute to.
        assert "CompactionEnd" not in diagnosis.cause_counts

    def test_shrink_not_misattributed_to_stale_compaction(self):
        """A compaction well before the window must not soak up blame
        for a dip the controller caused."""
        records = [
            {"t": 5, "event": "CompactionEnd", "level": 1},
            {"t": 55, "event": "CacheResized", "evicted": 40},
            {"t": 55, "event": "MemtableResized"},
        ]
        report = diagnose_dips(
            self._dip_series(), records, threshold=0.7, window_s=40
        )
        diagnosis = report.diagnoses[0]
        assert diagnosis.cause_counts == {
            "CacheResized": 1, "MemtableResized": 1
        }

    def test_shard_dips_attribute_controller_per_shard(self):
        quiet = TimeSeries("hit_ratio")
        for t in (20, 40, 60, 80):
            quiet.add(t, 0.95)
        reports = diagnose_shard_dips(
            [quiet, self._dip_series()],
            [[], [{"t": 50, "event": "CacheResized", "evicted": 12}]],
            threshold=0.7,
        )
        assert reports[0].total_dips == 0
        assert reports[1].total_dips == 1
        assert reports[1].diagnoses[0].cause_counts == {"CacheResized": 1}

    def test_live_controller_events_reach_the_diagnoser(self):
        """End to end: a rules run's recorded event stream feeds
        ``diagnose_dips`` without error, and the control events appear
        in the causal record set."""
        from repro.obs.trace import TraceRecorder

        spec = serve_spec(controller="rules", **STRESS)
        session = prepare_serve(spec)
        recorder = TraceRecorder(
            session.setup.clock, session.setup.substrate.bus
        )
        result = finalize_serve(
            session, session.simulator.run(session.duration_s)
        )
        assert result.control_decisions
        names = {record["event"] for record in recorder.records}
        assert "ControlDecision" in names
        report = diagnose_dips(result.hit_ratio, recorder.records)
        assert report.fraction_explained >= 0.0  # renders without error


# ----------------------------------------------------------------------
# Hypothesis: resize interleavings preserve the KV contract.
# ----------------------------------------------------------------------
KEYS = st.integers(min_value=0, max_value=199)

STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), KEYS),
        st.tuples(st.just("get"), KEYS),
        st.tuples(st.just("delete"), KEYS),
        st.tuples(st.just("resize_db"), st.integers(1, 64)),
        st.tuples(st.just("resize_mem"), st.integers(1, 512)),
    ),
    min_size=20,
    max_size=120,
)


class TestResizeInterleavingProperty:
    @given(steps=STEPS)
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_interleaved_resizes_preserve_kv_oracle_differential(
        self, steps
    ):
        """No interleaving of cache/memtable resizes with writes,
        deletes and reads loses or resurrects an entry."""
        config = SystemConfig.tiny()
        setup = build_engine("lsbm", config)
        engine = setup.engine
        oracle = KVOracle()
        for kind, arg in steps:
            if kind == "put":
                oracle.put(arg, engine.put(arg))
            elif kind == "delete":
                engine.delete(arg)
                oracle.delete(arg)
            elif kind == "get":
                got = engine.get(arg)
                expect_found, expect_value = oracle.get(arg)
                assert got.found == expect_found
                if expect_found:
                    assert got.value == expect_value
            elif kind == "resize_db":
                engine.db_cache.resize(arg)
            else:
                engine.set_memtable_budget(arg)
            setup.clock.advance(1)
            engine.tick(setup.clock.now)
        for key in range(200):
            got = engine.get(key)
            expect_found, expect_value = oracle.get(key)
            assert got.found == expect_found
            if expect_found:
                assert got.value == expect_value

    def test_value_for_contract_holds_after_resizes(self):
        """Direct value check: a put survives an aggressive shrink of
        both the cache and the memtable budget."""
        config = SystemConfig.tiny()
        setup = build_engine("lsbm", config)
        engine = setup.engine
        seq = engine.put(42)
        engine.db_cache.resize(1)
        engine.set_memtable_budget(config.file_size_kb)
        for key in range(100, 160):
            engine.put(key)
        got = engine.get(42)
        assert got.found
        assert got.value == value_for(42, seq)


# ----------------------------------------------------------------------
# CLI: report --from degrades gracefully on unknown payload kinds.
# ----------------------------------------------------------------------
class TestReportFromUnknownKind:
    def test_control_kind_payload_renders_digest(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "control.json"
        path.write_text(json.dumps({
            "kind": "control",
            "name": "adaptive-dump",
            "schema_version": 3,
            "decisions": [{"t": 30, "knob": "cache_capacity"}],
        }))
        assert main(["report", "--from", str(path)]) == 0
        out = capsys.readouterr().out
        assert "unrecognized kind 'control'" in out
        assert "adaptive-dump" in out
        assert "schema_version: 3" in out

    def test_unknown_kind_json_digest_still_works(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "mystery.json"
        path.write_text(json.dumps({"kind": "mystery"}))
        assert main(["report", "--from", str(path), "--json"]) == 0
        digest = json.loads(capsys.readouterr().out)
        assert digest["kind"] == "mystery"
