"""Tests for the causal profiling layer.

Covers the four tentpole pieces — span traces, per-cause bandwidth
attribution, dip diagnosis, bench telemetry — plus the acceptance
criteria: the disabled path costs nothing, per-cause totals reconcile
with DiskStats, two same-seed profiled runs produce byte-identical
traces, and the Fig. 8 LevelDB run's dips are >= 80% attributable.
"""

from __future__ import annotations

import gc
import itertools
import json
import sys

import pytest

from repro.check.invariants import BandwidthAttributionChecker, attach_checkers
from repro.clock import VirtualClock
from repro.config import SystemConfig
from repro.lsm.base import ReadCost
from repro.obs.diagnose import (
    CAUSAL_EVENT_TYPES,
    diagnose_dips,
    find_dips,
    format_dip_report,
)
from repro.obs.events import (
    BufferFrozen,
    BufferUnfrozen,
    CacheInvalidated,
    CacheResized,
    CompactionEnd,
    CompactionStart,
    ControlDecision,
    EventBus,
    EventTally,
    FileCreated,
    FileDiscarded,
    FlushDone,
    MemtableResized,
    RangeMigrated,
    ReadSpan,
    TrimRun,
)
from repro.obs.trace import TraceRecorder, read_jsonl, stage_sum_s, write_jsonl
from repro.obs.tracing import (
    NULL_PROFILER,
    RequestTracer,
    SpanProfiler,
    read_stages,
)
from repro.serve.arrivals import Request
from repro.sim.driver import MixedReadWriteDriver
from repro.sim.experiment import (
    build_engine,
    execute_with_trace,
    preload,
    run_experiment,
)
from repro.sim.metrics import TimeSeries
from repro.sim.spec import ExperimentSpec
from repro.sim.report import mark_line, sparkline
from repro.storage.iomodel import ReadPricer
from tests.scalar_reference import price_read


def _cost_grid():
    """648 cost shapes: every priced counter at zero and at one or two more values."""
    for cached, paged, bloom, blocks, runs, seq_kb, tables in itertools.product(
        (0, 1, 7), (0, 3), (0, 2, 11), (0, 1, 5), (0, 4), (0.0, 16.0, 100.0), (0, 9)
    ):
        yield ReadCost(
            cache_hit_blocks=cached,
            os_hit_blocks=paged,
            bloom_probes=bloom,
            disk_random_blocks=blocks,
            seq_runs=runs,
            seq_kb=seq_kb,
            tables_checked=tables,
        )


class TestSpanProfiler:
    def test_enabled_requires_bus_and_config(self):
        with pytest.raises(ValueError):
            SpanProfiler(bus=EventBus())
        with pytest.raises(ValueError):
            SpanProfiler(config=SystemConfig.tiny())

    def test_sample_every_validated(self):
        with pytest.raises(ValueError):
            SpanProfiler(enabled=False, sample_every=0)

    def test_sampling_cadence(self):
        bus = EventBus()
        tally = EventTally(bus)
        profiler = SpanProfiler(
            bus=bus, config=SystemConfig.tiny(), sample_every=4
        )
        for _ in range(10):
            profiler.record_read(ReadCost(), 0.0)
        assert profiler.reads_seen == 10
        assert profiler.spans_emitted == 2  # At reads 4 and 8.
        assert tally.as_dict() == {"ReadSpan": 2}

    def test_read_stages_match_price_read(self):
        """A span's stage sum is the pricer's service time, bitwise."""
        config = SystemConfig.paper_scaled(2048)
        pricer = ReadPricer(config)
        shapes = 0
        for cost in _cost_grid():
            for utilization in (0.0, 0.3, 0.5, 0.95):
                for is_scan, pairs in ((False, 0), (True, 13)):
                    shapes += 1
                    stages = read_stages(
                        pricer, cost, pairs, utilization, is_scan
                    )
                    total_s = stage_sum_s(stages)
                    shape = (cost, utilization, is_scan)
                    assert total_s == pricer.service_seconds(
                        cost, pairs, utilization, is_scan
                    ), shape
                    assert total_s * config.ops_scale == price_read(
                        pricer, cost, pairs, utilization, is_scan
                    ), shape
                    assert all(stage["duration_s"] for stage in stages), shape
        assert shapes == 5184

    def test_span_carries_the_exemplar_stage_list(self):
        """For one read, the closed-loop span keeps exactly the stages a
        serve exemplar keeps, its total is their sum, and its cost is
        the read's own ReadCost."""
        config = SystemConfig.paper_scaled(2048)
        bus = EventBus()
        spans: list[ReadSpan] = []
        bus.subscribe(ReadSpan, spans.append)
        profiler = SpanProfiler(bus=bus, config=config, sample_every=1)
        tracer = RequestTracer(mode="full", seed=0)
        tracer.bind_pricer(ReadPricer(config))
        for seq, cost in enumerate(_cost_grid()):
            for utilization, is_scan, pairs in (
                (0.0, False, 0), (0.5, True, 13), (0.95, True, 0),
            ):
                profiler.record_read(cost, utilization, pairs, is_scan)
                request = Request(
                    seq=seq,
                    klass="readers",
                    op="scan" if is_scan else "read",
                    key=0,
                    arrival_s=0.0,
                )
                tracer.offer_read(
                    request, 0.0, 0.0, 0.0, cost, pairs, utilization, is_scan
                )
        exemplars = tracer.exemplars()
        assert len(spans) == len(exemplars) == 648 * 3
        for span, exemplar in zip(spans, exemplars):
            assert span.stages == exemplar["stages"]
            assert span.total_s == stage_sum_s(exemplar["stages"])
            assert span.op == ("scan" if exemplar["op"] == "scan" else "get")
            assert span.utilization == exemplar["utilization"]
        assert isinstance(spans[0].cost, ReadCost)

    def test_null_profiler_is_disabled_and_emits_nothing(self):
        assert not NULL_PROFILER.enabled
        for _ in range(5):
            NULL_PROFILER.record_read(ReadCost(disk_random_blocks=1), 0.5)
        assert NULL_PROFILER.reads_seen == 0
        assert NULL_PROFILER.spans_emitted == 0

    def test_disabled_record_read_allocates_nothing(self):
        """The NULL path is one attribute check — no allocations."""
        profiler = SpanProfiler(enabled=False)
        cost = ReadCost(disk_random_blocks=1)
        profiler.record_read(cost, 0.0)  # Warm any lazy interpreter state.
        gc.collect()
        before = sys.getallocatedblocks()
        for _ in range(1000):
            profiler.record_read(cost, 0.0)
        delta = sys.getallocatedblocks() - before
        assert delta <= 8, f"disabled record_read allocated {delta} blocks"

    def test_default_run_has_no_spans_and_no_span_instruments(self):
        """run_experiment (no profiler) must not pay for profiling."""
        config = SystemConfig.paper_scaled(8192)
        setup = build_engine("leveldb", config)
        preload(setup)
        driver = MixedReadWriteDriver(setup.engine, config, setup.clock, seed=1)
        assert driver.profiler is NULL_PROFILER
        result = driver.run(200)
        assert "ReadSpan" not in result.event_counts
        assert not any(
            "span" in name.lower()
            for name in setup.substrate.registry.snapshot()
        )


class TestBandwidthAttribution:
    @pytest.mark.parametrize("engine", ["leveldb", "lsbm", "hbase", "sm"])
    def test_totals_reconcile_with_disk_stats(self, engine):
        config = SystemConfig.paper_scaled(8192)
        setup = build_engine(engine, config)
        checkers = attach_checkers(setup)
        preload(setup)
        driver = MixedReadWriteDriver(setup.engine, config, setup.clock, seed=1)
        result = driver.run(400)
        checker = checkers["bandwidth-attribution"]
        checker.sweep()
        assert checker.ok, checker.report()
        # The run-window totals also reconcile: the engine was fresh, so
        # window == lifetime minus the preload's share.
        stats = setup.disk.stats
        window_read = sum(
            t["read_kb"] for t in result.bandwidth_kb_by_cause.values()
        )
        window_write = sum(
            t["write_kb"] for t in result.bandwidth_kb_by_cause.values()
        )
        assert window_read <= stats.seq_read_kb + 1e-9
        assert window_write <= stats.seq_write_kb + 1e-9
        assert "unattributed" not in result.bandwidth_kb_by_cause

    def test_untagged_io_is_flagged(self):
        substrate_config = SystemConfig.tiny()
        from repro.substrate import Substrate

        substrate = Substrate.create(substrate_config)
        checker = BandwidthAttributionChecker(substrate.disk)
        substrate.disk.background_write(4.0)  # No cause.
        checker.sweep()
        assert not checker.ok
        assert any("unattributed" in v for v in checker.violations)


class TestDipDiagnosis:
    def _series(self, values, spacing=20):
        series = TimeSeries("hit")
        for index, value in enumerate(values):
            series.add(index * spacing, value)
        return series

    def test_find_dips_matches_dips_below(self):
        import random

        rng = random.Random(9)
        series = self._series([rng.random() for _ in range(200)])
        for threshold in (0.3, 0.5, 0.7):
            for skip in (0, 10):
                assert len(find_dips(series, threshold, skip)) == (
                    series.dips_below(threshold, skip)
                )

    def test_dips_attributed_within_window(self):
        series = self._series([0.9, 0.9, 0.5, 0.9, 0.9, 0.4])
        records = [
            {"t": 35, "event": "CompactionEnd", "level": 2},
            {"t": 90, "event": "FlushDone"},  # Not causal.
        ]
        report = diagnose_dips(series, records, threshold=0.7, window_s=40)
        assert report.total_dips == 2
        assert report.explained_dips == 1  # t=40 dip; t=100 unexplained.
        assert report.cause_counts() == {"CompactionEnd": 1}
        assert report.top_levels() == [(2, 1)]
        text = format_dip_report(report)
        assert "dips: 2" in text and "unexplained" in text

    def test_empty_series_is_fully_explained(self):
        report = diagnose_dips(self._series([]), [], threshold=0.7)
        assert report.total_dips == 0
        assert report.fraction_explained == 1.0

    def test_json_dict_shape(self):
        series = self._series([0.9, 0.5])
        report = diagnose_dips(
            series,
            [{"t": 15, "event": "TrimRun", "removed": 1, "run_index": 0}],
            threshold=0.7,
            window_s=40,
        )
        payload = report.to_json_dict()
        assert payload["total_dips"] == 1
        assert payload["explained_dips"] == 1
        assert payload["dips"][0]["cause_counts"] == {"TrimRun": 1}
        json.dumps(payload)  # Fully serializable.

    def test_fig08_leveldb_dips_mostly_attributed(self):
        """Acceptance: >= 80% of the Fig. 8 LevelDB run's dips explained."""
        config = SystemConfig.paper_scaled(2048)
        result, recorder = execute_with_trace(
            ExperimentSpec.from_config(
                "leveldb", config, duration_s=12_000, seed=1,
                profile=True, sample_every=256,
            )
        )
        warm = max(1, len(result.hit_ratio) // 10)
        report = diagnose_dips(
            result.hit_ratio, recorder.records, threshold=0.7, skip=warm
        )
        assert report.total_dips >= 5  # The churn Fig. 8b shows.
        assert report.fraction_explained >= 0.8, format_dip_report(report)
        # Compactions, not trims, drive LevelDB's dips.
        assert report.cause_counts().get("CompactionEnd", 0) > 0


class TestGoldenTrace:
    def test_same_seed_runs_are_byte_identical(self, tmp_path):
        config = SystemConfig.paper_scaled(8192)
        traces = []
        for run in range(2):
            result, recorder = execute_with_trace(
                ExperimentSpec.from_config(
                    "lsbm", config, duration_s=400, seed=3,
                    profile=True, sample_every=8,
                )
            )
            path = tmp_path / f"run{run}.jsonl"
            write_jsonl(path, recorder.records)
            traces.append(path.read_text())
        assert traces[0], "trace must not be empty"
        assert "ReadSpan" in traces[0]
        assert traces[0] == traces[1]

    def test_read_jsonl_round_trips_every_event_type(self, tmp_path):
        clock = VirtualClock()
        bus = EventBus()
        recorder = TraceRecorder(clock, bus)
        events = [
            FlushDone(entries=5, files=1, size_kb=4.0),
            CompactionStart(level=0, input_files=2, input_kb=8.0),
            CompactionEnd(
                level=0, read_kb=8.0, write_kb=8.0, output_files=1,
                obsolete_entries=2,
            ),
            FileCreated(file_id=1, size_kb=4, extent_start=0),
            FileDiscarded(file_id=1, size_kb=4, reason="buffer"),
            CacheInvalidated(cache="db", file_id=1, blocks=2),
            TrimRun(removed=1, run_index=0),
            BufferFrozen(level=2),
            BufferUnfrozen(level=2),
            RangeMigrated(
                low=0, high=1024, entries=512, direction="out", peer=1,
            ),
            CacheResized(
                cache="db", old_capacity=192, new_capacity=96, evicted=96,
            ),
            MemtableResized(old_kb=12, new_kb=24),
            ControlDecision(
                controller="rules", action="grow-memtable",
                knob="memtable_budget_kb", old=12.0, new=24.0,
                reason="stall_delta=0.31",
            ),
            ReadSpan(
                op="get",
                sample_index=32,
                utilization=0.25,
                total_s=0.0155,
                stages=[
                    {"stage": "cpu", "duration_s": 0.0004},
                    {"stage": "os_cache", "duration_s": 0.0001},
                    {"stage": "disk_random", "duration_s": 0.015},
                ],
                cost=ReadCost(
                    memtable_probes=1,
                    index_probes=2,
                    bloom_probes=2,
                    os_hit_blocks=1,
                    disk_random_blocks=1,
                    tables_checked=3,
                ),
            ),
        ]
        for event in events:
            bus.emit(event)
            clock.advance(1)
        recorder.finalize(live_kb=0, live_extents=0)
        path = tmp_path / "all_events.jsonl"
        write_jsonl(path, recorder.records)
        records = read_jsonl(path)
        assert records == recorder.records
        names = [r["event"] for r in records]
        assert names == [type(e).__name__ for e in events] + ["TraceEnd"]
        span = records[-2]
        assert span["total_s"] == pytest.approx(0.0155)
        assert span["utilization"] == pytest.approx(0.25)
        assert [stage["stage"] for stage in span["stages"]] == [
            "cpu", "os_cache", "disk_random",
        ]
        assert span["cost"]["disk_random_blocks"] == 1
        # Every causal type the dip diagnoser filters on round-trips.
        assert set(CAUSAL_EVENT_TYPES) <= set(names)


class TestRunProfiled:
    def test_result_carries_metrics_snapshot(self):
        config = SystemConfig.paper_scaled(8192)
        result = run_experiment("leveldb", config, duration_s=200, seed=1)
        assert result.metrics, "registry snapshot must be attached"
        assert "disk.seq_write_kb" in result.metrics
        payload = result.to_json_dict()
        assert payload["metrics"] == result.metrics
        assert payload["bandwidth_kb_by_cause"]

    def test_trace_path_written_and_balanced(self, tmp_path):
        config = SystemConfig.paper_scaled(8192)
        path = tmp_path / "prof.jsonl"
        result, recorder = execute_with_trace(
            ExperimentSpec.from_config(
                "leveldb",
                config,
                duration_s=300,
                seed=1,
                profile=True,
                sample_every=1,
                trace_path=str(path),
            )
        )
        records = read_jsonl(path)
        assert records == recorder.records
        assert records[-1]["event"] == "TraceEnd"
        created = sum(
            r["size_kb"] for r in records if r["event"] == "FileCreated"
        )
        discarded = sum(
            r["size_kb"] for r in records if r["event"] == "FileDiscarded"
        )
        assert created - discarded == records[-1]["live_kb"]
        assert result.event_counts.get("ReadSpan", 0) > 0


class TestMarkLine:
    def test_marks_align_with_sparkline_buckets(self):
        series = TimeSeries("s")
        for index in range(100):
            series.add(index * 10, float(index % 7))
        line = mark_line(series, [0, 990], buckets=10)
        assert len(line) == len(sparkline(series, 10))
        assert line[0] == "^" and line[-1] == "^"
        assert set(line[1:-1]) == {" "}

    def test_empty_series(self):
        assert mark_line(TimeSeries("s"), [5]) == ""

    def test_out_of_range_marks_ignored_or_clamped(self):
        series = TimeSeries("s")
        for index in range(10):
            series.add(index, 1.0)
        line = mark_line(series, [-5, 100], buckets=5)
        assert line[-1] == "^"  # Late mark clamps to the last bucket.
        assert "^" not in line[:-1]  # Pre-series mark is dropped.


class TestBenchTelemetry:
    def _common(self):
        import benchmarks.common as common

        return common

    def test_write_bench_validates_and_writes(self, tmp_path, monkeypatch):
        common = self._common()
        monkeypatch.setattr(common, "RESULTS_DIR", tmp_path)
        config = SystemConfig.paper_scaled(8192)
        result = common.timed(
            lambda: run_experiment("leveldb", config, duration_s=100, seed=1)
        )
        path = common.write_bench(
            "unit_smoke", {("leveldb", 1): result}, scalars={"knob": 2.5}
        )
        assert path.name == "BENCH_unit_smoke.json"
        payload = json.loads(path.read_text())
        common.validate_bench(payload)
        run = payload["runs"]["leveldb/1"]
        assert run["wall_clock_s"] > 0.0
        assert run["sim_ops_per_s"] > 0.0
        assert run["mean_hit_ratio"] >= 0.0
        assert payload["scalars"] == {"knob": 2.5}
        # No speed_baseline block is stamped in any more; payloads
        # already on disk that carry one still validate.
        assert "speed_baseline" not in payload
        common.validate_bench(
            dict(payload, speed_baseline={"recorded_grid_ops_per_s": 45987.0})
        )

    def test_validate_bench_rejects_bad_payloads(self):
        common = self._common()
        with pytest.raises(ValueError):
            common.validate_bench({})
        base = {
            "schema_version": common.BENCH_SCHEMA_VERSION,
            "name": "x",
            "scale": 2048,
            "duration_s": 100,
            "seed": 1,
            "runs": {},
            "scalars": {},
        }
        with pytest.raises(ValueError):  # Neither runs nor scalars.
            common.validate_bench(dict(base))
        with pytest.raises(ValueError):  # Non-numeric scalar.
            common.validate_bench(dict(base, scalars={"a": "oops"}))
        with pytest.raises(ValueError):  # Run missing required fields.
            common.validate_bench(dict(base, runs={"r": {"engine": "x"}}))
        with pytest.raises(ValueError):  # Wrong schema version.
            common.validate_bench(
                dict(base, schema_version=999, scalars={"a": 1})
            )
