"""Tests for end-to-end request tracing (repro.obs.tracing + expo).

The tentpole's acceptance criteria, asserted directly:

* **Exact reconciliation** — for every exemplar span tree, the
  left-to-right sum of stage durations plus the queueing delay equals
  the recorded total *bitwise* (reconciliation error exactly ``0.0``),
  over the pinned differential seeds;
* **Determinism** — a seeded cluster run with tracing on produces
  identical trace ids, exemplars and flight dumps at ``jobs=1`` and
  ``jobs=2`` (ordered ``to_dict`` equality), and a request keeps the
  same trace id across shard counts;
* **Null path** — tracing off attaches no tracer and no flight
  recorder, keeps the bus counting-only, and leaves the run's results
  bit-identical to an exemplar-traced run modulo the trace fields;
* **Flight recorder** — fires on an injected stall spike and on an SLO
  breach in a real serve run, and the dumped window contains the
  causal events the diagnose layer attributes;
* **Per-shard dip diagnosis** — a live split's cold-range dip on the
  target shard is attributed to the ``RangeMigrated`` event in its
  window via :func:`diagnose_shard_dips`.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.clock import VirtualClock
from repro.cluster import ClusterSpec, run_cluster, run_coordinated
from repro.errors import ConfigError
from repro.obs.diagnose import (
    CAUSAL_EVENT_TYPES,
    diagnose_shard_dips,
)
from repro.obs.events import CacheInvalidated, EventBus, FlushDone
from repro.obs.expo import (
    render_openmetrics,
    render_openmetrics_many,
    sanitize_metric_name,
)
from repro.obs.trace import (
    TraceRecorder,
    read_jsonl,
    reconciliation_error_s,
    stage_sum_s,
    validate_exemplar,
    write_jsonl,
)
from repro.obs.tracing import (
    FlightPolicy,
    FlightRecorder,
    RequestTracer,
    exemplar_summary,
    make_trace_id,
    span_tree,
)
from repro.serve.arrivals import Request
from repro.serve.service import execute_serve, prepare_serve
from repro.serve.spec import ServiceSpec

PINNED_SEEDS = json.loads(
    (Path(__file__).parent / "seeds.json").read_text()
)["differential"]["seeds"]

#: Same small-but-busy cell the cluster differential tests use.
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


def cluster_spec(**overrides) -> ClusterSpec:
    params: dict = dict(
        engine="lsbm",
        num_shards=2,
        partitioner="hash",
        scale=SCALE,
        duration_s=DURATION,
        read_rate_qps=RATE,
        seed=0,
    )
    params.update(overrides)
    return ClusterSpec(**params)


class TestTraceIdentity:
    def test_trace_id_is_deterministic_16_hex(self):
        assert make_trace_id(0, 5) == make_trace_id(0, 5)
        assert make_trace_id(0, 5) != make_trace_id(1, 5)
        assert make_trace_id(0, 5) != make_trace_id(0, 6)
        assert len(make_trace_id(3, 12345)) == 16
        int(make_trace_id(3, 12345), 16)  # hex

    def test_exemplar_ids_derive_from_seed_and_seq(self):
        result = execute_serve(serve_spec(trace="full", seed=1))
        assert result.exemplars
        for record in result.exemplars:
            assert record["trace_id"] == make_trace_id(1, record["seq"])

    def test_trace_ids_survive_shard_count_changes(self):
        """The same request keeps its id in 1-shard and 2-shard runs."""
        one = run_cluster(cluster_spec(num_shards=1, trace="full"))
        two = run_cluster(cluster_spec(num_shards=2, trace="full"))
        ids_one = {
            record["seq"]: record["trace_id"]
            for shard in one.shards
            for record in shard.exemplars
        }
        ids_two = {
            record["seq"]: record["trace_id"]
            for shard in two.shards
            for record in shard.exemplars
        }
        shared = set(ids_one) & set(ids_two)
        assert shared, "the runs must complete overlapping requests"
        for seq in shared:
            assert ids_one[seq] == ids_two[seq]


class TestExactReconciliation:
    @pytest.mark.parametrize("seed", PINNED_SEEDS)
    def test_every_exemplar_reconciles_exactly(self, seed):
        result = execute_serve(serve_spec(trace="full", seed=seed))
        assert len(result.exemplars) > 50
        ops = {record["op"] for record in result.exemplars}
        assert "read" in ops and "write" in ops
        for record in result.exemplars:
            validate_exemplar(record)
            assert reconciliation_error_s(record) == 0.0
            assert stage_sum_s(record["stages"]) == record["service_s"]
            assert (
                record["queue_delay_s"] + record["service_s"]
                == record["total_s"]
            )

    def test_scan_exemplars_reconcile_exactly(self):
        from repro.serve.arrivals import ClientClass

        result = execute_serve(
            serve_spec(
                trace="full",
                read_rate_qps=8000.0,
                classes=(
                    ClientClass(name="scanners", op="scan", rate_qps=8000.0),
                ),
            )
        )
        scans = [r for r in result.exemplars if r["op"] == "scan"]
        assert scans
        for record in scans:
            validate_exemplar(record)
            assert reconciliation_error_s(record) == 0.0
            assert any(
                stage["stage"] == "scan_pairs" for stage in record["stages"]
            )

    def test_span_tree_mirrors_the_flat_record(self):
        result = execute_serve(serve_spec(trace="exemplar"))
        record = result.exemplars[0]
        tree = span_tree(record)
        assert tree["duration_s"] == record["total_s"]
        queue, service = tree["children"]
        assert queue["name"] == "queue"
        assert queue["duration_s"] == record["queue_delay_s"]
        assert service["duration_s"] == record["service_s"]
        leaf_sum = 0.0
        for leaf in service["children"]:
            leaf_sum += leaf["duration_s"]
        assert leaf_sum == record["service_s"]

    def test_exemplar_summary_names_the_top_stage(self):
        record = {
            "trace_id": make_trace_id(0, 9),
            "seq": 9,
            "shard": 1,
            "klass": "readers",
            "op": "read",
            "sampled": "tail",
            "total_s": 0.5,
            "queue_delay_s": 0.4,
            "service_s": 0.1,
            "stages": [
                {"stage": "cpu", "duration_s": 0.02},
                {"stage": "disk_random", "duration_s": 0.08},
            ],
        }
        digest = exemplar_summary(record)
        assert digest["top_stage"] == "queue"
        assert digest["top_stage_ms"] == 400.0
        assert digest["shard"] == 1


class TestClusterTraceDeterminism:
    def test_cluster_trace_identical_across_jobs(self):
        spec = cluster_spec(trace="exemplar")
        serial = run_cluster(spec, jobs=1)
        fanned = run_cluster(spec, jobs=2)
        assert serial.to_dict() == fanned.to_dict()
        assert any(shard.exemplars for shard in serial.shards)
        for a, b in zip(serial.shards, fanned.shards):
            assert a.exemplars == b.exemplars
            assert a.flight_dumps == b.flight_dumps

    def test_same_spec_reruns_identically(self):
        spec = cluster_spec(trace="full", seed=2)
        first = run_cluster(spec)
        second = run_cluster(spec)
        assert first.to_dict() == second.to_dict()

    def test_worst_exemplars_rank_across_shards(self):
        result = run_cluster(cluster_spec(trace="exemplar"))
        worst = result.worst_exemplars(5)
        assert worst
        totals = [digest["total_ms"] for digest in worst]
        assert totals == sorted(totals, reverse=True)
        assert {digest["shard"] for digest in worst} <= {0, 1}


class TestNullPath:
    def test_off_attaches_no_tracer_and_keeps_bus_counting_only(self):
        session = prepare_serve(serve_spec())
        assert session.simulator.tracer is None
        assert session.simulator.flight is None
        assert session.setup.engine.bus.counting_only

    def test_tracing_disables_counting_only_but_not_results(self):
        off = execute_serve(serve_spec(trace="off"))
        traced = execute_serve(serve_spec(trace="exemplar"))
        assert off.trace_mode == "off"
        assert off.exemplars == [] and off.flight_dumps == []
        assert traced.exemplars

        def strip(result) -> dict:
            payload = result.to_dict()
            for key in ("trace_mode", "exemplars", "flight_dumps"):
                payload.pop(key, None)
            return payload

        assert strip(off) == strip(traced)


class TestTailSampler:
    def _request(self, seq: int) -> Request:
        return Request(
            seq=seq, klass="writers", op="write", key=seq, arrival_s=0.0
        )

    def test_tail_heap_keeps_the_worst_k(self):
        tracer = RequestTracer(
            mode="exemplar", seed=0, tail_k=4, uniform_every=10_000
        )
        tracer._cache_hit_s = 0.001
        for seq in range(100):
            total = 0.001 * seq
            tracer.offer_write(self._request(seq), 0.0, total, total, 0.0)
        tail = [r for r in tracer.exemplars() if r["sampled"] == "tail"]
        assert len(tail) == 4
        assert sorted(r["seq"] for r in tail) == [96, 97, 98, 99]

    def test_uniform_sample_every_nth_offer(self):
        tracer = RequestTracer(
            mode="exemplar", seed=0, tail_k=1, uniform_every=7
        )
        tracer._cache_hit_s = 0.001
        for seq in range(21):
            tracer.offer_write(self._request(seq), 0.0, 0.001, 0.001, 0.0)
        uniform = [
            r for r in tracer.exemplars() if r["sampled"] == "uniform"
        ]
        assert [r["seq"] for r in uniform] == [0, 7, 14]

    def test_full_mode_keeps_everything_up_to_the_cap(self):
        tracer = RequestTracer(mode="full", seed=0, max_exemplars=5)
        tracer._cache_hit_s = 0.001
        for seq in range(8):
            tracer.offer_write(self._request(seq), 0.0, 0.001, 0.001, 0.0)
        assert len(tracer.exemplars()) == 5
        assert tracer.dropped == 3

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            RequestTracer(mode="off", seed=0)
        with pytest.raises(ValueError):
            RequestTracer(mode="verbose", seed=0)
        with pytest.raises(ValueError):
            RequestTracer(mode="exemplar", seed=0, tail_k=0)


class TestFlightRecorder:
    def _recorder(self, tmp_path=None, **policy) -> FlightRecorder:
        params = dict(cooldown_s=0.0, max_dumps=8)
        params.update(policy)
        clock = VirtualClock()
        bus = EventBus()
        recorder = FlightRecorder(
            clock,
            bus=bus,
            policy=FlightPolicy(**params),
            shard=0,
            out_dir=tmp_path,
            label="unit",
        )
        return recorder

    def test_slo_breach_dump_contains_causal_window(self, tmp_path):
        clock = VirtualClock()
        bus = EventBus()
        flight = FlightRecorder(
            clock,
            bus=bus,
            policy=FlightPolicy(slo_total_s=1.0, cooldown_s=0.0),
            shard=0,
            out_dir=tmp_path,
            label="unit",
        )
        bus.emit(CacheInvalidated(cache="db", file_id=3, blocks=7))
        clock.advance(5)
        bus.emit(FlushDone(entries=10, files=1, size_kb=4.0))
        flight.observe_latency(clock.now, total_s=2.5, seq=42, klass="r")
        assert len(flight.dumps) == 1
        dump = flight.dumps[0]
        assert dump["trigger"] == "slo-breach"
        assert dump["seq"] == 42
        names = [record["event"] for record in dump["records"]]
        assert "CacheInvalidated" in names
        assert set(names) & set(CAUSAL_EVENT_TYPES)
        files = list(tmp_path.glob("flight_*slo-breach*.jsonl"))
        assert len(files) == 1
        header = {
            key: value for key, value in dump.items() if key != "records"
        }
        assert read_jsonl(files[0]) == [
            dict(header, event="FlightDump"), *dump["records"]
        ]

    def test_stall_spike_and_dip_triggers(self):
        flight = self._recorder()
        flight.observe_stall(1.0, 0.1)  # under the 0.25 budget: no dump
        flight.observe_stall(2.0, 0.9)
        flight.observe_hit_ratio(3.0, 0.95)  # healthy: no dump
        flight.observe_hit_ratio(4.0, 0.2)
        assert flight.summary()["triggers"] == [
            "hit-ratio-dip", "stall-spike",
        ]

    def test_cooldown_suppresses_repeat_triggers(self):
        flight = self._recorder(cooldown_s=100.0)
        flight.observe_stall(10.0, 1.0)
        flight.observe_stall(50.0, 1.0)  # inside cooldown
        flight.observe_stall(120.0, 1.0)  # past cooldown
        assert len(flight.dumps) == 2

    def test_max_dumps_caps_the_budget(self):
        flight = self._recorder(max_dumps=2)
        for t in range(5):
            flight.observe_stall(float(t), 1.0)
        assert len(flight.dumps) == 2
        assert flight.dropped_dumps == 3

    def test_ring_is_bounded(self):
        flight = self._recorder(capacity=4)
        for t in range(10):
            flight.note(float(t), "Marker", index=t)
        flight.observe_stall(99.0, 1.0)
        records = flight.dumps[0]["records"]
        assert len(records) == 4
        assert [r["index"] for r in records] == [6, 7, 8, 9]

    def test_serve_run_fires_on_injected_stall_spike(self):
        """Bursty write pressure at tiny scale stalls; the recorder sees it."""
        spec = ServiceSpec(
            engine="lsbm",
            base="tiny",
            scale=0,
            duration_s=400,
            read_rate_qps=3.0,
            arrival="bursty",
            write_rate_qps=24.0,
            queue_bound=16,
            trace="exemplar",
            trace_stall_spike_s=0.05,
        )
        result = execute_serve(spec)
        triggers = {dump["trigger"] for dump in result.flight_dumps}
        assert "stall-spike" in triggers

    def test_serve_run_fires_on_slo_breach_with_causal_window(self):
        result = execute_serve(serve_spec(trace="exemplar"))
        breaches = [
            dump
            for dump in result.flight_dumps
            if dump["trigger"] == "slo-breach"
        ]
        assert breaches, "overload at this rate must breach the 1s SLO"
        # The ring subscribed to the shard bus, so the dumped window is
        # the same evidence stream diagnose_dips attributes from.
        assert any(dump["records"] for dump in result.flight_dumps)
        windowed = {
            record["event"]
            for dump in result.flight_dumps
            for record in dump["records"]
        }
        assert windowed & set(CAUSAL_EVENT_TYPES)


class TestShardDipDiagnosis:
    """Satellite: diagnose over cluster results, split window included."""

    def test_split_dip_attributed_to_range_migration(self):
        # split_fraction 0.6 migrates [512, 1280), which covers the
        # whole hot range ([544, 928) at this scale): the source shard
        # keeps its warm cache but loses every hot read, so its
        # windowed hit ratio collapses right after the split.
        spec = cluster_spec(
            partitioner="range",
            duration_s=400,
            read_rate_qps=8000.0,
            write_rate_qps=20_000.0,
            split_at_s=200,
            split_source=0,
            split_target=1,
            split_fraction=0.6,
        )
        recorders: dict[int, TraceRecorder] = {}

        def attach(session, shard: int) -> None:
            recorders[shard] = TraceRecorder(
                session.setup.clock, session.setup.engine.bus
            )

        result = run_coordinated(spec, attach=attach)
        assert result.migration is not None
        series = result.shards[spec.split_source].hit_ratio
        split_at = spec.split_at_s
        pre = [
            value
            for time, value in zip(series.times, series.values)
            if time < split_at
        ]
        post = [
            value
            for time, value in zip(series.times, series.values)
            if time >= split_at
        ]
        assert pre and post
        # Losing the hot range must drop the source's hit ratio.
        assert max(pre) > min(post)
        threshold = (max(pre) + min(post)) / 2
        reports = diagnose_shard_dips(
            [shard.hit_ratio for shard in result.shards],
            [recorders[shard].records for shard in sorted(recorders)],
            threshold=threshold,
        )
        assert set(reports) == {0, 1}
        target = reports[spec.split_source]
        assert target.total_dips >= 1
        causes = target.cause_counts()
        assert causes.get("RangeMigrated", 0) >= 1
        # And the dip that crosses right after the split window is the
        # one the migration explains.
        migrated = [
            diagnosis
            for diagnosis in target.diagnoses
            if "RangeMigrated" in diagnosis.cause_counts
        ]
        assert migrated
        assert all(
            diagnosis.window_start <= split_at <= diagnosis.dip.time
            for diagnosis in migrated
        )

    def test_per_shard_reports_match_individual_diagnosis(self):
        from repro.obs.diagnose import diagnose_dips

        spec = cluster_spec()
        recorders: dict[int, TraceRecorder] = {}

        def attach(session, shard: int) -> None:
            recorders[shard] = TraceRecorder(
                session.setup.clock, session.setup.engine.bus
            )

        result = run_coordinated(spec, attach=attach)
        series = [shard.hit_ratio for shard in result.shards]
        records = [recorders[shard].records for shard in sorted(recorders)]
        combined = diagnose_shard_dips(series, records, threshold=0.7)
        for shard in range(spec.num_shards):
            solo = diagnose_dips(series[shard], records[shard], threshold=0.7)
            assert (
                combined[shard].to_json_dict() == solo.to_json_dict()
            )

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            diagnose_shard_dips([], [[]])


class TestExposition:
    def test_sanitize_metric_name(self):
        assert sanitize_metric_name("disk.seq_write_kb") == (
            "disk_seq_write_kb"
        )
        assert sanitize_metric_name("9lives") == "_9lives"
        assert sanitize_metric_name("a:b") == "a:b"

    def test_render_counters(self):
        snapshot = {"reads.total": 42.0, "disk.live_kb": 8.0}
        text = render_openmetrics(snapshot, labels={"shard": "0"})
        assert "# TYPE repro_reads_total gauge" in text
        assert 'repro_reads_total{shard="0"} 42.0' in text
        assert text.index("repro_disk_live_kb") < text.index(
            "repro_reads_total"
        )
        assert text.endswith("# EOF\n")

    def test_many_snapshots_share_one_type_header(self):
        text = render_openmetrics_many([
            ({"shard": "0"}, {"reads": 1.0}),
            ({"shard": "1"}, {"reads": 2.0}),
        ])
        assert text.count("# TYPE repro_reads gauge") == 1
        assert 'repro_reads{shard="0"} 1.0' in text
        assert 'repro_reads{shard="1"} 2.0' in text

    def test_label_escaping(self):
        text = render_openmetrics({"m": 1.0}, labels={"k": 'a"b\\c'})
        assert 'k="a\\"b\\\\c"' in text

    def test_real_registry_snapshot_renders(self):
        result = execute_serve(serve_spec())
        text = render_openmetrics(result.metrics, labels={"shard": "0"})
        assert "# EOF" in text
        assert "repro_" in text


class TestJsonlRoundTrips:
    def test_exemplar_jsonl_round_trips_and_validates(self, tmp_path):
        result = execute_serve(serve_spec(trace="exemplar"))
        path = tmp_path / "exemplars.jsonl"
        count = write_jsonl(path, result.exemplars)
        assert count == len(result.exemplars) > 0
        assert read_jsonl(path) == result.exemplars

    def test_trace_dir_files_written_by_serve(self, tmp_path):
        spec = serve_spec(trace="exemplar", trace_dir=str(tmp_path))
        result = execute_serve(spec)
        assert result.exemplars
        files = sorted(tmp_path.glob("*.jsonl"))
        assert any(f.name.startswith("trace_") for f in files)
        for f in files:
            assert read_jsonl(f)
        (exemplar_file,) = [f for f in files if f.name.startswith("trace_")]
        assert read_jsonl(exemplar_file) == result.exemplars
        assert result.flight_dumps
        for dump in result.flight_dumps:
            (flight_file,) = tmp_path.glob(
                f"flight_*_{dump['trigger']}_t{dump['t']}.jsonl"
            )
            header = {
                key: value for key, value in dump.items() if key != "records"
            }
            assert read_jsonl(flight_file) == [
                dict(header, event="FlightDump"), *dump["records"]
            ]

    def test_validation_rejects_bad_records(self, tmp_path):
        good = execute_serve(serve_spec(trace="exemplar")).exemplars[0]
        validate_exemplar(good)
        bad = dict(good, trace_id="nope")
        with pytest.raises(ValueError):
            validate_exemplar(bad)
        skewed = dict(good, total_s=good["total_s"] + 1e-9)
        with pytest.raises(ValueError):
            validate_exemplar(skewed)
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(skewed) + "\n")
        with pytest.raises(ConfigError, match="bad.jsonl:1"):
            read_jsonl(path)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(ConfigError, match="empty"):
            read_jsonl(empty)

    @pytest.mark.parametrize("line", ["5", "[1, 2]"])
    def test_a_line_that_is_not_an_object_names_its_place(
        self, tmp_path, line
    ):
        path = tmp_path / "odd.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(ConfigError, match="odd.jsonl:1: not a JSON object"):
            read_jsonl(path)

    def test_a_line_that_is_not_json_names_its_place(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_text('{"t": 1, "event": "FlushDone"}\n{"t": 2, "ev\n')
        with pytest.raises(ConfigError, match="torn.jsonl:2: "):
            read_jsonl(path)

    def test_read_span_records_get_the_exemplar_stage_checks(self, tmp_path):
        stages = [
            {"stage": "cpu", "duration_s": 0.00045},
            {"stage": "disk_random", "duration_s": 0.015},
        ]
        span = {
            "t": 12, "event": "ReadSpan", "op": "get", "sample_index": 8,
            "utilization": 0.0, "total_s": stage_sum_s(stages),
            "stages": stages, "cost": {"disk_random_blocks": 1},
        }
        path = tmp_path / "spans.jsonl"
        path.write_text(json.dumps(span) + "\n")
        assert read_jsonl(path) == [span]
        for bad in (
            {key: value for key, value in span.items() if key != "stages"},
            dict(span, stages=[]),
            dict(span, stages=[{"duration_s": 0.1}]),
            dict(span, stages=[{"stage": "cpu", "duration_s": -1.0}]),
            dict(span, total_s=span["total_s"] + 1e-12),
        ):
            path.write_text(json.dumps(span) + "\n" + json.dumps(bad) + "\n")
            with pytest.raises(ConfigError, match="spans.jsonl:2: invalid read"):
                read_jsonl(path)

    def test_serve_result_transports_trace_fields_losslessly(self):
        result = execute_serve(serve_spec(trace="exemplar"))
        clone = type(result).from_dict(result.to_dict())
        assert clone.trace_mode == result.trace_mode
        assert clone.exemplars == result.exemplars
        assert clone.flight_dumps == result.flight_dumps
        payload = result.to_json_dict()
        assert payload["trace"]["mode"] == "exemplar"
        assert payload["trace"]["exemplars"] == len(result.exemplars)
        assert payload["trace"]["worst_exemplars"]


class TestSpecSurface:
    def test_spec_validates_trace_fields(self):
        with pytest.raises(ConfigError):
            serve_spec(trace="loud")
        with pytest.raises(ConfigError):
            serve_spec(trace_slo_s=0.0)
        with pytest.raises(ConfigError):
            serve_spec(trace_dip_threshold=1.5)

    def test_trace_mode_is_part_of_cell_identity_but_dir_is_not(self):
        plain = serve_spec()
        traced = serve_spec(trace="exemplar")
        relocated = serve_spec(trace="exemplar", trace_dir="/tmp/elsewhere")
        assert plain.cell_key() != traced.cell_key()
        assert traced.cell_key() == relocated.cell_key()

    def test_spec_round_trips_trace_fields(self):
        spec = serve_spec(
            trace="full",
            trace_dir="traces",
            trace_slo_s=0.5,
            trace_stall_spike_s=0.1,
            trace_dip_threshold=0.6,
        )
        assert ServiceSpec.from_dict(spec.to_dict()) == spec
        cspec = cluster_spec(trace="exemplar", trace_slo_s=2.0)
        assert ClusterSpec.from_dict(cspec.to_dict()) == cspec
        assert cspec.service_spec().trace == "exemplar"
        assert cspec.service_spec().trace_slo_s == 2.0


class TestPricerEquivalence:
    """The pricer spells its arithmetic twice: ``stage_terms`` (the
    labeled addends) and ``service_seconds`` (their fused sum).

    This pins the two to the same addend sequence, bitwise.  (The
    scaled budget debit, ``service_seconds * ops_scale``, is no longer a
    pricer method; each loop that debits a budget multiplies in place.)
    """

    def test_price_is_scaled_service_seconds_bitwise(self):
        from repro.config import SystemConfig
        from repro.lsm.base import ReadCost
        from repro.storage.iomodel import ReadPricer

        config = SystemConfig.paper_scaled(SCALE)
        pricer = ReadPricer(config)
        assert pricer.write_s == config.cache_hit_s
        shapes = [
            ReadCost(),
            ReadCost(cache_hit_blocks=3),
            ReadCost(cache_hit_blocks=1, os_hit_blocks=2, bloom_probes=4),
            ReadCost(disk_random_blocks=2, bloom_probes=1),
            ReadCost(seq_runs=3, seq_kb=48.0),
            ReadCost(
                cache_hit_blocks=2,
                os_hit_blocks=1,
                bloom_probes=7,
                disk_random_blocks=1,
                seq_runs=1,
                seq_kb=4.0,
                tables_checked=5,
            ),
        ]
        for cost in shapes:
            for pairs in (0, 25):
                for util in (0.0, 0.5, 0.97, 1.5, -0.1):
                    for is_scan in (False, True):
                        service = pricer.service_seconds(
                            cost, pairs, util, is_scan
                        )
                        total = 0.0
                        for _, value in pricer.stage_terms(
                            cost, pairs, util, is_scan
                        ):
                            total += value
                        assert total == service
