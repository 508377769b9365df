"""Engine-conformance suite: every variant honors the event-ledger contract.

Each engine publishes ``FileCreated``/``FileDiscarded`` (and the compaction
and flush events) through its substrate's bus.  These tests attach a
recorder at *construction* time — before the preload, whose bulk-loaded
files open the ledger — run the paper's mixed workload briefly, and then
reconcile the event stream against the engine's closing ground truth:

* summed created sizes minus summed discarded sizes == ``disk.live_kb``;
* created ids minus discarded ids == ``disk.live_extents``;
* no file is discarded twice, nothing undiscovered is discarded;
* summed ``CompactionEnd`` traffic == ``EngineStats`` compaction traffic;
* ``FlushDone`` count == ``EngineStats.flushes``.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.config import SystemConfig
from repro.obs.trace import TraceRecorder
from repro.sim.driver import MixedReadWriteDriver
from repro.sim.experiment import ENGINE_NAMES, build_engine, preload

#: Every registered variant, including the cache-stack permutations.
ALL_ENGINES = sorted(ENGINE_NAMES)

_DURATION_S = 300


def _run_traced(name: str):
    config = SystemConfig.tiny()
    setup = build_engine(name, config)
    recorder = TraceRecorder(setup.clock, setup.substrate.bus)
    preload(setup)
    driver = MixedReadWriteDriver(setup.engine, config, setup.clock, seed=11)
    result = driver.run(_DURATION_S)
    return setup, recorder, result


@pytest.fixture(scope="module", params=ALL_ENGINES)
def traced_run(request):
    """One traced run per engine variant, shared by the module's asserts."""
    return _run_traced(request.param)


class TestFileLedger:
    def test_sizes_reconcile_with_live_kb(self, traced_run):
        setup, recorder, _ = traced_run
        created = sum(
            r["size_kb"] for r in recorder.records if r["event"] == "FileCreated"
        )
        discarded = sum(
            r["size_kb"]
            for r in recorder.records
            if r["event"] == "FileDiscarded"
        )
        assert created - discarded == setup.disk.live_kb

    def test_ids_reconcile_with_live_extents(self, traced_run):
        setup, recorder, _ = traced_run
        created_ids = {
            r["file_id"] for r in recorder.records if r["event"] == "FileCreated"
        }
        discarded_ids = [
            r["file_id"]
            for r in recorder.records
            if r["event"] == "FileDiscarded"
        ]
        # Nothing is discarded twice, nothing unknown is discarded.
        assert len(discarded_ids) == len(set(discarded_ids))
        assert set(discarded_ids) <= created_ids
        assert len(created_ids - set(discarded_ids)) == setup.disk.live_extents

    def test_created_files_were_allocated(self, traced_run):
        _, recorder, _ = traced_run
        for record in recorder.records:
            if record["event"] == "FileCreated":
                assert record["size_kb"] > 0
                assert record["extent_start"] >= 0


class TestCompactionEvents:
    def test_write_traffic_matches_stats(self, traced_run):
        setup, recorder, _ = traced_run
        write_kb = sum(
            r["write_kb"]
            for r in recorder.records
            if r["event"] == "CompactionEnd"
        )
        assert write_kb == pytest.approx(setup.engine.stats.compaction_write_kb)

    def test_read_traffic_matches_stats(self, traced_run):
        setup, recorder, _ = traced_run
        read_kb = sum(
            r["read_kb"]
            for r in recorder.records
            if r["event"] == "CompactionEnd"
        )
        assert read_kb == pytest.approx(setup.engine.stats.compaction_read_kb)

    def test_every_start_has_an_end(self, traced_run):
        _, recorder, _ = traced_run
        counts = Counter(r["event"] for r in recorder.records)
        assert counts.get("CompactionStart", 0) == counts.get("CompactionEnd", 0)
        assert counts.get("CompactionEnd", 0) == setup_stats(traced_run).compactions

    def test_flush_events_match_stats(self, traced_run):
        setup, recorder, _ = traced_run
        counts = Counter(r["event"] for r in recorder.records)
        assert counts.get("FlushDone", 0) == setup.engine.stats.flushes


def setup_stats(traced_run):
    setup, _, _ = traced_run
    return setup.engine.stats


class TestRegistryAgreement:
    def test_registry_mirrors_engine_stats(self, traced_run):
        setup, _, _ = traced_run
        snapshot = setup.substrate.registry.snapshot()
        stats = setup.engine.stats
        assert snapshot["engine.flushes"] == stats.flushes
        assert snapshot["engine.compactions"] == stats.compactions
        assert snapshot["engine.compaction_write_kb"] == pytest.approx(
            stats.compaction_write_kb
        )

    def test_disk_gauge_tracks_allocator(self, traced_run):
        setup, _, _ = traced_run
        snapshot = setup.substrate.registry.snapshot()
        assert snapshot["disk.live_kb"] == setup.disk.live_kb


class TestDriverIntegration:
    def test_result_event_counts_cover_run_window(self, traced_run):
        _, recorder, result = traced_run
        # The driver's tally attaches after the preload, so its counts are
        # bounded by the recorder's (which saw the preload too).
        totals = Counter(r["event"] for r in recorder.records)
        assert result.event_counts  # Compactions always happen at tiny scale.
        for name, count in result.event_counts.items():
            assert count <= totals[name], name

    def test_latencies_are_reservoir_sampled(self, traced_run):
        _, _, result = traced_run
        assert len(result.read_latencies_s) == result.reads_completed
        assert (
            len(result.read_latencies_s.samples)
            <= result.read_latencies_s.capacity
        )


class TestTypedProtocol:
    """The driver protocol is explicit — no duck-probing required."""

    @pytest.mark.parametrize("name", ALL_ENGINES)
    def test_engine_exposes_protocol(self, name):
        setup = build_engine(name, SystemConfig.tiny())
        engine = setup.engine
        # ``name`` is the variant family (cache permutations share it).
        assert isinstance(engine.name, str) and engine.name
        assert engine.metric_cache is None or hasattr(
            engine.metric_cache, "stats"
        )
        buffer_kb = engine.compaction_buffer_kb
        assert buffer_kb is None or buffer_kb >= 0
        assert engine.bus is setup.substrate.bus

    @pytest.mark.parametrize("name", ["lsbm", "lsbm-dual"])
    def test_only_lsbm_reports_a_buffer(self, name):
        setup = build_engine(name, SystemConfig.tiny())
        assert setup.engine.compaction_buffer_kb is not None

    @pytest.mark.parametrize("name", ["leveldb", "blsm", "sm", "hbase"])
    def test_others_report_none(self, name):
        setup = build_engine(name, SystemConfig.tiny())
        assert setup.engine.compaction_buffer_kb is None

    def test_metric_cache_prefers_db_cache(self):
        setup = build_engine("blsm-dual", SystemConfig.tiny())
        assert setup.engine.metric_cache is setup.db_cache

    def test_metric_cache_falls_back_to_os_cache(self):
        setup = build_engine("leveldb-oscache", SystemConfig.tiny())
        assert setup.engine.metric_cache is setup.os_cache
