"""Unit tests for the observability core (registry, bus, trace, reservoir)."""

from __future__ import annotations

import random

import pytest

from repro.clock import VirtualClock
from repro.config import SystemConfig
from repro.lsm.base import LSMEngine
from repro.lsm.blsm import BLSMTree
from repro.obs.events import (
    CompactionEnd,
    CompactionStart,
    EventBus,
    EventTally,
    FileCreated,
    FlushDone,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceRecorder, read_jsonl, write_jsonl
from repro.sim.experiment import ENGINE_NAMES, build_engine
from repro.sim.metrics import LatencyReservoir
from repro.substrate import Substrate


class TestMetricsRegistry:
    def test_counter_increments(self):
        # The layer counts in its own ledger; the snapshot reads it then.
        stats = {"n": 0}
        registry = MetricsRegistry()
        registry.register(lambda: {"a.b": stats["n"]})
        stats["n"] += 1
        assert registry.snapshot()["a.b"] == 1.0
        stats["n"] += 2
        assert registry.snapshot()["a.b"] == 3.0

    def test_snapshot_values_are_floats(self):
        live = {"kb": 7}
        registry = MetricsRegistry()
        registry.register(lambda: {"g": live["kb"], "f": 2.5, "z": -0.0})
        snap = registry.snapshot()
        assert snap == {"g": 7.0, "f": 2.5, "z": 0.0}
        assert all(type(value) is float for value in snap.values())
        live["kb"] = 3  # A gauge-like stat moves both ways.
        assert registry.snapshot()["g"] == 3.0

    def test_duplicate_key_rejected(self):
        registry = MetricsRegistry()
        registry.register(lambda: {"n": 1, "a": 2})
        registry.register(lambda: {"n": 1})
        with pytest.raises(ValueError, match="'n'"):
            registry.snapshot()

    def test_sources_read_in_registration_order(self):
        registry = MetricsRegistry()
        assert registry.snapshot() == {}
        registry.register(lambda: {"b": 1})
        registry.register(lambda: {"a": 2, "c": 3})
        assert list(registry.snapshot()) == ["b", "a", "c"]


class TestEventBus:
    def test_inactive_bus_short_circuits(self):
        bus = EventBus()
        assert not bus.active
        bus.emit(FlushDone(entries=1, files=1, size_kb=4.0))  # No subscribers.

    def test_type_specific_subscription(self):
        bus = EventBus()
        seen = []
        bus.subscribe(FlushDone, seen.append)
        assert bus.active
        bus.emit(FlushDone(entries=1, files=1, size_kb=4.0))
        bus.emit(FileCreated(file_id=1, size_kb=4, extent_start=0))
        assert len(seen) == 1 and isinstance(seen[0], FlushDone)

    def test_catch_all_runs_after_typed(self):
        bus = EventBus()
        order = []
        bus.subscribe(FlushDone, lambda e: order.append("typed"))
        bus.subscribe_all(lambda e: order.append("all"))
        bus.emit(FlushDone(entries=1, files=1, size_kb=4.0))
        assert order == ["typed", "all"]

    def test_event_tally(self):
        bus = EventBus()
        tally = EventTally(bus)
        bus.emit(FlushDone(entries=1, files=1, size_kb=4.0))
        bus.emit(FlushDone(entries=2, files=1, size_kb=4.0))
        bus.emit(FileCreated(file_id=1, size_kb=4, extent_start=0))
        assert tally.as_dict() == {"FlushDone": 2, "FileCreated": 1}

    def test_events_are_frozen(self):
        event = CompactionStart(level=1, input_files=2, input_kb=8.0)
        with pytest.raises(AttributeError):
            event.level = 2


class TestTraceRecorder:
    def test_records_with_virtual_timestamps(self):
        clock = VirtualClock()
        bus = EventBus()
        recorder = TraceRecorder(clock, bus)
        bus.emit(FlushDone(entries=5, files=1, size_kb=4.0))
        clock.advance(10)
        bus.emit(
            CompactionEnd(
                level=1, read_kb=8.0, write_kb=8.0, output_files=2,
                obsolete_entries=0,
            )
        )
        assert [r["t"] for r in recorder.records] == [0, 10]
        assert [r["event"] for r in recorder.records] == [
            "FlushDone", "CompactionEnd",
        ]

    def test_jsonl_round_trip(self, tmp_path):
        clock = VirtualClock()
        bus = EventBus()
        recorder = TraceRecorder(clock, bus)
        bus.emit(FileCreated(file_id=3, size_kb=4, extent_start=12))
        recorder.finalize(live_kb=4, live_extents=1)
        path = tmp_path / "trace.jsonl"
        assert write_jsonl(path, recorder.records) == 2
        records = read_jsonl(path)
        assert records == recorder.records
        assert records[0]["event"] == "FileCreated"
        assert records[0]["file_id"] == 3
        assert records[-1] == {
            "t": 0, "event": "TraceEnd", "live_kb": 4, "live_extents": 1,
        }

    def test_empty_trace_serializes_empty(self, tmp_path):
        recorder = TraceRecorder(VirtualClock())
        path = tmp_path / "sub" / "empty.jsonl"
        assert write_jsonl(path, recorder.records) == 0
        assert path.read_text() == ""
        assert recorder.records == []


class TestLatencyReservoir:
    def test_len_counts_observations_not_samples(self):
        reservoir = LatencyReservoir(capacity=10)
        for value in range(25):
            reservoir.append(float(value))
        assert len(reservoir) == 25
        assert len(reservoir.samples) == 10

    def test_below_capacity_keeps_everything(self):
        reservoir = LatencyReservoir(capacity=100)
        for value in range(7):
            reservoir.add(float(value))
        assert sorted(reservoir) == [float(v) for v in range(7)]
        assert reservoir.percentile(0) == 0.0
        assert reservoir.percentile(100) == 6.0

    def test_percentiles_stable_within_tolerance(self):
        # A seeded exponential-ish stream: reservoir percentiles must track
        # the exact ones computed over the full stream.
        rng = random.Random(42)
        stream = [rng.expovariate(1.0) for _ in range(50_000)]
        reservoir = LatencyReservoir(capacity=8192, seed=7)
        for value in stream:
            reservoir.append(value)
        exact = sorted(stream)

        def exact_percentile(p):
            return exact[round(p / 100 * (len(exact) - 1))]

        for p in (50, 90, 99):
            estimate = reservoir.percentile(p)
            truth = exact_percentile(p)
            assert abs(estimate - truth) / truth < 0.15, (p, estimate, truth)

    def test_percentile_validates_range(self):
        reservoir = LatencyReservoir()
        with pytest.raises(ValueError):
            reservoir.percentile(150)

    def test_empty_reservoir(self):
        reservoir = LatencyReservoir()
        assert not reservoir
        assert reservoir.percentile(50) == 0.0

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            LatencyReservoir(capacity=0)


class TestSubstrate:
    def test_create_binds_disk_to_registry(self):
        config = SystemConfig.tiny()
        substrate = Substrate.create(config)
        substrate.disk.allocate(8)
        assert substrate.registry.snapshot()["disk.live_kb"] == 8.0

    def test_engine_from_substrate(self):
        substrate = Substrate.create(SystemConfig.tiny())
        engine = BLSMTree(substrate)
        assert engine.substrate is substrate
        assert engine.clock is substrate.clock
        assert engine.bus is substrate.bus
        engine.close()

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    def test_every_engine_is_built_from_the_setups_substrate(self, name):
        setup = build_engine(name, SystemConfig.tiny())
        engine, substrate = setup.engine, setup.substrate
        assert isinstance(engine, LSMEngine)
        assert engine.substrate is substrate
        assert engine.clock is setup.clock is substrate.clock
        assert engine.disk is setup.disk is substrate.disk
        assert engine.db_cache is setup.db_cache is substrate.db_cache
        assert engine.bus is substrate.bus
