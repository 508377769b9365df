"""Crash/recovery fault injection across every engine variant.

Every registered crash point is exercised for every engine on the
pinned crash seed: the injector kills the "process" mid-flush,
mid-compaction or mid-log-append, and recovery (schedule-prefix replay
+ durable WAL splice + ``recover()``) must restore an oracle-consistent
state — the in-flight write present iff its log record was durable.

A mutation test reintroduces the eager-WAL-truncation bug (truncating
inside the flush instead of at the end of the compaction pass) and
requires the harness to catch the resulting data loss.
"""

from __future__ import annotations

import pytest

from repro.check import (
    CRASH_POINTS,
    CrashRecoveryHarness,
    FaultInjector,
    ScheduleSpec,
    SimulatedCrash,
)
from repro.config import SystemConfig
from repro.lsm.base import LSMEngine
from repro.lsm.leveldb import LevelDBTree
from repro.lsm.wal import LogRecord, WriteAheadLog
from repro.sim.experiment import ENGINE_NAMES
from repro.sstable.entry import Kind


def _spec(seed_corpus) -> ScheduleSpec:
    crash = seed_corpus["crash"]
    return ScheduleSpec(
        seed=crash["seed"], ops=crash["ops"], key_space=crash["key_space"]
    )


# ----------------------------------------------------------------------
# The injector.
# ----------------------------------------------------------------------


class TestFaultInjector:
    def test_fires_on_nth_hit_then_disarms(self):
        injector = FaultInjector("disk.free", hits=3)
        injector("disk.free")
        injector("disk.free")
        with pytest.raises(SimulatedCrash):
            injector("disk.free")
        injector("disk.free")  # Fired once; never again.
        assert injector.fired

    def test_ignores_other_points(self):
        injector = FaultInjector("disk.free", hits=1)
        injector("disk.allocate")
        injector("wal.append.before")
        assert not injector.fired

    def test_rejects_non_positive_hits(self):
        with pytest.raises(ValueError):
            FaultInjector("disk.free", hits=0)


def test_wal_restore_records_overwrites_tail(tiny_config, clock, disk):
    wal = WriteAheadLog(disk, tiny_config.pair_size_kb)
    wal.append(1, 1, Kind.PUT)
    wal.restore_records([LogRecord(9, 5, Kind.PUT)])
    assert [(r.key, r.seq) for r in wal.replay()] == [(9, 5)]


# ----------------------------------------------------------------------
# Every crash point, every engine: recovery is oracle-consistent.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("engine_name", ENGINE_NAMES)
@pytest.mark.parametrize("point", CRASH_POINTS)
def test_crash_recovery_is_consistent(engine_name, point, seed_corpus):
    harness = CrashRecoveryHarness(engine_name, _spec(seed_corpus))
    outcome = harness.run_point(point, hits=1)
    assert outcome.fired, f"{point} never reached — vacuous experiment"
    assert outcome.consistent, outcome.detail


def test_later_hits_also_recover(seed_corpus):
    """Crashing deep into the schedule (busy trees, live buffers) works
    too, not just on the first visit to a point."""
    hits = tuple(seed_corpus["crash"]["hits"])
    for engine_name in ("leveldb", "sm", "lsbm", "hbase", "blsm+kvcache"):
        harness = CrashRecoveryHarness(engine_name, _spec(seed_corpus))
        for outcome in harness.run_all(hits_list=hits):
            assert outcome.fired, (engine_name, outcome.point, outcome.hits)
            assert outcome.consistent, outcome.detail


def test_unfired_point_reports_not_fired():
    """A schedule too short to reach a point must say so, not pass
    silently as 'consistent by default'."""
    harness = CrashRecoveryHarness("sm", ScheduleSpec(seed=0, ops=20))
    outcome = harness.run_point("disk.free", hits=1)
    assert not outcome.fired
    assert "never reached" in outcome.detail


def test_wal_disabled_config_is_upgraded():
    harness = CrashRecoveryHarness(
        "leveldb", ScheduleSpec(seed=0, ops=10), SystemConfig.tiny()
    )
    assert harness.config.wal_enabled


# ----------------------------------------------------------------------
# Mutation: the harness must catch premature WAL truncation.
# ----------------------------------------------------------------------


def test_eager_wal_truncation_is_caught(monkeypatch, seed_corpus):
    """Truncating the WAL inside the flush (before the enclosing
    compaction pass finishes) loses data if the pass crashes after the
    flush; the recovery check must flag missing keys."""
    real_flush = LSMEngine._flush_memtable_to_files

    def eager_flush(self):
        files = real_flush(self)
        if self.wal is not None and self._pending_wal_truncate_seq:
            self.wal.truncate_through(self._pending_wal_truncate_seq)
            self._pending_wal_truncate_seq = 0
        return files

    monkeypatch.setattr(LSMEngine, "_flush_memtable_to_files", eager_flush)
    harness = CrashRecoveryHarness("leveldb", _spec(seed_corpus))
    outcome = harness.run_point("disk.free", hits=1)
    assert outcome.fired
    assert not outcome.consistent
    assert "missing keys" in outcome.detail


# ----------------------------------------------------------------------
# The legacy direct crash path still composes with the new wrapper.
# ----------------------------------------------------------------------


def test_direct_crash_and_recover_roundtrip(tiny_config):
    from repro.clock import VirtualClock
    from repro.storage.disk import SimulatedDisk
    from repro.substrate import Substrate

    config = tiny_config.replace(wal_enabled=True)
    clock = VirtualClock()
    disk = SimulatedDisk(clock, config.seq_bandwidth_kb_per_s)
    engine = LevelDBTree(Substrate(config, clock, disk))
    for key in range(40):
        engine.put(key)
    engine.delete(3)
    lost = engine.simulate_crash()
    assert lost > 0
    engine.recover()
    assert engine.get(5).found
    assert not engine.get(3).found
