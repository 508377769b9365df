"""Differential harness: oracle lockstep + invariant checkers + mutations.

The positive tests replay the pinned seed corpus across every engine
variant and require oracle-identical answers with all invariants green.
The mutation smoke tests deliberately break the system under test — an
off-by-one in the trim pass, a leaked extent, a skipped cache
invalidation, a swallowed delete — and require the harness to notice:
a checker that cannot fail is not checking anything.
"""

from __future__ import annotations

import pytest

from repro.check import DifferentialRunner, KVOracle, ScheduleSpec
from repro.check.schedule import generate_schedule
from repro.core.trim import TrimProcess
from repro.lsm.base import LSMEngine
from repro.lsm.leveldb import LevelDBTree
from repro.obs.events import TrimRun
from repro.sim.experiment import ENGINE_NAMES
from repro.storage.disk import SimulatedDisk

# ----------------------------------------------------------------------
# The oracle itself.
# ----------------------------------------------------------------------


class TestKVOracle:
    def test_put_get_roundtrip(self):
        oracle = KVOracle()
        oracle.put(7, 3)
        assert oracle.get(7) == (True, "v7:3")
        assert oracle.get(8) == (False, None)

    def test_overwrite_takes_newest_seq(self):
        oracle = KVOracle()
        oracle.put(7, 3)
        oracle.put(7, 9)
        assert oracle.get(7) == (True, "v7:9")

    def test_delete_removes(self):
        oracle = KVOracle()
        oracle.put(7, 3)
        oracle.delete(7)
        assert oracle.get(7) == (False, None)
        assert len(oracle) == 0

    def test_scan_sorted_closed_range(self):
        oracle = KVOracle()
        for key, seq in [(5, 1), (3, 2), (9, 3), (4, 4)]:
            oracle.put(key, seq)
        assert oracle.scan(3, 5) == [(3, "v3:2"), (4, "v4:4"), (5, "v5:1")]
        assert oracle.scan(6, 8) == []

    def test_copy_is_independent(self):
        oracle = KVOracle()
        oracle.put(1, 1)
        clone = oracle.copy()
        clone.delete(1)
        assert oracle.get(1)[0] and not clone.get(1)[0]


# ----------------------------------------------------------------------
# Schedules are pure functions of their spec.
# ----------------------------------------------------------------------


def test_schedule_is_deterministic():
    spec = ScheduleSpec(seed=42, ops=500)
    assert generate_schedule(spec) == generate_schedule(spec)


def test_schedule_covers_all_op_kinds():
    names = {op.name for op in generate_schedule(ScheduleSpec(seed=0, ops=500))}
    assert names == {"put", "get", "delete", "scan", "tick"}


def test_different_seeds_differ():
    a = generate_schedule(ScheduleSpec(seed=0, ops=200))
    b = generate_schedule(ScheduleSpec(seed=1, ops=200))
    assert a != b


# ----------------------------------------------------------------------
# Every variant stays oracle-identical on the corpus seeds.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("engine_name", ENGINE_NAMES)
def test_engine_matches_oracle(engine_name, seed_corpus):
    diff = seed_corpus["differential"]
    for seed in diff["seeds"]:
        report = DifferentialRunner(
            engine_name,
            seed=seed,
            ops=diff["ops"],
            key_space=diff["key_space"],
        ).run()
        assert report.ok, report.to_json_dict()
        assert report.oracle_checks > 0
        assert report.invariants["ledger"]["checked"] > 0
        assert report.invariants["structure"]["checked"] > 0


def test_lsbm_schedule_exercises_trim(seed_corpus):
    """The corpus must actually drive trims, or trim-bound is vacuous."""
    diff = seed_corpus["differential"]
    report = DifferentialRunner(
        "lsbm",
        seed=diff["seeds"][0],
        ops=diff["ops"],
        key_space=diff["key_space"],
    ).run()
    assert report.ok
    assert report.trim_runs > 0


# ----------------------------------------------------------------------
# Pinned regressions (bugs the harness found, fixed in this tree).
# ----------------------------------------------------------------------


def test_pinned_regressions_stay_fixed(seed_corpus):
    for entry in seed_corpus["regressions"]:
        report = DifferentialRunner(
            entry["engine"],
            seed=entry["seed"],
            ops=entry["ops"],
            key_space=entry["key_space"],
        ).run()
        assert report.ok, (entry["name"], report.to_json_dict())


# ----------------------------------------------------------------------
# Mutation smoke tests: break the system, require detection.
# ----------------------------------------------------------------------


def test_trim_off_by_one_is_caught(monkeypatch):
    """An off-by-one trim pass (skips each table's last file) must trip
    the trim-bound checker."""

    def buggy_run(self, buffer_levels):
        self.runs += 1
        removed = 0
        for level in buffer_levels:
            for table in level.trimmable_tables():
                for file in list(table)[:-1]:  # Off by one: last file kept.
                    if file.removed:
                        continue
                    cached = self._cached_blocks(file.file_id)
                    if cached / file.num_blocks < self._threshold:
                        self._remove_file(file)
                        removed += 1
        self.files_trimmed += removed
        if self._bus is not None and self._bus.active:
            self._bus.emit(TrimRun(removed=removed, run_index=self.runs))
        return removed

    monkeypatch.setattr(TrimProcess, "run", buggy_run)
    report = DifferentialRunner("lsbm", seed=0, ops=8000).run()
    trim_bound = report.invariants["trim-bound"]
    assert not report.ok
    assert trim_bound["violations"] > 0
    assert "kept with" in trim_bound["examples"][0]


def test_unmutated_trim_is_green_and_non_vacuous():
    report = DifferentialRunner("lsbm", seed=0, ops=8000).run()
    assert report.ok
    assert report.trim_runs > 0
    assert report.invariants["trim-bound"]["checked"] > 0


def test_leaked_extent_is_caught(monkeypatch):
    """Skipping the disk free on discard must break ledger reconciliation."""
    real_free = SimulatedDisk.free
    state = {"skipped": 0}

    def leaky_free(self, extent):
        state["skipped"] += 1
        if state["skipped"] % 5 == 0:
            return  # Leak every fifth extent.
        real_free(self, extent)

    monkeypatch.setattr(SimulatedDisk, "free", leaky_free)
    report = DifferentialRunner("leveldb", seed=0, ops=4000).run()
    assert not report.ok
    assert report.invariants["ledger"]["violations"] > 0


def test_skipped_invalidation_is_caught(monkeypatch):
    """Discarding a file without invalidating its cached blocks must trip
    the coherence checker (the exact bug class the paper is about)."""
    real_discard = LSMEngine._discard_files

    def stale_discard(self, files):
        cache = self.db_cache
        self.db_cache = None  # Forget to invalidate.
        try:
            real_discard(self, files)
        finally:
            self.db_cache = cache

    monkeypatch.setattr(LSMEngine, "_discard_files", stale_discard)
    report = DifferentialRunner("leveldb", seed=0, ops=4000).run()
    assert not report.ok
    assert report.invariants["cache-coherence"]["violations"] > 0


def test_unbooked_structure_change_is_caught(monkeypatch):
    """A structure change that keeps the cached read orders (so later
    reads walk runs the engine no longer holds) must trip the structure
    checker."""

    def forgetful(self):
        self._structure_version += 1  # The cached orders survive.

    monkeypatch.setattr(LSMEngine, "_structure_changed", forgetful)
    report = DifferentialRunner("sm", seed=0, ops=4000).run()
    assert not report.ok
    structure = report.invariants["structure"]
    assert structure["violations"] > 0
    assert "stale" in structure["examples"][0]


def test_swallowed_delete_is_caught(monkeypatch):
    """An engine that drops deletes must diverge from the oracle."""

    def swallowed(self, key):
        self._check_open()
        self._seq += 1
        return self._seq  # Sequence consumed, tombstone never written.

    monkeypatch.setattr(LevelDBTree, "delete", swallowed)
    report = DifferentialRunner("leveldb", seed=0, ops=2000).run()
    assert report.mismatch_count > 0
