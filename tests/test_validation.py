"""Tests for the structural integrity checker + its use as a property."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig
from repro.core.lsbm import LSbMTree
from repro.errors import EngineError
from repro.sim.experiment import ENGINE_NAMES, build_engine
from repro.sstable.sorted_table import SortedTable
from repro.validation import check_engine

from .conftest import make_engine


class TestCheckerCatchesCorruption:
    def test_healthy_engine_passes(self):
        engine, clock, *_ = make_engine("lsbm")
        rng = random.Random(1)
        for step in range(2000):
            engine.put(rng.randrange(2048))
            if step % 40 == 0:
                clock.advance(1)
                engine.tick(clock.now)
        check_engine(engine)  # Must not raise.

    def test_detects_overlapping_run(self):
        engine, *_ = make_engine("leveldb")
        rng = random.Random(2)
        for _ in range(1500):
            engine.put(rng.randrange(2048))
        # Corrupt: force two files of the top populated run to overlap.
        (run,) = engine.levels[1] if engine.levels[1][0] else engine.levels[2]
        files = run.files
        assert len(files) >= 2
        files[1].min_key = files[0].min_key  # Corrupt the metadata.
        with pytest.raises(EngineError, match="overlap"):
            check_engine(engine)

    def test_detects_leaked_extent(self):
        engine, _, disk, _ = make_engine("blsm")
        rng = random.Random(3)
        for _ in range(1500):
            engine.put(rng.randrange(2048))
        # Corrupt: free a live file's extent behind the engine's back.
        victim = next(
            file
            for level in range(1, engine.num_levels + 1)
            for file in engine.c[level].files
        )
        disk.free(victim.extent)
        with pytest.raises(EngineError, match="freed extent"):
            check_engine(engine)

    def test_detects_unreferenced_live_extent(self):
        """A file dropped from a run without a discard stays live on disk."""
        engine = build_engine("blsm", SystemConfig.tiny()).engine
        rng = random.Random(3)
        for _ in range(1500):
            engine.put(rng.randrange(2048))
        check_engine(engine)
        level = next(
            level
            for level in range(1, engine.num_levels + 1)
            if len(engine.c[level].files) >= 2
        )
        engine.c[level] = SortedTable(engine.c[level].files[1:])
        engine._structure_changed()
        with pytest.raises(EngineError, match="live footprint"):
            check_engine(engine)

    def test_detects_frozen_level_with_data(self):
        engine, clock, *_ = make_engine("lsbm")
        rng = random.Random(4)
        for step in range(1500):
            engine.put(rng.randrange(2048))
            if step % 40 == 0:
                clock.advance(1)
                engine.tick(clock.now)
        level = next(
            (lvl for lvl in engine.buffer[1:] if lvl.live_kb > 0), None
        )
        if level is not None:
            level.frozen = True  # Corrupt: freeze without discarding.
            with pytest.raises(EngineError, match="frozen"):
                check_engine(engine)

    @staticmethod
    def _buffered_interpreter():
        """A ``tiering+buffer`` point holding buffer tables."""
        setup = build_engine("tiering+buffer", SystemConfig.tiny())
        engine, clock = setup.engine, setup.clock
        rng = random.Random(7)
        for step in range(1500):
            engine.put(rng.randrange(1024))
            if step % 50 == 0:
                clock.advance(1)
                engine.tick(clock.now)
        check_engine(engine)
        buf = next(b for b in engine._buffer_levels if b.live_kb > 0)
        return engine, buf

    def test_detects_removed_file_in_interpreter_incoming(self):
        engine, buf = self._buffered_interpreter()
        # Corrupt: a removed file referenced from Bi^0.
        buf.incoming = buf.tables.pop(0)
        victim = next(f for f in buf.incoming if not f.removed)
        engine.buffer.remove_file(victim)
        with pytest.raises(EngineError, match="references removed file"):
            check_engine(engine)

    def test_detects_stale_interpreter_buffer_size(self):
        engine, buf = self._buffered_interpreter()
        assert engine.compaction_buffer_kb > 0  # Fills the memo.
        # Corrupt: a live file leaves without bumping a counter.
        victim = next(f for t in buf.tables for f in t if not f.removed)
        victim.mark_removed()
        engine.disk.free(victim.extent)
        with pytest.raises(EngineError, match="memoised buffer size"):
            check_engine(engine)

    def test_unknown_engine_rejected(self):
        with pytest.raises(EngineError):
            check_engine(object())

    @pytest.mark.parametrize(
        "corrupt",
        [list.pop, list.reverse],
        ids=["key-missing", "keys-unsorted"],
    )
    def test_detects_corrupt_memtable_index(self, corrupt):
        engine, *_ = make_engine("leveldb")
        for key in (5, 3, 9):
            engine.put(key)
        check_engine(engine)
        corrupt(engine.memtable._keys)
        with pytest.raises(EngineError, match="memtable key index"):
            check_engine(engine)

    @pytest.mark.parametrize(
        "engine_name", ["leveldb", "blsm", "sm", "hbase", "lsbm", "lsbm-dual"]
    )
    def test_detects_stale_read_order(self, engine_name):
        engine = build_engine(engine_name, SystemConfig.tiny()).engine
        rng = random.Random(5)
        for _ in range(1500):
            engine.put(rng.randrange(2048))
        engine.get(1)  # Caches the read orders.
        check_engine(engine)
        # Corrupt: the cache no longer lists what the engine holds.
        if isinstance(engine, LSbMTree):
            # LSbM caches its component program: drop the last component.
            engine._read_orders = engine._read_orders[:-1]
        else:
            probe, scan = engine._read_orders
            engine._read_orders = (probe[:-1], scan)
        with pytest.raises(EngineError, match="stale"):
            check_engine(engine)

    def test_detects_unbooked_run_swap(self):
        """A run object replaced without ``_structure_changed()``."""
        engine, *_ = make_engine("blsm")
        rng = random.Random(6)
        for _ in range(1500):
            engine.put(rng.randrange(2048))
        engine.scan(0, 64)
        check_engine(engine)
        engine.c[1], engine.cp[1] = engine.cp[1], engine.c[1]
        with pytest.raises(EngineError, match="stale"):
            check_engine(engine)
        engine._structure_changed()
        check_engine(engine)

    @pytest.mark.parametrize("engine_name", ["lsbm", "lsbm-dual"])
    def test_detects_unbooked_buffer_list_swap(self, engine_name):
        """A buffer list is part of LSbM's read shape, like a run."""
        engine = build_engine(engine_name, SystemConfig.tiny()).engine
        rng = random.Random(6)
        for _ in range(1500):
            engine.put(rng.randrange(2048))
        engine.scan(0, 64)
        check_engine(engine)
        # The same files in a new list object: only the read shape moves
        # (dropping them would also leave the buffer's size stale).
        level = engine.buffer[1]
        level.incoming = SortedTable(level.incoming)
        with pytest.raises(EngineError, match="read orders are stale"):
            check_engine(engine)
        engine._structure_changed()
        check_engine(engine)


def _swap_across_boundary(file) -> None:
    entries = list(file.entry_list())
    entries[3], entries[4] = entries[4], entries[3]  # Blocks hold 4 pairs.
    file._entries = tuple(entries)


def _halve_view(file) -> None:
    file._entries = file.entry_list()[:4]  # One block on a two-block extent.
    file.max_key = file._entries[-1].key


def _fake_removal(file, disk) -> None:
    disk.free(file.extent)
    file.removed = True  # What mark_removed() sets, without its drop.


def _move_fence(file) -> None:
    file._block_max_keys[0] += 1


def _renumber_block(file) -> None:
    file.blocks[0].index = 1


def _swap_blocks(file) -> None:
    file.blocks.reverse()


#: One corruption per property of a file's shape: ``(what check_engine
#: must say, whether a point read reaches the file first, the edit)``.
SHAPE_CORRUPTIONS = {
    "block-count": (
        "blocks for",
        False,
        lambda f, d: setattr(f, "_pairs_per_block", 8),
    ),
    "size": ("KB extent", False, lambda f, d: setattr(f, "size_kb", 4)),
    "extent-of-another-view": ("KB extent", False, lambda f, d: _halve_view(f)),
    "min-key": (
        "claims keys",
        False,
        lambda f, d: setattr(f, "min_key", f.min_key - 1),
    ),
    "max-key": (
        "claims keys",
        False,
        lambda f, d: setattr(f, "max_key", f.max_key + 1),
    ),
    "boundary-order": (
        "unsorted across",
        False,
        lambda f, d: _swap_across_boundary(f),
    ),
    "removed-with-entries": ("holds data", False, _fake_removal),
    "removed-with-blocks": ("holds data", True, _fake_removal),
    "fence-key": ("disagree", True, lambda f, d: _move_fence(f)),
    "block-index": ("disagree", True, lambda f, d: _renumber_block(f)),
    "block-entries": ("disagree", True, lambda f, d: _swap_blocks(f)),
}


class TestFileShape:
    """``check_engine`` holds every live file to the view a build cuts."""

    @pytest.mark.parametrize("corruption", SHAPE_CORRUPTIONS)
    def test_detects_corrupted_file_shape(self, corruption):
        message, materialise, corrupt = SHAPE_CORRUPTIONS[corruption]
        engine, _, disk, _ = make_engine("blsm")
        rng = random.Random(8)
        for _ in range(1500):
            engine.put(rng.randrange(2048))
        victim = next(
            file
            for level in range(1, engine.num_levels + 1)
            for file in engine.c[level]
            if file.num_blocks == 2
        )
        if materialise:
            assert engine.get(victim.min_key).found
        assert victim.materialised == materialise
        check_engine(engine)  # The twin before the edit is healthy.
        corrupt(victim, disk)
        with pytest.raises(EngineError, match=message):
            check_engine(engine)

    def test_check_materialises_nothing(self):
        engine, *_ = make_engine("lsbm")
        rng = random.Random(9)
        for _ in range(1500):
            engine.put(rng.randrange(2048))
        check_engine(engine)
        assert not any(
            file.materialised
            for group in engine._run_groups()
            for run in group
            for file in run
        )


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["put", "put", "put", "delete", "get", "scan"]),
            st.integers(min_value=0, max_value=1023),
        ),
        # The tiny write buffer holds 64 pairs: a shorter stream never
        # flushes, and a state that never changes proves nothing.
        min_size=200,
        max_size=600,
    )
)
@pytest.mark.parametrize("engine_name", ENGINE_NAMES)
def test_integrity_holds_under_arbitrary_streams(engine_name, ops):
    """During and after any operation stream, every invariant holds.

    Reads are interleaved so the cached read orders exist when the next
    flush or merge replaces runs, and the check runs between operations
    so a drop that was missed is seen before the next read repairs it.
    """
    setup = build_engine(engine_name, SystemConfig.tiny())
    engine, clock = setup.engine, setup.clock
    for step, (op, key) in enumerate(ops):
        if op == "put":
            engine.put(key)
        elif op == "delete":
            engine.delete(key)
        elif op == "get":
            engine.get(key)
        else:
            engine.scan(key, key + 64)
        if step % 23 == 0:
            clock.advance(1)
            engine.tick(clock.now)
        if step % 7 == 0:
            check_engine(engine)
    check_engine(engine)
