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

    def test_unknown_engine_rejected(self):
        with pytest.raises(EngineError):
            check_engine(object())

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
        engine.buffer[1].incoming = SortedTable()
        with pytest.raises(EngineError, match="stale"):
            check_engine(engine)
        engine._structure_changed()
        check_engine(engine)


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
