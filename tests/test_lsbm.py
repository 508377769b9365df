"""Unit tests for the LSbM-tree core (Algorithms 1-4, Sections III-V)."""

import random


from repro.cache.db_cache import DBBufferCache
from repro.check.reflect import live_files
from repro.clock import VirtualClock
from repro.config import SystemConfig
from repro.core.lsbm import LSbMTree
from repro.sstable.entry import Entry, value_for
from repro.sstable.sorted_table import SortedTable
from repro.sstable.sstable import SSTableFile
from repro.storage.disk import SimulatedDisk
from repro.storage.extent import Extent
from repro.substrate import Substrate


def make_lsbm(config=None):
    config = config or SystemConfig.tiny()
    clock = VirtualClock()
    disk = SimulatedDisk(clock, config.seq_bandwidth_kb_per_s)
    cache = DBBufferCache(config.cache_blocks)
    return LSbMTree(Substrate(config, clock, disk, db_cache=cache)), clock, disk, cache


def churn(engine, rng, ops, keyspace=4096):
    for _ in range(ops):
        engine.put(rng.randrange(keyspace))


class TestBufferedMerge:
    def test_compaction_inputs_become_buffer_files(self):
        """Algorithm 1 line 17: the merged-down file is appended to
        B(i+1) instead of deleted — with zero additional write I/O."""
        engine, *_ = make_lsbm()
        churn(engine, random.Random(1), 600)
        assert engine.lsbm_stats.buffer_files_appended > 0

    def test_buffer_construction_costs_no_extra_writes(self):
        """Section IV-E: building the compaction buffer involves no I/O
        beyond what the underlying LSM-tree writes anyway."""
        config = SystemConfig.tiny()
        lsbm, _, lsbm_disk, _ = make_lsbm(config)
        from .conftest import make_engine

        blsm, _, blsm_disk, _ = make_engine("blsm", config)
        rng_a, rng_b = random.Random(7), random.Random(7)
        churn(lsbm, rng_a, 2000)
        churn(blsm, rng_b, 2000)
        assert lsbm_disk.stats.seq_write_kb == blsm_disk.stats.seq_write_kb

    def test_buffer_files_not_freed_from_disk_on_append(self):
        engine, _, disk, _ = make_lsbm()
        churn(engine, random.Random(2), 800)
        live_buffer = sum(
            level.total_live_kb for level in engine.buffer[1:]
        )
        assert live_buffer > 0
        assert disk.live_kb >= live_buffer

    def test_db_size_includes_buffer_overhead(self):
        """LSbM's database is slightly larger than bLSM's (Fig. 13)."""
        config = SystemConfig.tiny()
        lsbm, *_ = make_lsbm(config)
        from .conftest import make_engine

        blsm, _, blsm_disk, _ = make_engine("blsm", config)
        churn(lsbm, random.Random(9), 2500)
        churn(blsm, random.Random(9), 2500)
        assert lsbm.db_size_kb >= blsm_disk.live_kb


class TestCacheProtection:
    def test_lsbm_invalidates_less_than_blsm(self):
        """The headline mechanism: cached blocks survive compactions."""
        from .conftest import make_engine

        config = SystemConfig.tiny()
        results = {}
        for name, (engine, cache) in {
            "lsbm": make_lsbm(config)[::3],
            "blsm": make_engine("blsm", config)[::3],
        }.items():
            rng = random.Random(21)
            hot = range(1024, 1024 + 1024)
            for step in range(4000):
                engine.put(rng.randrange(4096))
                engine.get(rng.choice(hot))
            results[name] = cache.stats.invalidations
        assert results["lsbm"] < results["blsm"]

    def test_reads_served_by_buffer(self):
        engine, clock, _, cache = make_lsbm()
        rng = random.Random(3)
        hot = list(range(512))
        for step in range(3000):
            engine.put(rng.randrange(4096))
            engine.get(rng.choice(hot))
            if step % 64 == 0:
                clock.advance(1)
                engine.tick(clock.now)
        assert engine.lsbm_stats.reads_served_by_buffer > 0


class TestFreeze:
    def test_last_level_freezes_under_repeated_data(self):
        """Section VI-B: with a preloaded data set every write is an
        update, so merges into the last level drop obsolete data and B3
        freezes."""
        config = SystemConfig.tiny()
        engine, *_ = make_lsbm(config)
        engine.bulk_load([Entry(k, 0) for k in range(config.unique_keys)])
        churn(engine, random.Random(5), 6000, keyspace=config.unique_keys)
        assert engine.buffer[engine.num_levels].frozen
        assert engine.lsbm_stats.freeze_events >= 1

    def test_frozen_level_keeps_no_buffer_data(self):
        config = SystemConfig.tiny()
        engine, *_ = make_lsbm(config)
        engine.bulk_load([Entry(k, 0) for k in range(config.unique_keys)])
        churn(engine, random.Random(6), 6000, keyspace=config.unique_keys)
        last = engine.buffer[engine.num_levels]
        assert last.live_kb == 0

    def test_unique_inserts_do_not_freeze_upper_levels(self):
        """Fresh unique keys produce no obsolete data: nothing freezes."""
        config = SystemConfig.tiny()
        engine, *_ = make_lsbm(config)
        for key in range(3000):  # Strictly unique keys.
            engine.put(key)
        assert not engine.buffer[1].frozen
        assert not engine.buffer[2].frozen

    def test_reads_stay_correct_across_freeze(self):
        config = SystemConfig.tiny()
        engine, *_ = make_lsbm(config)
        engine.bulk_load([Entry(k, 0) for k in range(config.unique_keys)])
        rng = random.Random(8)
        model = {k: 0 for k in range(config.unique_keys)}
        for _ in range(5000):
            key = rng.randrange(config.unique_keys)
            model[key] = engine.put(key)
        for key in rng.sample(sorted(model), 300):
            assert engine.get(key).value == value_for(key, model[key])


class TestTrim:
    def test_trim_runs_on_schedule(self):
        engine, clock, *_ = make_lsbm()
        rng = random.Random(4)
        for step in range(2000):
            engine.put(rng.randrange(4096))
            if step % 20 == 0:
                clock.advance(1)
                engine.tick(clock.now)
        assert engine.buffer.trim.runs >= 2

    def test_trim_runs_counted_on_an_idle_engine(self):
        """A pass that removes nothing still counts: the stat equals the
        trim process's own count after every tick."""
        engine, clock, *_ = make_lsbm()
        engine.bulk_load([Entry(k, 0) for k in range(2048)])
        for _ in range(300):
            clock.advance(1)
            engine.tick(clock.now)
            assert engine.lsbm_stats.trim_runs == engine.buffer.trim.runs
        assert engine.buffer.trim.runs >= 2
        assert engine.buffer.trim.files_trimmed == 0

    def test_trim_removes_uncached_files(self):
        """A write-only workload caches nothing, so the trim process must
        shrink the compaction buffer toward zero (Section IV-D)."""
        engine, clock, *_ = make_lsbm()
        rng = random.Random(4)
        for step in range(4000):
            engine.put(rng.randrange(8192))
            if step % 16 == 0:
                clock.advance(1)
                engine.tick(clock.now)
        engine.buffer.trim.run(engine.buffer[1:])  # Catch files appended since.
        # Everything except the untrimmable newest tables must be gone.
        for level in engine.buffer[1:]:
            for table in level.trimmable_tables():
                assert all(f.removed for f in table)

    def test_trimmed_files_leave_markers(self):
        engine, clock, *_ = make_lsbm()
        rng = random.Random(4)
        for step in range(3000):
            engine.put(rng.randrange(8192))
            if step % 16 == 0:
                clock.advance(1)
                engine.tick(clock.now)
        markers = sum(
            1
            for level in engine.buffer[1:]
            for table in level.tables + level.draining
            for f in table
            if f.removed
        )
        assert markers > 0
        assert engine.lsbm_stats.buffer_files_removed > 0

    def test_trimmed_files_release_disk_space(self):
        engine, clock, disk, _ = make_lsbm()
        rng = random.Random(4)
        for step in range(3000):
            engine.put(rng.randrange(8192))
            if step % 16 == 0:
                clock.advance(1)
                engine.tick(clock.now)
        engine.buffer.trim.run(engine.buffer[1:])  # Catch files appended since.
        live_buffer = sum(level.total_live_kb for level in engine.buffer[1:])
        # A write-only workload keeps (almost) nothing in the buffer
        # beyond the untrimmable newest tables of each level.
        untrimmable = sum(
            level.incoming.size_kb
            + (level.tables[0].size_kb if level.tables else 0)
            for level in engine.buffer[1:]
        )
        assert live_buffer <= untrimmable


class TestNoCrossEngineState:
    def test_trimming_one_engine_leaves_another_untouched(self):
        """Two engines in one process share nothing: removing a buffer
        file of the first changes no size and visits no file of the
        second."""
        first, clock, *_ = make_lsbm()
        second, *_ = make_lsbm()
        for engine, seed in ((first, 4), (second, 5)):
            churn(engine, random.Random(seed), 3000, keyspace=8192)
        tables = [run for group in second._run_groups() for run in group] + [
            table
            for level in second.buffer[1:]
            for table in (level.incoming, *level.tables, *level.draining)
        ]
        cells = [(table._live_kb, table._live_kb[0]) for table in tables]
        sizes = [table.size_kb for table in tables]
        assert sum(sizes) > 0
        buffer_kb = second.compaction_buffer_kb

        victim = next(
            f for level in first.buffer[1:] for f in level.live_files()
        )
        before = first.compaction_buffer_kb
        first.buffer.remove_file(victim)
        assert first.compaction_buffer_kb == before - victim.size_kb

        assert [table.size_kb for table in tables] == sizes
        assert all(cell[0] == value for cell, value in cells)
        assert all(a[0] is not b[0] for a in cells for b in cells if a is not b)
        assert second.compaction_buffer_kb == buffer_kb

    def test_file_class_holds_no_mutable_state(self):
        """Nothing an instance could bump for every engine at once."""
        for klass in (SSTableFile, SortedTable):
            for name, value in vars(klass).items():
                if name.startswith("__"):
                    continue
                assert callable(value) or isinstance(
                    value, (property, type(SSTableFile.file_id))
                ), f"{klass.__name__}.{name} is class-level data"


    def test_file_slots_point_back_at_nothing(self):
        """A file is slots only, and no slot reaches a table, an engine
        or the build it was cut from: its tuple is its own slice (never
        more than one file of entries), its cell one int."""
        engine, *_ = make_lsbm()
        churn(engine, random.Random(6), 3000, keyspace=8192)
        assert engine.get(next(iter(engine.c[2])).min_key).found
        files = list(live_files(engine).values())
        assert any(f.materialised for f in files)
        assert not all(f.materialised for f in files)
        for file in files:
            assert not hasattr(file, "__dict__")
            for name in SSTableFile.__slots__:
                value = getattr(file, name)
                assert isinstance(
                    value, (int, tuple, list, Extent, type(None))
                ), f"{name} holds a {type(value).__name__}"
            assert type(file.entry_list()) is tuple
            assert file.num_entries <= engine.config.pairs_per_file
            assert file._table_live_kb is None or len(file._table_live_kb) == 1


class TestAdaptivity:
    def test_read_only_workload_builds_no_buffer(self):
        """Section IV-D: with no writes there are no compactions, hence
        no appends and an empty compaction buffer."""
        config = SystemConfig.tiny()
        engine, *_ = make_lsbm(config)
        engine.bulk_load([Entry(k, 0) for k in range(2048)])
        rng = random.Random(10)
        for _ in range(2000):
            engine.get(rng.randrange(2048))
        assert engine.compaction_buffer_kb == 0


class TestQueryCorrectness:
    def test_model_equivalence_under_mixed_operations(self):
        engine, clock, *_ = make_lsbm()
        rng = random.Random(31)
        model: dict[int, int] = {}
        for step in range(6000):
            key = rng.randrange(2048)
            if rng.random() < 0.9:
                model[key] = engine.put(key)
            else:
                engine.delete(key)
                model.pop(key, None)
            if step % 40 == 0:
                clock.advance(1)
                engine.tick(clock.now)
            if step % 7 == 0:
                probe = rng.randrange(2200)
                result = engine.get(probe)
                if probe in model:
                    assert result.value == value_for(probe, model[probe])
                else:
                    assert not result.found
            if step % 151 == 0:
                low = rng.randrange(2048)
                high = low + rng.randrange(128)
                got = {e.key: e.seq for e in engine.scan(low, high).entries}
                want = {k: s for k, s in model.items() if low <= k <= high}
                assert got == want

    def test_removed_marker_falls_back_to_tree(self):
        """After heavy trimming every read must still be answerable from
        the underlying LSM-tree."""
        engine, clock, *_ = make_lsbm()
        rng = random.Random(12)
        model: dict[int, int] = {}
        for step in range(4000):
            key = rng.randrange(4096)
            model[key] = engine.put(key)
            if step % 10 == 0:
                clock.advance(1)
                engine.tick(clock.now)
        for key in rng.sample(sorted(model), 400):
            assert engine.get(key).value == value_for(key, model[key])


class TestPaceRemoval:
    def test_draining_buffer_shrinks_with_cprime(self):
        """Algorithm 1 lines 18-20: |B'i|/S̄i tracks |C'i|/Si."""
        engine, *_ = make_lsbm()
        rng = random.Random(14)
        # Cache everything so trim keeps files and pace removal is the
        # only shrinking force.
        for _ in range(5000):
            engine.put(rng.randrange(4096))
        for level in range(1, engine.num_levels):
            buf = engine.buffer[level]
            if buf.draining_initial_kb > 0 and engine.cp[level].size_kb == 0:
                assert buf.draining_live_kb == 0
