"""Unit tests for :mod:`repro.sstable` — entries, blocks, files, tables.

A file is a view of its build (a tuple slice; blocks are cut on the first
point read).  Two groups at the end hold that representation to account:
the view against the eager file it replaced (``tests/eager_reference.py``)
on random inputs, and laziness itself, counted in ``Block`` constructions.
"""

import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import VirtualClock
from repro.config import SystemConfig
from repro.errors import TableError
from repro.sstable.block import Block
from repro.sstable.builder import TableBuilder
from repro.sstable.entry import Entry, Kind, newest, value_for
from repro.sstable.iterator import merge_entries, merge_with_obsolete_count
from repro.sstable.sorted_table import SortedTable
from repro.check.reflect import live_files
from repro.sim.experiment import ENGINE_NAMES, build_engine
from repro.sstable.sstable import FileIdSource, SSTableFile
from repro.sstable.superfile import SuperFileIdSource, group_into_superfiles
from repro.storage.disk import SimulatedDisk
from repro.storage.extent import Extent
from tests.eager_reference import (
    blocks_overlapping,
    eager_blocks,
    entries_in_range,
    entry_list,
    find_block,
)


def make_builder(config=None):
    config = config or SystemConfig.tiny()
    disk = SimulatedDisk(VirtualClock(), config.seq_bandwidth_kb_per_s)
    return TableBuilder(config, disk, FileIdSource(), SuperFileIdSource()), disk


def entries(*keys, seq=1):
    return [Entry(k, seq) for k in keys]


class TestEntry:
    def test_value_roundtrip(self):
        entry = Entry(7, 3)
        assert entry.value() == value_for(7, 3)

    def test_tombstone_has_no_value(self):
        entry = Entry(7, 3, Kind.DELETE)
        assert entry.is_tombstone
        assert entry.value() is None

    def test_newest_picks_higher_seq(self):
        old, new = Entry(1, 1), Entry(1, 9)
        assert newest(old, new) == new
        assert newest(new, old) == new

    def test_newest_rejects_different_keys(self):
        with pytest.raises(ValueError):
            newest(Entry(1, 1), Entry(2, 1))


class TestBlock:
    def test_lookup(self):
        block = Block(entries(2, 4, 6), bits_per_key=15, index=0)
        assert block.get(4) == Entry(4, 1)
        assert block.get(5) is None

    def test_bloom_has_no_false_negatives(self):
        block = Block(entries(*range(0, 40, 4)), bits_per_key=15, index=0)
        assert all(block.may_contain(k) for k in range(0, 40, 4))

    def test_covers(self):
        block = Block(entries(10, 20), bits_per_key=15, index=0)
        assert block.covers(10) and block.covers(15) and block.covers(20)
        assert not block.covers(9) and not block.covers(21)

    def test_entries_in_range_inclusive(self):
        """The eager reference's range cut, and the view's, on one block."""
        block = Block(entries(1, 3, 5, 7), bits_per_key=15, index=0)
        assert [e.key for e in entries_in_range(block, 3, 5)] == [3, 5]
        assert entries_in_range(block, 8, 9) == []
        assert entries_in_range(block, 5, 3) == []
        builder, _ = make_builder()
        (file,) = builder.build(entries(1, 3, 5, 7))
        assert [e.key for e in file.scan_slice(3, 5)[0]] == [3, 5]
        assert file.scan_slice(8, 9) == ((), range(0))
        assert file.scan_slice(5, 3) == ((), range(0))

    def test_rejects_empty(self):
        with pytest.raises(TableError):
            Block([], bits_per_key=15, index=0)

    def test_rejects_unsorted(self):
        with pytest.raises(TableError):
            Block(entries(3, 1), bits_per_key=15, index=0)

    def test_rejects_duplicates(self):
        with pytest.raises(TableError):
            Block(entries(1, 1), bits_per_key=15, index=0)


class TestBuilderAndFile:
    def test_packing_respects_block_and_file_sizes(self):
        builder, _ = make_builder()  # 4 pairs/block, 2 blocks/file.
        files = builder.build(iter(entries(*range(20))))
        assert len(files) == 3  # 8 + 8 + 4 pairs.
        assert files[0].num_blocks == 2
        assert files[2].num_blocks == 1
        assert files[0].num_entries == 8

    def test_builder_charges_sequential_writes(self):
        builder, disk = make_builder()
        builder.build(iter(entries(*range(16))))
        assert disk.stats.seq_write_kb == 16  # 16 pairs * 1 KB.

    def test_builder_allocates_live_extents(self):
        builder, disk = make_builder()
        files = builder.build(iter(entries(*range(16))))
        assert disk.live_kb == sum(f.size_kb for f in files)

    def test_unique_file_ids(self):
        builder, _ = make_builder()
        files = builder.build(iter(entries(*range(32))))
        ids = [f.file_id for f in files]
        assert len(set(ids)) == len(ids)

    def test_find_block(self):
        builder, _ = make_builder()
        (file,) = builder.build(iter(entries(0, 2, 4, 6, 8, 10, 12, 14)))
        assert file.find_block(8).get(8) is not None
        assert file.find_block(7) is None  # In a gap between keys? No:
        # key 7 falls inside block ranges only if covered; 7 is between
        # block0 [0,6] and block1 [8,14], so no block covers it.

    def test_blocks_overlapping(self):
        builder, _ = make_builder()
        (file,) = builder.build(iter(entries(*range(8))))
        assert file.scan_slice(0, 7)[1] == range(0, 2)
        assert file.scan_slice(5, 7)[1] == range(1, 2)
        assert len(file.scan_slice(9, 12)[1]) == 0
        assert not file.materialised  # Block indices, never a Block.

    def test_mark_removed_keeps_key_range_only(self):
        builder, _ = make_builder()
        (file,) = builder.build(iter(entries(*range(8))))
        file.mark_removed()
        assert file.removed
        assert file.min_key == 0 and file.max_key == 7
        assert file.num_entries == 0 and file.num_blocks == 0
        for read in (
            lambda: file.find_block(3),
            lambda: file.blocks,
            lambda: file.entries(),
            lambda: file.entry_list(),
            lambda: file.scan_slice(0, 7),
            lambda: file.block_key_span(0),
        ):
            with pytest.raises(TableError):
                read()

    def test_grouped_build_tags_superfiles(self):
        builder, _ = make_builder()  # superfile_files = 2
        files = builder.build_grouped(iter(entries(*range(48))))
        assert len(files) == 6
        assert [f.superfile_id for f in files] == [0, 0, 1, 1, 2, 2]


class TestSuperFile:
    def test_rejects_overlapping_members(self):
        builder, _ = make_builder()
        files = builder.build(iter(entries(*range(16))))
        with pytest.raises(TableError):
            group_into_superfiles(
                [files[1], files[0]], 2, SuperFileIdSource()
            )

    def test_size_and_bounds(self):
        """A super-file is the files stamped with its id: one id covers
        the whole short group, so its bounds and size are theirs."""
        builder, _ = make_builder()
        files = builder.build(iter(entries(*range(16))))
        ids = SuperFileIdSource()
        ids.next_id()
        assert group_into_superfiles(files, 10, ids) is None
        members = [f for f in files if f.superfile_id == 1]
        assert len(members) == len(files) > 1
        assert members[0].min_key == 0 and members[-1].max_key == 15
        assert ids.next_id() == 2


class TestSortedTable:
    def _files(self, *ranges):
        builder, _ = make_builder()
        files = []
        for low, high in ranges:
            files.extend(builder.build(iter(entries(*range(low, high)))))
        return files

    def test_append_and_find(self):
        table = SortedTable(self._files((0, 8), (10, 18)))
        assert table.find_file(3).covers(3)
        assert table.find_file(9) is None
        assert table.find_file(99) is None

    def test_append_rejects_overlap(self):
        files = self._files((0, 8))
        table = SortedTable(files)
        overlapping = self._files((4, 12))
        with pytest.raises(TableError):
            table.append(overlapping[0])

    def test_files_overlapping(self):
        table = SortedTable(self._files((0, 8), (10, 18), (20, 28)))
        assert len(table.files_overlapping(5, 25)) >= 3
        assert table.files_overlapping(100, 200) == []

    def test_replace_range(self):
        files = self._files((0, 8), (10, 18))
        table = SortedTable(files)
        replacement = self._files((0, 18))
        table.replace_range(files, replacement)
        assert table.files == replacement

    def test_replace_range_empty_old_inserts_sorted(self):
        table = SortedTable(self._files((0, 8)))
        new = self._files((10, 18))
        table.replace_range([], new)
        assert table.find_file(12) is not None

    def test_pop_first(self):
        files = self._files((0, 8), (10, 18))
        table = SortedTable(files)
        assert table.pop_first() is files[0]
        assert len(table) == len(files) - 1

    def test_pop_empty_raises(self):
        with pytest.raises(TableError):
            SortedTable().pop_first()

    def test_size_excludes_removed_markers(self):
        files = self._files((0, 8))
        table = SortedTable(files)
        total = table.size_kb
        files[0].mark_removed()
        assert table.size_kb == total - files[0].size_kb

    def test_entries_skip_removed(self):
        files = self._files((0, 16))
        table = SortedTable(files)
        files[0].mark_removed()
        keys = [e.key for e in table.entries()]
        assert min(keys) >= 8

    def test_remove_unknown_file_raises(self):
        table = SortedTable()
        (stranger,) = self._files((0, 8))[:1]
        with pytest.raises(TableError):
            table.remove(stranger)

    def test_replace_range_unknown_file_raises(self):
        table = SortedTable(self._files((0, 8), (10, 18)))
        (stranger,) = self._files((10, 18))
        with pytest.raises(TableError):
            table.replace_range([stranger], [])

    def test_replace_range_non_contiguous_raises(self):
        files = self._files((0, 8), (10, 18), (20, 28))
        table = SortedTable(files)
        with pytest.raises(TableError):
            table.replace_range([files[0], files[2]], [])
        assert table.files == files


class TestMergeIterators:
    def test_newest_version_wins(self):
        old = [Entry(1, 1), Entry(2, 1)]
        new = [Entry(1, 5)]
        merged = list(merge_entries([new, old]))
        assert merged == [Entry(1, 5), Entry(2, 1)]

    def test_output_sorted_and_unique(self):
        a = [Entry(k, 2) for k in range(0, 20, 2)]
        b = [Entry(k, 1) for k in range(0, 20, 3)]
        merged = list(merge_entries([a, b]))
        keys = [e.key for e in merged]
        assert keys == sorted(set(keys))

    def test_tombstones_kept_by_default(self):
        source = [[Entry(1, 2, Kind.DELETE)], [Entry(1, 1)]]
        merged = list(merge_entries(source))
        assert merged[0].is_tombstone

    def test_tombstones_dropped_at_last_level(self):
        source = [[Entry(1, 2, Kind.DELETE)], [Entry(1, 1), Entry(2, 1)]]
        merged = list(merge_entries(source, drop_tombstones=True))
        assert merged == [Entry(2, 1)]

    def test_obsolete_count(self):
        a = [Entry(1, 5), Entry(2, 5)]
        b = [Entry(1, 1), Entry(3, 1)]
        merged, obsolete = merge_with_obsolete_count([a, b])
        assert len(merged) == 3
        assert obsolete == 1

    def test_obsolete_count_with_tombstone_drop(self):
        a = [Entry(1, 5, Kind.DELETE)]
        b = [Entry(1, 1)]
        merged, obsolete = merge_with_obsolete_count(
            [a, b], drop_tombstones=True
        )
        assert merged == []
        assert obsolete == 2

    def test_empty_sources(self):
        assert list(merge_entries([])) == []
        assert list(merge_entries([[], []])) == []


# ----------------------------------------------------------------------
# View == eager reference.
# ----------------------------------------------------------------------
KEY_LIMIT = 96  # Small, so drawn keys and bounds collide with real ones.

SORTED_ENTRIES = st.lists(
    st.tuples(
        st.integers(0, KEY_LIMIT),
        st.integers(1, 50),
        st.sampled_from([Kind.PUT, Kind.PUT, Kind.DELETE]),
    ),
    min_size=1,
    max_size=70,
    unique_by=lambda item: item[0],
).map(lambda items: [Entry(*item) for item in sorted(items)])

BOUNDS = st.integers(-3, KEY_LIMIT + 3)


def edge_ranges(blocks):
    """The ranges named in the file's contract, derived from its blocks."""
    first, last = blocks[0].min_key, blocks[-1].max_key
    yield first, last  # The whole file.
    yield first - 2, first - 1  # Past either end.
    yield last + 1, last + 2
    yield first - 1, last + 1
    for left, right in zip(blocks, blocks[1:]):
        yield left.max_key, right.min_key  # Bounds equal to fence keys.
        if left.max_key + 1 < right.min_key:  # The gap between two blocks.
            yield left.max_key + 1, right.min_key - 1
    for block in blocks:
        yield block.min_key, block.min_key  # A single key.
        yield block.max_key, block.min_key - 1  # high < low.
        keys = [entry.key for entry in block]
        for low_key, high_key in zip(keys, keys[1:]):
            if low_key + 1 < high_key:  # Meets the span, none of its entries.
                yield low_key + 1, high_key - 1


@settings(max_examples=150, deadline=None)
@given(
    entry_run=SORTED_ENTRIES,
    pairs_per_block=st.integers(1, 8),
    blocks_per_file=st.integers(1, 4),
    keys=st.lists(BOUNDS, max_size=12),
    ranges=st.lists(st.tuples(BOUNDS, BOUNDS), max_size=12),
)
def test_view_equals_eager_reference(
    entry_run, pairs_per_block, blocks_per_file, keys, ranges
):
    """Point lookup, scan slice and bulk read of every built file equal
    the eager file's, whatever the packing and wherever the bounds fall."""
    config = SystemConfig.tiny().replace(
        block_size_kb=pairs_per_block,
        file_size_kb=pairs_per_block * blocks_per_file,
    )
    builder, disk = make_builder(config)
    files = builder.build(entry_run)
    per_file = pairs_per_block * blocks_per_file
    assert [e for f in files for e in f.entry_list()] == entry_run
    assert disk.live_kb == sum(f.size_kb for f in files)
    for number, file in enumerate(files):
        chunk = entry_run[number * per_file : (number + 1) * per_file]
        blocks = eager_blocks(chunk, pairs_per_block, config.bloom_bits_per_key)
        assert file.num_entries == len(chunk)
        assert file.num_blocks == len(blocks)
        assert file.size_kb == len(blocks) * config.block_size_kb
        assert (file.min_key, file.max_key) == (
            blocks[0].min_key,
            blocks[-1].max_key,
        )
        assert file.entry_list() == tuple(entry_list(blocks))
        assert list(file.entries()) == entry_list(blocks)
        assert [file.block_key_span(b.index) for b in blocks] == [
            (b.min_key, b.max_key) for b in blocks
        ]

        for low, high in [*ranges, *edge_ranges(blocks)]:
            expected = blocks_overlapping(blocks, low, high)
            inside, indices = file.scan_slice(low, high)
            assert list(indices) == [block.index for block in expected]
            assert list(inside) == [
                entry
                for block in expected
                for entry in entries_in_range(block, low, high)
            ]
        assert not file.materialised  # None of the above cut a block.

        for key in [*keys, *(entry.key for entry in chunk)]:
            expected = find_block(blocks, key)
            block = file.find_block(key)
            if expected is None:
                assert block is None
            else:
                assert block.index == expected.index
                assert block.get(key) == expected.get(key)
                assert block.may_contain(key) == expected.may_contain(key)
        assert [
            (b.index, b.min_key, b.max_key, b.entries) for b in file.blocks
        ] == [(b.index, b.min_key, b.max_key, b.entries) for b in blocks]


def test_constructor_keeps_the_eager_checks():
    extent = Extent(0, 8)
    with pytest.raises(TableError, match="at least one entry"):
        SSTableFile(1, [], extent, 4, 15)
    # Keys must rise across each block boundary: one comparison apiece.
    for boundary in ([1, 2, 3, 4, 4, 6], [1, 2, 3, 9, 5, 6]):
        with pytest.raises(TableError, match="sorted and disjoint"):
            SSTableFile(1, entries(*boundary), extent, 4, 15)
    source = entries(1, 2, 3, 4, 5, 6)
    file = SSTableFile(1, source, extent, 4, 15)
    source.clear()  # The file holds its own immutable tuple.
    assert [e.key for e in file.entry_list()] == [1, 2, 3, 4, 5, 6]


@settings(max_examples=60, deadline=None)
@given(
    sources=st.lists(SORTED_ENTRIES, min_size=1, max_size=4),
    drop_tombstones=st.booleans(),
)
def test_merge_over_views_equals_merge_over_lists(sources, drop_tombstones):
    """The compaction merge reads each input file's own tuple."""
    builder, _ = make_builder()
    files = [builder.build(source)[0] for source in sources]
    views = [file.entry_list() for file in files]
    copies = [list(view) for view in views]
    assert merge_entries(views, drop_tombstones) == merge_entries(
        copies, drop_tombstones
    )
    assert merge_with_obsolete_count(
        views, drop_tombstones
    ) == merge_with_obsolete_count(copies, drop_tombstones)
    # A single source is returned as a fresh list, never the file's tuple.
    merged = merge_entries(views[:1])
    assert type(merged) is list and merged == copies[0]
    assert files[0].entry_list() is views[0]


# ----------------------------------------------------------------------
# Laziness, counted.
# ----------------------------------------------------------------------
@pytest.fixture
def blocks_built(monkeypatch):
    """Every ``Block`` construction, as ``[count]``."""
    built = [0]
    from_sorted = Block.from_sorted.__func__
    init = Block.__init__

    def counting_from_sorted(cls, *args):
        built[0] += 1
        return from_sorted(cls, *args)

    def counting_init(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Block, "from_sorted", classmethod(counting_from_sorted))
    monkeypatch.setattr(Block, "__init__", counting_init)
    return built


def _live_blocks() -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is Block)


def _reachable(root) -> list:
    """Every object reachable from ``root`` (classes and modules aside)."""
    seen = {id(root): root}
    frontier = [root]
    while frontier:
        for child in gc.get_referents(frontier.pop()):
            if id(child) not in seen and not isinstance(
                child, (type, type(gc))
            ):
                seen[id(child)] = child
                frontier.append(child)
    return list(seen.values())


@pytest.mark.parametrize("engine_name", ENGINE_NAMES)
def test_writes_and_scans_build_no_block(engine_name, blocks_built):
    """Puts through 20 compactions and scans construct no ``Block``; a
    ``get`` materialises the files it reaches and a repeat nothing."""
    blocks_before = _live_blocks()
    setup = build_engine(engine_name, SystemConfig.tiny())
    engine, clock = setup.engine, setup.clock
    rng = random.Random(11)
    puts = 0
    while engine.stats.compactions < 20:
        engine.put(rng.randrange(2048))
        puts += 1
        if puts % 16 == 0:
            clock.advance(1)
            engine.tick(clock.now)
    assert blocks_built == [0]
    assert _live_blocks() == blocks_before

    for low in range(0, 2048, 64):
        assert engine.scan(low, low + 80).entries
    assert blocks_built == [0]
    assert _live_blocks() == blocks_before
    files = live_files(engine)
    assert files and not any(file.materialised for file in files.values())

    # A key on disk only: the point read must descend into the runs.
    key = next(
        file.min_key
        for file in files.values()
        if engine.memtable.get(file.min_key) is None
    )
    assert engine.get(key).found
    reached = [file for file in files.values() if file.materialised]
    assert reached and all(file.covers(key) for file in reached)
    assert blocks_built == [sum(file.num_blocks for file in reached)]
    assert engine.get(key).found
    assert blocks_built == [sum(file.num_blocks for file in reached)]


@pytest.mark.parametrize("engine_name", ENGINE_NAMES)
def test_only_a_point_read_materialises(engine_name, materialised):
    """Under mixed traffic no flush, merge, warm transplant, trim, scan
    or tick cuts a block: every materialisation happens inside a get."""
    setup = build_engine(engine_name, SystemConfig.tiny())
    engine, clock = setup.engine, setup.clock
    rng = random.Random(12)
    for step in range(3000):
        cut = len(materialised)
        key = rng.randrange(1024)
        op = rng.choice(["put", "put", "delete", "get", "get", "scan"])
        if op == "get":
            engine.get(key)
            continue
        if op == "put":
            engine.put(key)
        elif op == "delete":
            engine.delete(key)
        else:
            engine.scan(key, key + 64)
        if step % 16 == 0:
            clock.advance(1)
            engine.tick(clock.now)
        assert len(materialised) == cut, (op, step)
    assert materialised and engine.stats.compactions > 4


def test_mark_removed_frees_the_data():
    """Section IV-A: "all its data will be deleted" — from memory too."""
    builder, _ = make_builder()
    (file,) = builder.build(entries(*range(8)))
    assert file.find_block(5).get(5) == Entry(5, 1)
    assert any(isinstance(obj, (Entry, Block)) for obj in _reachable(file))
    file.mark_removed()
    assert not file.materialised
    assert not any(isinstance(obj, (Entry, Block)) for obj in _reachable(file))
