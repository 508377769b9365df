"""Unit tests for :mod:`repro.sstable` — entries, blocks, files, tables."""

import pytest

from repro.clock import VirtualClock
from repro.config import SystemConfig
from repro.errors import TableError
from repro.sstable.block import Block
from repro.sstable.builder import TableBuilder
from repro.sstable.entry import Entry, Kind, newest, value_for
from repro.sstable.iterator import merge_entries, merge_with_obsolete_count
from repro.sstable.sorted_table import SortedTable
from repro.sstable.sstable import FileIdSource
from repro.sstable.superfile import SuperFileIdSource, group_into_superfiles
from repro.storage.disk import SimulatedDisk


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
        block = Block(entries(1, 3, 5, 7), bits_per_key=15, index=0)
        assert [e.key for e in block.entries_in_range(3, 5)] == [3, 5]
        assert block.entries_in_range(8, 9) == []
        assert block.entries_in_range(5, 3) == []

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
        assert len(file.blocks_overlapping(0, 7)) == 2
        assert len(file.blocks_overlapping(5, 7)) == 1
        assert file.blocks_overlapping(9, 12) == []

    def test_mark_removed_keeps_key_range_only(self):
        builder, _ = make_builder()
        (file,) = builder.build(iter(entries(*range(8))))
        file.mark_removed()
        assert file.removed
        assert file.min_key == 0 and file.max_key == 7
        with pytest.raises(TableError):
            file.find_block(3)
        with pytest.raises(TableError):
            list(file.entries())

    def test_grouped_build_tags_superfiles(self):
        builder, _ = make_builder()  # superfile_files = 2
        files, superfiles = builder.build_grouped(iter(entries(*range(48))))
        assert len(files) == 6
        assert len(superfiles) == 3
        assert all(len(sf) == 2 for sf in superfiles)
        for sf in superfiles:
            assert all(f.superfile_id == sf.superfile_id for f in sf.files)


class TestSuperFile:
    def test_rejects_overlapping_members(self):
        builder, _ = make_builder()
        files = builder.build(iter(entries(*range(16))))
        with pytest.raises(TableError):
            group_into_superfiles(
                [files[1], files[0]], 2, SuperFileIdSource()
            )

    def test_size_and_bounds(self):
        builder, _ = make_builder()
        files = builder.build(iter(entries(*range(16))))
        (sf,) = group_into_superfiles(files, 10, SuperFileIdSource())
        assert sf.min_key == 0 and sf.max_key == 15
        assert sf.size_kb == sum(f.size_kb for f in files)


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
