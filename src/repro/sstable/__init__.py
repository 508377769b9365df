"""The SSTable stack: entries, blocks, files, super-files, sorted tables."""

from repro.sstable.block import Block
from repro.sstable.builder import TableBuilder
from repro.sstable.entry import Entry, Kind, newest, value_for
from repro.sstable.iterator import merge_entries, merge_with_obsolete_count
from repro.sstable.sorted_table import SortedTable
from repro.sstable.sstable import FileIdSource, SSTableFile
from repro.sstable.superfile import SuperFileIdSource, group_into_superfiles

__all__ = [
    "Block",
    "Entry",
    "FileIdSource",
    "Kind",
    "SSTableFile",
    "SortedTable",
    "SuperFileIdSource",
    "TableBuilder",
    "group_into_superfiles",
    "merge_entries",
    "merge_with_obsolete_count",
    "newest",
    "value_for",
]
