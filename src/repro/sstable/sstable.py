"""Multi-page blocks — the paper's "files".

"Multiple continuous single-page blocks are packed into one unit called
multi-page block.  All data in a multi-page block are sequentially stored
on a continuous disk region ... In practice, a multi-page block is
implemented as a regular file."  (Section II-A.)

An :class:`SSTableFile` is immutable once built.  It owns one contiguous
disk extent; deleting the file frees the extent and is what invalidates
its cached blocks.  Compaction-buffer semantics add one twist (Section
IV-A): a file *removed from the compaction buffer* keeps its identity and
its ``[min_key, max_key]`` range as a marker — queries that meet the marker
must fall back to the underlying LSM-tree (Algorithms 3 and 4) — but its
block data and index are gone.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator

from repro.errors import TableError
from repro.sstable.block import Block
from repro.sstable.entry import Entry
from repro.storage.extent import Extent


class FileIdSource:
    """Monotonic file-id generator; one per engine keeps runs deterministic."""

    def __init__(self) -> None:
        self._next = 0

    def next_id(self) -> int:
        value = self._next
        self._next += 1
        return value


class SSTableFile:
    """An immutable sorted file of blocks on one contiguous extent."""

    __slots__ = (
        "file_id",
        "min_key",
        "max_key",
        "size_kb",
        "num_entries",
        "extent",
        "superfile_id",
        "_blocks",
        "_block_max_keys",
        "removed",
        "_table_live_kb",
    )

    def __init__(
        self,
        file_id: int,
        blocks: list[Block],
        extent: Extent,
        superfile_id: int | None = None,
    ) -> None:
        if not blocks:
            raise TableError("a file must contain at least one block")
        max_keys = []
        num_entries = 0
        previous_max = None
        for block in blocks:
            if previous_max is not None and previous_max >= block.min_key:
                raise TableError("file blocks must be sorted and disjoint")
            previous_max = block.max_key
            max_keys.append(previous_max)
            num_entries += len(block)
        self.file_id = file_id
        self._blocks = blocks
        self._block_max_keys = max_keys
        self.min_key = blocks[0].min_key
        self.max_key = previous_max
        self.num_entries = num_entries
        self.size_kb = extent.size_kb
        self.extent = extent
        #: Id of the super-file this file belongs to, if any (Section IV-C).
        self.superfile_id = superfile_id
        #: Compaction-buffer removal marker (Section IV-A): when ``True``
        #: only ``min_key``/``max_key`` remain meaningful.
        self.removed = False
        #: The live-size cell of the sorted table this file currently
        #: counts toward (see :class:`SortedTable`), else ``None``.  The
        #: cell holds one int and no pointer back to the table, so a
        #: dropped table is freed by reference counting alone.
        self._table_live_kb: list[int] | None = None

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    @property
    def num_blocks(self) -> int:
        return len(self._blocks)

    @property
    def blocks(self) -> list[Block]:
        self._check_not_removed()
        return self._blocks

    def __repr__(self) -> str:
        flag = " removed" if self.removed else ""
        return (
            f"SSTableFile(id={self.file_id}, keys=[{self.min_key},"
            f" {self.max_key}], blocks={self.num_blocks}{flag})"
        )

    def covers(self, key: int) -> bool:
        return self.min_key <= key <= self.max_key

    def overlaps(self, low: int, high: int) -> bool:
        return self.min_key <= high and low <= self.max_key

    # ------------------------------------------------------------------
    # Removal marker (compaction-buffer semantics).
    # ------------------------------------------------------------------
    def mark_removed(self) -> None:
        """Drop block data and index, keeping only the key-range marker.

        "All its indices except the minimum and maximum keys will be
        removed from the memory, and all its data will be deleted from the
        disk."  The caller is responsible for freeing the extent and
        invalidating cached blocks.  The containing sorted table is not
        told, yet its ``size_kb`` drops by this file's size at once: the
        file takes itself out of the table's live-size cell.
        """
        self.removed = True
        self._blocks = []
        self._block_max_keys = []
        cell = self._table_live_kb
        if cell is not None:
            cell[0] -= self.size_kb
            self._table_live_kb = None

    def _check_not_removed(self) -> None:
        if self.removed:
            raise TableError(f"file {self.file_id} was removed; data is gone")

    # ------------------------------------------------------------------
    # Lookups.
    # ------------------------------------------------------------------
    def find_block(self, key: int) -> Block | None:
        """The block whose range covers ``key``, if one exists."""
        if self.removed:
            self._check_not_removed()
        max_keys = self._block_max_keys
        position = bisect_left(max_keys, key)
        if position == len(max_keys):
            return None
        block = self._blocks[position]
        # bisect_left guarantees key <= block.max_key here.
        return block if block.min_key <= key else None

    def blocks_overlapping(self, low: int, high: int) -> list[Block]:
        """All blocks intersecting ``[low, high]`` in key order."""
        self._check_not_removed()
        if high < low:
            return []
        start = bisect_left(self._block_max_keys, low)
        result: list[Block] = []
        for block in self._blocks[start:]:
            if block.min_key > high:
                break
            result.append(block)
        return result

    def entries(self) -> Iterator[Entry]:
        """All entries of the file in key order."""
        self._check_not_removed()
        for block in self._blocks:
            yield from block

    def entry_list(self) -> list[Entry]:
        """All entries as a list (the compaction merge's bulk read)."""
        self._check_not_removed()
        blocks = self._blocks
        if len(blocks) == 1:
            return list(blocks[0].entries)
        result: list[Entry] = []
        for block in blocks:
            result.extend(block.entries)
        return result
