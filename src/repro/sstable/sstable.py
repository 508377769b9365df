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
data and index are gone.

In memory a file is a *view*: the tuple slice of the sorted entry
sequence its build produced, plus what is needed to cut that slice into
single-page blocks.  Block ``i`` is ``entries[i * pairs_per_block :
(i + 1) * pairs_per_block]``, so writes, merges and scans work on the
slice and block *indices* alone.  The :class:`Block` objects (each with
its key list and Bloom filter) and the per-block fence keys are built on
the first point read that reaches the file: most files a compaction
writes are rewritten by a later one before any read looks at them, and
the blocks are a pure function of the slice, so deferring them changes
nothing observable.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Iterator

from repro.bloom.hashing import mask_table
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
        "extent",
        "superfile_id",
        "_entries",
        "_pairs_per_block",
        "_bits_per_key",
        "_blocks",
        "_block_max_keys",
        "removed",
        "_table_live_kb",
    )

    def __init__(
        self,
        file_id: int,
        entries: Iterable[Entry],
        extent: Extent,
        pairs_per_block: int,
        bits_per_key: int,
    ) -> None:
        """A file over ``entries``, which the caller guarantees sorted.

        Builder inputs (a memtable's sorted snapshot, a merge's output)
        are strictly sorted by construction, so entries are not validated
        one by one; the order of keys across each block boundary is.
        Each file holds its own tuple (a slice copies pointers only), so
        no file keeps the whole build it was cut from alive.
        """
        entries = tuple(entries)
        if not entries:
            raise TableError("a file must contain at least one entry")
        for boundary in range(pairs_per_block, len(entries), pairs_per_block):
            if entries[boundary - 1].key >= entries[boundary].key:
                raise TableError("file blocks must be sorted and disjoint")
        self.file_id = file_id
        self._entries = entries
        self._pairs_per_block = pairs_per_block
        self._bits_per_key = bits_per_key
        #: The blocks and their fence (maximum) keys; ``None`` until the
        #: first point read (see :meth:`_materialise`).
        self._blocks: list[Block] | None = None
        self._block_max_keys: list[int] | None = None
        self.min_key = entries[0].key
        self.max_key = entries[-1].key
        self.size_kb = extent.size_kb
        self.extent = extent
        #: Id of the super-file this file belongs to, if any (Section IV-C).
        self.superfile_id: int | None = None
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
    def num_entries(self) -> int:
        return len(self._entries)

    @property
    def num_blocks(self) -> int:
        return -(-len(self._entries) // self._pairs_per_block)

    @property
    def materialised(self) -> bool:
        """Whether a point read has built this file's blocks yet."""
        return self._blocks is not None

    @property
    def blocks(self) -> list[Block]:
        self._check_not_removed()
        if self._blocks is None:
            self._materialise()
        return self._blocks

    def __repr__(self) -> str:
        flag = " removed" if self.removed else ""
        return (
            f"SSTableFile(id={self.file_id}, keys=[{self.min_key},"
            f" {self.max_key}], blocks={self.num_blocks}{flag})"
        )

    def covers(self, key: int) -> bool:
        return self.min_key <= key <= self.max_key

    # ------------------------------------------------------------------
    # Removal marker (compaction-buffer semantics).
    # ------------------------------------------------------------------
    def mark_removed(self) -> None:
        """Drop data and index, keeping only the key-range marker.

        "All its indices except the minimum and maximum keys will be
        removed from the memory, and all its data will be deleted from the
        disk."  The caller is responsible for freeing the extent and
        invalidating cached blocks.  The containing sorted table is not
        told, yet its ``size_kb`` drops by this file's size at once: the
        file takes itself out of the table's live-size cell.
        """
        self.removed = True
        self._entries = ()
        self._blocks = None
        self._block_max_keys = None
        cell = self._table_live_kb
        if cell is not None:
            cell[0] -= self.size_kb
            self._table_live_kb = None

    def _check_not_removed(self) -> None:
        if self.removed:
            raise TableError(f"file {self.file_id} was removed; data is gone")

    # ------------------------------------------------------------------
    # Point lookups: the one consumer of blocks.
    # ------------------------------------------------------------------
    def _materialise(self) -> list[int]:
        """Cut the view into blocks; returns the new fence-key list.

        Every block of the file is built at once, ``index`` ascending.
        Nothing is counted, cached, charged or announced: the engines'
        fused descents call this where they find ``_block_max_keys``
        still ``None``.
        """
        entries = self._entries
        pairs_per_block = self._pairs_per_block
        bits_per_key = self._bits_per_key
        full = mask_table(pairs_per_block, bits_per_key)
        self._blocks = blocks = [
            Block.from_sorted(
                entries[start : start + pairs_per_block],
                full
                if start + pairs_per_block <= len(entries)
                else mask_table(len(entries) - start, bits_per_key),
                start // pairs_per_block,
            )
            for start in range(0, len(entries), pairs_per_block)
        ]
        self._block_max_keys = max_keys = [block.max_key for block in blocks]
        return max_keys

    def find_block(self, key: int) -> Block | None:
        """The block whose range covers ``key``, if one exists."""
        if self.removed:
            self._check_not_removed()
        max_keys = self._block_max_keys
        if max_keys is None:
            max_keys = self._materialise()
        position = bisect_left(max_keys, key)
        if position == len(max_keys):
            return None
        block = self._blocks[position]
        # bisect_left guarantees key <= block.max_key here.
        return block if block.min_key <= key else None

    # ------------------------------------------------------------------
    # Everything else reads the view.
    # ------------------------------------------------------------------
    def block_key_span(self, index: int) -> tuple[int, int]:
        """``(min_key, max_key)`` of block ``index``, without building it."""
        self._check_not_removed()
        entries = self._entries
        start = index * self._pairs_per_block
        end = min(start + self._pairs_per_block, len(entries))
        return entries[start].key, entries[end - 1].key

    def scan_slice(self, low: int, high: int) -> tuple[tuple[Entry, ...], range]:
        """A range query's share of this file: entries and block indices.

        The entries with ``low <= key <= high``, and the indices of the
        blocks whose key *span* meets the range — the blocks a scan reads
        through the cache.  The two differ at the edges: a range that
        falls between two of a block's keys selects that block and no
        entry, a range in the gap between two blocks selects neither.

        ``Entry`` tuples order by key first and a 1-tuple sorts before
        every entry of its key, so the view is bisected with one-element
        probes: no key function, no key list.
        """
        self._check_not_removed()
        entries = self._entries
        start = bisect_left(entries, (low,))
        end = bisect_left(entries, (high + 1,), start)
        if high < low or start == len(entries) or end == 0:
            return (), range(0)
        # The first block ending at or above ``low`` holds entry
        # ``start``; the last one starting at or below ``high`` holds
        # entry ``end - 1``.  In a gap, first > last: an empty range.
        pairs_per_block = self._pairs_per_block
        return entries[start:end], range(
            start // pairs_per_block, (end - 1) // pairs_per_block + 1
        )

    def entries(self) -> Iterator[Entry]:
        """All entries of the file in key order."""
        self._check_not_removed()
        return iter(self._entries)

    def entry_list(self) -> tuple[Entry, ...]:
        """All entries, as the file's own tuple (the merge's bulk read)."""
        self._check_not_removed()
        return self._entries
