"""Sorted tables (Section II-A).

"The data in each of those levels are organized as one or multiple sorted
structures ... called sorted tables.  Each sorted table is a B-tree-like
directory structure."  A sorted table here is an ordered collection of
non-overlapping files with binary-search access by key and by range.

The same class backs both the underlying LSM-tree's runs and the
compaction-buffer lists; the only compaction-buffer peculiarity is that
member files may carry the ``removed`` marker (data gone, key range kept),
which lookups surface to the caller instead of hiding — Algorithms 3/4
must *stop* when they meet a removed file.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator

from repro.errors import TableError
from repro.sstable.entry import Entry
from repro.sstable.sstable import SSTableFile


class SortedTable:
    """An ordered, non-overlapping collection of files.

    Every operation costs what it touches: ``size_kb`` is O(1), a lookup
    or an edit finds its place by bisecting ``_max_keys`` (strictly
    increasing, because members never overlap), and only the members an
    edit adds or removes are visited.

    ``size_kb`` is kept in a one-slot cell shared with the members that
    count toward it.  A member joining adds its size and takes a
    reference to the cell; leaving, or being marked removed by anyone
    (:meth:`SSTableFile.mark_removed` is called on buffer files without
    the table being told), subtracts it and drops the reference.  A file
    counts toward the table it joined last; compactions move files from
    table to table and never share one.
    """

    __slots__ = ("_files", "_max_keys", "_live_kb")

    def __init__(self, files: Iterable[SSTableFile] = ()) -> None:
        self._files: list[SSTableFile] = []
        self._max_keys: list[int] = []
        self._live_kb: list[int] = [0]
        for file in files:
            self.append(file)

    # ------------------------------------------------------------------
    # Membership bookkeeping.
    # ------------------------------------------------------------------
    def _count_in(self, file: SSTableFile) -> None:
        if not file.removed:
            cell = self._live_kb
            cell[0] += file.size_kb
            file._table_live_kb = cell

    def _count_out(self, file: SSTableFile) -> None:
        cell = self._live_kb
        if file._table_live_kb is cell:
            cell[0] -= file.size_kb
            file._table_live_kb = None

    def _position_of(self, file: SSTableFile) -> int:
        """Index of the member ``file``; :class:`TableError` otherwise."""
        position = bisect_left(self._max_keys, file.max_key)
        files = self._files
        if position == len(files) or files[position] is not file:
            raise TableError(f"file {file.file_id} not in table")
        return position

    # ------------------------------------------------------------------
    # Mutation (compactions install/remove whole files).
    # ------------------------------------------------------------------
    def append(self, file: SSTableFile) -> None:
        """Add ``file`` at the high end (files arrive in key order)."""
        if self._files and file.min_key <= self._files[-1].max_key:
            raise TableError(
                f"file {file.file_id} overlaps the table tail "
                f"({file.min_key} <= {self._files[-1].max_key})"
            )
        self._files.append(file)
        self._max_keys.append(file.max_key)
        self._count_in(file)

    def remove(self, file: SSTableFile) -> None:
        """Detach ``file`` from the table (it keeps its own state)."""
        position = self._position_of(file)
        del self._files[position]
        del self._max_keys[position]
        self._count_out(file)

    def replace_range(
        self, old: list[SSTableFile], new: list[SSTableFile]
    ) -> None:
        """Atomically substitute a contiguous run of files.

        This is the install step of a compaction: the overlapping input
        files ``old`` leave the table and the freshly written ``new`` files
        take their place.
        """
        if not old:
            for file in new:
                self.insert_sorted(file)
            return
        start = self._position_of(old[0])
        if self._files[start : start + len(old)] != old:
            raise TableError("replace_range: old files are not contiguous")
        self._files[start : start + len(old)] = new
        self._max_keys[start : start + len(old)] = [f.max_key for f in new]
        for file in old:
            self._count_out(file)
        for file in new:
            self._count_in(file)
        self._check_sorted_around(start - 1, start + len(new))

    def insert_sorted(self, file: SSTableFile) -> None:
        """Insert ``file`` at its key-order position."""
        position = bisect_left(self._max_keys, file.min_key)
        self._files.insert(position, file)
        self._max_keys.insert(position, file.max_key)
        self._count_in(file)
        self._check_sorted_around(position - 1, position + 1)

    def pop_first(self) -> SSTableFile:
        """Remove and return the file with the smallest keys."""
        if not self._files:
            raise TableError("pop from an empty sorted table")
        self._max_keys.pop(0)
        file = self._files.pop(0)
        self._count_out(file)
        return file

    def _check_sorted_around(self, lo: int, hi: int) -> None:
        """Validate ordering across the just-edited slice ``[lo, hi]``.

        A local edit can only introduce overlaps between the new members
        and each other or their immediate neighbours, so checking the
        touched window (inclusive of one neighbour on each side) gives
        the same protection as a walk of the whole table without
        re-scanning thousands of untouched files per compaction.
        """
        files = self._files
        lo = max(lo, 0)
        hi = min(hi, len(files) - 1)
        for position in range(lo, hi):
            left = files[position]
            right = files[position + 1]
            if left.max_key >= right.min_key:
                raise TableError(
                    f"files {left.file_id} and {right.file_id} overlap"
                )

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._files)

    def __bool__(self) -> bool:
        return bool(self._files)

    def __iter__(self) -> Iterator[SSTableFile]:
        return iter(self._files)

    @property
    def files(self) -> list[SSTableFile]:
        return list(self._files)

    @property
    def first(self) -> SSTableFile | None:
        """The file with the smallest keys, read in place."""
        return self._files[0] if self._files else None

    @property
    def size_kb(self) -> int:
        """Live data size (removed markers contribute nothing)."""
        return self._live_kb[0]

    @property
    def min_key(self) -> int | None:
        return self._files[0].min_key if self._files else None

    @property
    def max_key(self) -> int | None:
        return self._files[-1].max_key if self._files else None

    # ------------------------------------------------------------------
    # Lookups.
    # ------------------------------------------------------------------
    def find_file(self, key: int) -> SSTableFile | None:
        """The file whose range covers ``key`` (may carry ``removed``)."""
        max_keys = self._max_keys
        position = bisect_left(max_keys, key)
        if position == len(max_keys):
            return None
        file = self._files[position]
        # bisect_left guarantees key <= file.max_key here, so covering
        # reduces to the lower bound.
        return file if file.min_key <= key else None

    def files_overlapping(self, low: int, high: int) -> list[SSTableFile]:
        """All files intersecting ``[low, high]`` in key order."""
        if high < low:
            return []
        max_keys = self._max_keys
        files = self._files
        start = bisect_left(max_keys, low)
        # Members ending at or below ``high`` overlap; the one after them
        # does too if it starts at or below ``high``.
        end = bisect_right(max_keys, high, start)
        if end < len(files) and files[end].min_key <= high:
            end += 1
        return files[start:end]

    def first_after(self, cursor: int | None) -> SSTableFile:
        """The first file starting above ``cursor``, wrapping to the head.

        The round-robin pick of a key-cursor compaction: ``None`` (no
        file compacted yet) and a cursor at or past the last file's
        start both yield the first file.
        """
        files = self._files
        if not files:
            raise TableError("cursor pick from an empty sorted table")
        if cursor is None:
            return files[0]
        # The first member ending above the cursor either starts above
        # it too, or straddles it and the next member is the answer.
        position = bisect_right(self._max_keys, cursor)
        if position < len(files) and files[position].min_key <= cursor:
            position += 1
        return files[position] if position < len(files) else files[0]

    def entries(self) -> Iterator[Entry]:
        """All live entries in key order (skips removed markers)."""
        for file in self._files:
            if not file.removed:
                yield from file.entries()
