"""``SortedTable`` against a brute-force model, and what one edit may touch.

The table keeps its live size in a cell shared with its members and finds
every position by bisection; the state machine below drives all of its
mutators, plus ``mark_removed`` called behind its back, and checks each
answer against a plain list walked linearly.  The counting test pins the
cost model: an edit in a long run visits the files it edits, not the run.
"""

from __future__ import annotations

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.errors import TableError
from repro.sstable.entry import Entry
from repro.sstable.sorted_table import SortedTable
from repro.sstable.sstable import SSTableFile
from repro.storage.extent import Extent

KEY_SPACE = 120


def make_file(
    file_id: int, low: int, high: int, size_kb: int = 4, cls=SSTableFile
) -> SSTableFile:
    keys = [low] if low == high else [low, high]
    entries = [Entry(k, 1) for k in keys]
    return cls(file_id, entries, Extent(file_id * 1000, size_kb), 2, 10)


def linear_pick(files: list[SSTableFile], cursor: int | None) -> SSTableFile:
    """The cursor pick as the engines wrote it before it bisected."""
    if cursor is not None:
        for file in files:
            if file.min_key > cursor:
                return file
    return files[0]


class SortedTableMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.table = SortedTable()
        self.model: list[SSTableFile] = []  # Members, in key order.
        self.departed: list[SSTableFile] = []
        self.next_id = 0

    # -- helpers -------------------------------------------------------
    def _new(self, low: int, high: int, size_kb: int) -> SSTableFile:
        self.next_id += 1
        return make_file(self.next_id, low, high, size_kb)

    def _gap_after(self, index: int) -> tuple[int, int]:
        """Free keys between member ``index`` and the next (inclusive)."""
        low = self.model[index].max_key + 1 if index >= 0 else 0
        high = (
            self.model[index + 1].min_key - 1
            if index + 1 < len(self.model)
            else KEY_SPACE
        )
        return low, high

    # -- mutators ------------------------------------------------------
    @rule(width=st.integers(0, 6), size_kb=st.integers(1, 64))
    def append(self, width, size_kb):
        low, high = self._gap_after(len(self.model) - 1)
        if low > high:
            return
        file = self._new(low, min(low + width, high), size_kb)
        self.table.append(file)
        self.model.append(file)

    @rule(data=st.data(), width=st.integers(0, 6), size_kb=st.integers(1, 64))
    def insert_sorted(self, data, width, size_kb):
        index = data.draw(st.integers(-1, len(self.model) - 1))
        low, high = self._gap_after(index)
        if low > high:
            return
        start = data.draw(st.integers(low, high))
        file = self._new(start, min(start + width, high), size_kb)
        self.table.insert_sorted(file)
        self.model.insert(index + 1, file)

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def remove(self, data):
        file = self.model.pop(data.draw(st.integers(0, len(self.model) - 1)))
        self.table.remove(file)
        self.departed.append(file)

    @precondition(lambda self: self.model)
    @rule()
    def pop_first(self):
        assert self.table.pop_first() is self.model[0]
        self.departed.append(self.model.pop(0))

    @rule(data=st.data(), pieces=st.integers(0, 3), size_kb=st.integers(1, 64))
    def replace_range(self, data, pieces, size_kb):
        start = data.draw(st.integers(0, len(self.model)))
        stop = data.draw(st.integers(start, len(self.model)))
        old = self.model[start:stop]
        # The new files split the keys the old ones (or the gap) spanned.
        low, high = self._gap_after(start - 1)
        if old:
            high = self._gap_after(stop - 1)[1]
        new = []
        for _ in range(pieces):
            if low > high:
                break
            end = data.draw(st.integers(low, high))
            new.append(self._new(low, end, size_kb))
            low = end + 2
        self.table.replace_range(old, new)
        self.model[start:stop] = new
        self.departed.extend(old)

    @rule(data=st.data())
    def mark_removed_behind_the_tables_back(self, data):
        """Members and former members alike; twice must not count twice."""
        candidates = self.model + self.departed
        if candidates:
            data.draw(st.sampled_from(candidates)).mark_removed()

    # -- errors leave the table as it was ------------------------------
    @rule()
    def stranger_is_rejected(self):
        stranger = self._new(0, KEY_SPACE, 4)
        with pytest.raises(TableError):
            self.table.remove(stranger)
        with pytest.raises(TableError):
            self.table.replace_range([stranger], [])

    @precondition(lambda self: len(self.model) >= 3)
    @rule()
    def non_contiguous_is_rejected(self):
        with pytest.raises(TableError):
            self.table.replace_range([self.model[0], self.model[2]], [])

    # -- answers -------------------------------------------------------
    @rule(low=st.integers(-3, KEY_SPACE + 3), high=st.integers(-3, KEY_SPACE + 3))
    def files_overlapping_matches_filter(self, low, high):
        got = self.table.files_overlapping(low, high)
        assert got == [
            f
            for f in self.model
            if low <= high and f.min_key <= high and low <= f.max_key
        ]
        assert got is not self.table._files  # Callers mutate the result.

    @precondition(lambda self: self.model)
    @rule(cursor=st.none() | st.integers(-3, KEY_SPACE + 3))
    def cursor_pick_matches_linear_scan(self, cursor):
        assert self.table.first_after(cursor) is linear_pick(self.model, cursor)

    @invariant()
    def size_and_order_match_the_model(self):
        assert list(self.table) == self.model
        assert self.table.size_kb == sum(
            f.size_kb for f in self.model if not f.removed
        )
        assert self.table.first is (self.model[0] if self.model else None)


TestSortedTableModel = SortedTableMachine.TestCase
TestSortedTableModel.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)


def test_empty_table_has_no_cursor_pick():
    with pytest.raises(TableError):
        SortedTable().first_after(None)


# ----------------------------------------------------------------------
# What one edit may touch.
# ----------------------------------------------------------------------


class CountingFile(SSTableFile):
    """A file that counts reads of its size and comparisons against it."""

    __slots__ = ("touches", "_size_kb")

    def __init__(self, *args, **kwargs) -> None:
        self.touches = 0
        super().__init__(*args, **kwargs)

    @property
    def size_kb(self) -> int:
        self.touches += 1
        return self._size_kb

    @size_kb.setter
    def size_kb(self, value: int) -> None:
        self._size_kb = value

    def __eq__(self, other) -> bool:
        self.touches += 1
        return self is other

    __hash__ = SSTableFile.__hash__


def test_one_edit_in_a_long_run_visits_only_the_files_it_edits():
    """5,000 files, one 10-file ``replace_range``, one ``size_kb`` read."""
    files = [
        make_file(i, 10 * i, 10 * i + 5, size_kb=8, cls=CountingFile)
        for i in range(5_000)
    ]
    table = SortedTable(files)
    for file in files:
        file.touches = 0
    old = files[3_000:3_010]
    new = [
        make_file(10_000 + i, file.min_key, file.max_key, 4, cls=CountingFile)
        for i, file in enumerate(old)
    ]

    table.replace_range(old, new)
    assert table.size_kb == 8 * 4_990 + 4 * 10

    edited = {id(file) for file in old + new}
    assert [f.file_id for f in table if id(f) not in edited and f.touches] == []
    # The neighbourhood check looked at the edit and one file either side.
    assert list(table)[2_999:3_011] == [files[2_999], *new, files[3_010]]
