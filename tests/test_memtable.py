"""Unit tests for :mod:`repro.lsm.memtable`."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm.memtable import Memtable
from repro.sstable.entry import Entry, Kind


class TestMemtable:
    def test_put_get(self):
        mem = Memtable(pair_size_kb=1)
        mem.put(5, seq=1)
        entry = mem.get(5)
        assert entry is not None and entry.seq == 1

    def test_overwrite_keeps_newest_and_size_constant(self):
        mem = Memtable(pair_size_kb=1)
        mem.put(5, seq=1)
        mem.put(5, seq=2)
        assert mem.get(5).seq == 2
        assert len(mem) == 1
        assert mem.size_kb == 1

    def test_delete_records_tombstone(self):
        mem = Memtable(pair_size_kb=1)
        mem.put(5, seq=1)
        mem.delete(5, seq=2)
        entry = mem.get(5)
        assert entry.kind == Kind.DELETE
        assert entry.is_tombstone

    def test_sorted_entries(self):
        mem = Memtable(pair_size_kb=1)
        for key, seq in ((9, 1), (3, 2), (7, 3)):
            mem.put(key, seq)
        assert [e.key for e in mem.sorted_entries()] == [3, 7, 9]

    def test_entries_in_range(self):
        mem = Memtable(pair_size_kb=1)
        for key in (1, 5, 9, 13):
            mem.put(key, seq=key)
        assert [e.key for e in mem.entries_in_range(5, 9)] == [5, 9]
        assert mem.entries_in_range(2, 4) == []

    def test_size_respects_pair_size(self):
        mem = Memtable(pair_size_kb=4)
        mem.put(1, 1)
        mem.put(2, 2)
        assert mem.size_kb == 8

    def test_clear(self):
        mem = Memtable(pair_size_kb=1)
        mem.put(1, 1)
        mem.clear()
        assert not mem
        assert len(mem) == 0

    def test_iteration_is_sorted(self):
        mem = Memtable(pair_size_kb=1)
        for key in (4, 2, 8):
            mem.put(key, seq=key)
        assert [e.key for e in mem] == [2, 4, 8]


@settings(max_examples=200, deadline=None)
@given(
    ops=st.lists(
        st.one_of(
            st.tuples(
                st.sampled_from([Kind.PUT, Kind.DELETE]),
                st.integers(min_value=0, max_value=40),
            ),
            st.just(("clear", 0)),
        ),
        max_size=60,
    ),
    low=st.integers(min_value=-5, max_value=45),
    high=st.integers(min_value=-5, max_value=45),
)
def test_key_index_equals_brute_force(ops, low, high):
    """After every put, delete, re-put and clear, the flush order and a
    range read equal a filter of the newest versions by brute force."""
    mem = Memtable(pair_size_kb=1)
    newest: dict[int, Entry] = {}
    for seq, (kind, key) in enumerate(ops, start=1):
        if kind == "clear":
            mem.clear()
            newest.clear()
        else:
            (mem.put if kind == Kind.PUT else mem.delete)(key, seq)
            newest[key] = Entry(key, seq, kind)
        ordered = [newest[key] for key in sorted(newest)]
        assert mem.sorted_entries() == ordered
        assert mem.entries_in_range(low, high) == [
            entry for entry in ordered if low <= entry.key <= high
        ]
