"""The in-memory write buffer C0.

New writes land here, deduplicated by key (a re-written key replaces its
older in-memory version, so the memtable's size is its count of *unique*
keys — matching how a skiplist memtable behaves).  Beside the dict of
newest versions a sorted key list is kept, as a skiplist keeps C0
ordered: a key is inserted once, when it first enters, so a range query
bisects it and a flush reads it without sorting.  When the level-0
budget fills, the engine drains the memtable to disk.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections.abc import Iterator

from repro.sstable.entry import Entry, Kind


class Memtable:
    """Sorted in-memory buffer of the newest version per key."""

    def __init__(self, pair_size_kb: int) -> None:
        self._pair_size_kb = pair_size_kb
        self._entries: dict[int, Entry] = {}
        #: Every key of ``_entries``, ascending.
        self._keys: list[int] = []

    def put(self, key: int, seq: int) -> None:
        if key not in self._entries:
            insort(self._keys, key)
        self._entries[key] = Entry(key, seq, Kind.PUT)

    def delete(self, key: int, seq: int) -> None:
        """Record a tombstone for ``key``."""
        if key not in self._entries:
            insort(self._keys, key)
        self._entries[key] = Entry(key, seq, Kind.DELETE)

    def get(self, key: int) -> Entry | None:
        return self._entries.get(key)

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    @property
    def size_kb(self) -> int:
        """Occupied size, in KB of key-value pairs."""
        return len(self._entries) * self._pair_size_kb

    def sorted_entries(self) -> list[Entry]:
        """All entries in key order (for a flush)."""
        return list(map(self._entries.__getitem__, self._keys))

    def entries_in_range(self, low: int, high: int) -> list[Entry]:
        """Entries with ``low <= key <= high`` in key order."""
        keys = self._keys
        inside = keys[bisect_left(keys, low) : bisect_right(keys, high)]
        return list(map(self._entries.__getitem__, inside))

    def clear(self) -> None:
        self._entries.clear()
        self._keys.clear()

    def __iter__(self) -> Iterator[Entry]:
        return iter(self.sorted_entries())
