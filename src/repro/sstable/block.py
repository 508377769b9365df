"""Single-page blocks (Section II-A).

"Continuous Key-Value pairs are packed in a single-page block which maps to
one single disk page.  For each single-page block, a bloom filter is built
to check whether a key is contained in this block."

A block is immutable after construction.  Lookups use binary search over
the sorted key list; the Bloom filter is consulted by the engines *before*
touching the block so that false positives cost a (possibly disk) block
read, exactly as in the paper's cost discussion (Section III).

A block's filter is one int, the OR of its keys' probe masks, beside its
geometry's process-wide :class:`~repro.bloom.hashing.MaskTable`; the int
dies with the block, only the masks are shared.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator, Sequence

from repro.bloom.hashing import MaskTable, mask_table
from repro.errors import TableError
from repro.sstable.entry import Entry


class Block:
    """An immutable sorted run of entries occupying one disk page.

    The filter int is built lazily on the first probe: most blocks
    written by a compaction are rewritten by a later one before any
    point lookup ever probes them, and the filter's bits are a pure
    function of the key set, so deferring construction changes nothing
    observable.
    """

    __slots__ = (
        "_keys",
        "_entries",
        "_filter",
        "_masks",
        "min_key",
        "max_key",
        "index",
    )

    def __init__(
        self,
        entries: Sequence[Entry],
        bits_per_key: int,
        index: int,
    ) -> None:
        if not entries:
            raise TableError("a block must contain at least one entry")
        keys = [entry.key for entry in entries]
        previous = keys[0]
        for key in keys[1:]:
            if previous >= key:
                raise TableError(
                    "block entries must be strictly sorted by key"
                )
            previous = key
        self._keys = keys
        self._entries = tuple(entries)
        self._filter: int | None = None
        self._masks = mask_table(len(keys), bits_per_key)
        self.min_key = keys[0]
        self.max_key = previous
        #: Position of this block inside its file.
        self.index = index

    @classmethod
    def from_sorted(
        cls, entries: Sequence[Entry], masks: MaskTable, index: int
    ) -> "Block":
        """Construct from entries the caller *guarantees* strictly sorted.

        A file cuts its blocks out of a builder's input (a memtable's
        sorted snapshot, a compaction merge's output), strictly sorted
        by construction, so the per-entry validation of ``__init__`` is
        skipped there, and the file looks up ``masks`` once for all its
        full blocks.  Everything else about the block is identical.
        """
        if not entries:
            raise TableError("a block must contain at least one entry")
        block = object.__new__(cls)
        keys = [entry.key for entry in entries]
        block._keys = keys
        block._entries = tuple(entries)
        block._filter = None
        block._masks = masks
        block.min_key = keys[0]
        block.max_key = keys[-1]
        block.index = index
        return block

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Entry]:
        return iter(self._entries)

    @property
    def entries(self) -> tuple[Entry, ...]:
        return self._entries

    # ------------------------------------------------------------------
    # Lookups.
    # ------------------------------------------------------------------
    def covers(self, key: int) -> bool:
        """Whether ``key`` falls inside this block's key range."""
        return self.min_key <= key <= self.max_key

    def _build_filter(self) -> int:
        """OR the keys' masks into the filter int; returns it."""
        masks = self._masks
        bits = 0
        for key in self._keys:
            bits |= masks[key]
        self._filter = bits
        return bits

    def may_contain(self, key: int) -> bool:
        """The Bloom-filter membership test (probabilistic)."""
        bits = self._filter
        if bits is None:
            bits = self._build_filter()
        mask = self._masks[key]
        return bits & mask == mask

    def get(self, key: int) -> Entry | None:
        """Exact lookup inside the block."""
        position = bisect_left(self._keys, key)
        if position < len(self._keys) and self._keys[position] == key:
            return self._entries[position]
        return None
