"""Single-page blocks (Section II-A).

"Continuous Key-Value pairs are packed in a single-page block which maps to
one single disk page.  For each single-page block, a bloom filter is built
to check whether a key is contained in this block."

A block is immutable after construction.  Lookups use binary search over
the sorted key array; the Bloom filter is consulted by the engines *before*
touching the block so that false positives cost a (possibly disk) block
read, exactly as in the paper's cost discussion (Section III).
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator, Sequence
from functools import lru_cache

from repro.bloom import BloomFilter
from repro.bloom.hashing import probe_mask
from repro.errors import TableError
from repro.sstable.entry import Entry


@lru_cache(maxsize=262144)
def _shared_filter(keys: tuple[int, ...], bits_per_key: int) -> BloomFilter:
    """The Bloom filter for one block's key set, shared across rebuilds.

    A filter is a pure function of ``(keys, bits_per_key)``, and
    compactions rewrite blocks with identical key sets constantly, so
    identical blocks share one immutable filter instance.  Nothing
    mutates a block's filter after construction.
    """
    return BloomFilter.build(list(keys), bits_per_key)


class Block:
    """An immutable sorted run of entries occupying one disk page.

    The Bloom filter is built lazily on the first probe: most blocks
    written by a compaction are rewritten by a later one before any
    point lookup ever probes them, and the filter's bits are a pure
    function of the key set, so deferring construction changes nothing
    observable.
    """

    __slots__ = (
        "_keys",
        "_entries",
        "_bloom",
        "_bits_per_key",
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
        self._bloom: BloomFilter | None = None
        self._bits_per_key = bits_per_key
        self.min_key = keys[0]
        self.max_key = previous
        #: Position of this block inside its file.
        self.index = index

    @classmethod
    def from_sorted(
        cls, entries: Sequence[Entry], bits_per_key: int, index: int
    ) -> "Block":
        """Construct from entries the caller *guarantees* strictly sorted.

        A file cuts its blocks out of a builder's input (a memtable's
        sorted snapshot, a compaction merge's output), strictly sorted
        by construction, so the per-entry validation of ``__init__`` is
        skipped there.  Everything else about the block is identical.
        """
        if not entries:
            raise TableError("a block must contain at least one entry")
        block = object.__new__(cls)
        keys = [entry.key for entry in entries]
        block._keys = keys
        block._entries = tuple(entries)
        block._bloom = None
        block._bits_per_key = bits_per_key
        block.min_key = keys[0]
        block.max_key = keys[-1]
        block.index = index
        return block

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    @property
    def bloom(self) -> BloomFilter:
        bloom = self._bloom
        if bloom is None:
            bloom = self._bloom = _shared_filter(
                tuple(self._keys), self._bits_per_key
            )
        return bloom

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

    def may_contain(self, key: int) -> bool:
        """The Bloom-filter membership test (probabilistic)."""
        # Inlines BloomFilter.may_contain — this is the single hottest
        # probe on the point-read path, so the mask test happens here
        # without a second method dispatch.
        bloom = self._bloom
        if bloom is None:
            bloom = self._bloom = _shared_filter(
                tuple(self._keys), self._bits_per_key
            )
        mask = probe_mask(key, bloom._num_bits, bloom._num_hashes)
        return bloom._bits & mask == mask

    def get(self, key: int) -> Entry | None:
        """Exact lookup inside the block."""
        position = bisect_left(self._keys, key)
        if position < len(self._keys) and self._keys[position] == key:
            return self._entries[position]
        return None
