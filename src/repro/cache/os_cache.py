"""The OS buffer cache: a page cache over *physical* disk addresses.

Section I distinguishes the OS buffer cache from the DB buffer cache by one
property: "the OS buffer cache is also temporarily used to cache the data
blocks read for compactions, while the DB buffer cache is not."  Every
disk read — query or compaction — passes through it, and compaction writes
are write-allocated too.  With a bounded capacity, the stream of compaction
pages continuously evicts query pages, producing the capacity-miss churn of
Fig. 2's dashed line.

Pages are keyed by physical KB address (extent start + offset), so a block
that a compaction rewrites to a new extent is, correctly, a different page.
"""

from __future__ import annotations

from repro.cache.lru import LRUCache


class OSBufferCache(LRUCache):
    """Bounded LRU page cache keyed by physical page address."""

    _counter_names = ("hits", "misses", "evictions", "compaction_pages")

    def __init__(self, capacity_pages: int, page_size_kb: int = 4) -> None:
        if page_size_kb < 1:
            raise ValueError(f"page size must be >= 1, got {page_size_kb}")
        self._page_size_kb = page_size_kb
        #: Pages touched by compaction streams (pollution traffic), kept
        #: as a plain int on the hot path and published on flush.  The
        #: page cache is keyed by physical address, not file, so it has no
        #: file-level invalidations; compaction churn shows up in its
        #: eviction counter instead.
        self._compaction_pages = 0
        super().__init__(capacity_pages, "os")

    def _counts(self) -> tuple[int, ...]:
        stats = self.stats
        return (stats.hits, stats.misses, stats.evictions, self._compaction_pages)

    @property
    def capacity_pages(self) -> int:
        return self._capacity

    # ------------------------------------------------------------------
    # Access paths.
    # ------------------------------------------------------------------
    def read(self, address_kb: int) -> bool:
        """A query read of the page containing ``address_kb``.

        Returns ``True`` on a hit; on a miss the page is loaded and
        inserted (the caller charges the disk).
        """
        page = address_kb // self._page_size_kb
        order = self._order
        if page in order:
            order.move_to_end(page)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        self._insert(page)
        return False

    def read_for_compaction(self, address_kb: int, size_kb: int) -> None:
        """A compaction streaming read of ``size_kb`` starting at ``address_kb``.

        Every touched page enters the cache — this is the pollution path.
        Compaction accesses are deliberately *not* counted in ``stats``
        hits/misses: the hit-ratio series must reflect query traffic only,
        as in the paper's measurement.
        """
        page_size = self._page_size_kb
        first = address_kb // page_size
        last = (address_kb + max(size_kb - 1, 0)) // page_size
        self._compaction_pages += last + 1 - first
        order = self._order
        for page in range(first, last + 1):
            if page in order:
                order.move_to_end(page)
            else:
                self._insert(page)

    def write_allocate(self, address_kb: int, size_kb: int) -> None:
        """A compaction write; pages are populated as they are written."""
        self.read_for_compaction(address_kb, size_kb)
