"""The DB buffer cache: an application-level block cache indexed by file.

Section I: "The cached data blocks in both OS buffer cache and DB buffer
cache are directly indexed to the data source on the disk."  Concretely, a
cached block is identified by ``(file_id, block_index)``.  When a
compaction deletes a file, every cached block of that file must be dropped
— the *LSM-tree compaction induced cache invalidation* the paper is about.

The cache additionally indexes its resident blocks by file; the size of a
file's set is the per-file count of resident blocks.  LSbM's trim process
(Algorithm 2) keeps a file in the compaction buffer only while the
fraction of its blocks in this cache stays above a threshold; the paper
notes the counter updates are "light weight with little overhead", and
they are made here on insert/evict/invalidate.
"""

from __future__ import annotations

from repro.cache.lru import LRUCache
from repro.obs.events import CacheInvalidated

#: A cached block's identity: ``(file_id, block_index)``.
BlockKey = tuple[int, int]


class DBBufferCache(LRUCache):
    """Bounded LRU block cache keyed by ``(file_id, block_index)``.

    Parameters
    ----------
    capacity_blocks:
        Maximum number of resident blocks.
    """

    _counter_names = ("hits", "misses", "evictions", "invalidations")

    def __init__(self, capacity_blocks: int) -> None:
        self._by_file: dict[int, set[int]] = {}
        super().__init__(capacity_blocks, "db")

    # ------------------------------------------------------------------
    # Queries about cache content.
    # ------------------------------------------------------------------
    @property
    def capacity_blocks(self) -> int:
        return self._capacity

    def contains(self, file_id: int, block_index: int) -> bool:
        return (file_id, block_index) in self._order

    def cached_blocks(self, file_id: int) -> int:
        """Number of blocks of ``file_id`` currently resident.

        This is the ``cached`` counter of Algorithm 2.
        """
        return len(self._by_file.get(file_id, ()))

    def resident_blocks(self, file_id: int) -> frozenset[int]:
        """The resident block indices of one file (read-only view)."""
        return frozenset(self._by_file.get(file_id, ()))

    def resident_file_ids(self) -> list[int]:
        """Every file with at least one cached block.

        The coherence checker sweeps this against the engine's live-file
        set: a file id here that no longer exists on disk is a stale
        cache entry a compaction failed to invalidate.
        """
        return list(self._by_file)

    # ------------------------------------------------------------------
    # The access path.
    # ------------------------------------------------------------------
    def access(self, file_id: int, block_index: int) -> bool:
        """Read one block through the cache.

        Returns ``True`` on a hit.  On a miss the block is loaded (the
        caller charges the disk read) and inserted, evicting LRU victims
        as needed.
        """
        key: BlockKey = (file_id, block_index)
        try:
            self._order.move_to_end(key)
        except KeyError:
            self.stats.misses += 1
            self._insert(key)
            return False
        self.stats.hits += 1
        return True

    def access_many(self, keys: list[BlockKey]) -> int:
        """Read a batch of blocks through the cache; returns the hit count.

        Identical to calling :meth:`access` per key in order — same
        eviction sequence, same stats — with the per-call dispatch
        hoisted.  A range query calls it once per sorted table it reads
        (``LSMEngine._scan_table_files``).
        """
        touch = self._order.move_to_end
        insert = self._insert
        stats = self.stats
        hits = 0
        for key in keys:
            try:
                touch(key)
            except KeyError:
                stats.misses += 1
                insert(key)
            else:
                hits += 1
        stats.hits += hits
        return hits

    def insert(self, file_id: int, block_index: int) -> None:
        """Insert a block without counting an access (warm-up path)."""
        key: BlockKey = (file_id, block_index)
        # Warm-up inserts mostly miss: a membership test is cheaper than
        # the raised KeyError ``access`` pays on a miss.
        if key in self._order:
            self._order.move_to_end(key)
        else:
            self._insert(key)

    def _insert(self, key: BlockKey) -> None:
        super()._insert(key)
        file_id, block_index = key
        self._by_file.setdefault(file_id, set()).add(block_index)

    def _evict(self, key: BlockKey) -> None:
        file_id, block_index = key
        blocks = self._by_file[file_id]
        blocks.remove(block_index)
        if not blocks:
            del self._by_file[file_id]

    # ------------------------------------------------------------------
    # Invalidation.
    # ------------------------------------------------------------------
    def invalidate_file(self, file_id: int) -> int:
        """Drop every cached block of ``file_id``; returns how many.

        This is the compaction-induced invalidation: the file's disk
        blocks were deleted or rewritten elsewhere, so cached copies are
        stale by address even when their contents are unchanged.
        """
        blocks = self._by_file.pop(file_id, None)
        if not blocks:
            return 0
        order = self._order
        for block_index in blocks:
            del order[(file_id, block_index)]
        dropped = len(blocks)
        self.stats.invalidations += dropped
        bus = self._bus
        if bus is not None:
            if bus.counting_only:
                bus.count(CacheInvalidated)
            else:
                bus.emit(
                    CacheInvalidated(
                        cache=self._obs_name, file_id=file_id, blocks=dropped
                    )
                )
        return dropped
