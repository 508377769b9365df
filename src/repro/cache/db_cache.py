"""The DB buffer cache: an application-level block cache indexed by file.

Section I: "The cached data blocks in both OS buffer cache and DB buffer
cache are directly indexed to the data source on the disk."  Concretely, a
cached block is identified by ``(file_id, block_index)``.  When a
compaction deletes a file, every cached block of that file must be dropped
— the *LSM-tree compaction induced cache invalidation* the paper is about.

The cache additionally maintains a per-file count of resident blocks.
LSbM's trim process (Algorithm 2) keeps a file in the compaction buffer
only while the fraction of its blocks in this cache stays above a
threshold; the paper notes the counter updates are "light weight with
little overhead", and they are maintained here on insert/evict/invalidate.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable

from repro.cache.policy import LRUPolicy, ReplacementPolicy
from repro.cache.stats import CacheStats
from repro.obs.events import CacheInvalidated, CacheResized, EventBus
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry

#: A cached block's identity: ``(file_id, block_index)``.
BlockKey = tuple[int, int]


class DBBufferCache:
    """Bounded block cache keyed by ``(file_id, block_index)``.

    Parameters
    ----------
    capacity_blocks:
        Maximum number of resident blocks.
    policy:
        Replacement policy; exact LRU by default.
    """

    def __init__(
        self,
        capacity_blocks: int,
        policy: ReplacementPolicy | None = None,
    ) -> None:
        if capacity_blocks < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity_blocks}")
        self._capacity = capacity_blocks
        self._policy = policy if policy is not None else LRUPolicy()
        self._by_file: dict[int, set[int]] = {}
        self._cached_per_file: Counter[int] = Counter()
        self.stats = CacheStats()
        self.bind_observability(NULL_REGISTRY, None, "db")
        #: Optional hook called as ``hook(file_id, block_index)`` whenever a
        #: block leaves the cache by eviction (not invalidation).  The
        #: incremental-warming-up variant uses it to learn which hot blocks
        #: a compaction is about to displace.
        self.eviction_hook: Callable[[int, int], None] | None = None

    def bind_observability(
        self,
        registry: MetricsRegistry,
        bus: EventBus | None,
        name: str,
    ) -> None:
        """Publish hit/miss counters through ``registry`` and
        :class:`~repro.obs.events.CacheInvalidated` events on ``bus``.

        Called by :class:`~repro.substrate.Substrate`; standalone caches
        stay bound to the null registry and no bus.

        Publication is deferred: the access path bumps only the plain-int
        ``stats`` fields, and the registry pulls them into the counters on
        flush (every ``snapshot()`` flushes first), so per-access cost is
        zero and snapshots are never stale.
        """
        self._obs_name = name
        self._bus = bus
        self._m_hits = registry.counter(f"cache.{name}.hits")
        self._m_misses = registry.counter(f"cache.{name}.misses")
        self._m_evictions = registry.counter(f"cache.{name}.evictions")
        self._m_invalidations = registry.counter(f"cache.{name}.invalidations")
        # Offsets absorb whatever the counters and stats held at bind
        # time, so a rebind never double-counts.
        self._m_offsets = (
            self._m_hits.value - self.stats.hits,
            self._m_misses.value - self.stats.misses,
            self._m_evictions.value - self.stats.evictions,
            self._m_invalidations.value - self.stats.invalidations,
        )
        registry.register_flush(self._publish_metrics)

    def _publish_metrics(self) -> None:
        """Copy the hot-path ``stats`` ints into the registry counters."""
        stats = self.stats
        hits, misses, evictions, invalidations = self._m_offsets
        self._m_hits.value = hits + stats.hits
        self._m_misses.value = misses + stats.misses
        self._m_evictions.value = evictions + stats.evictions
        self._m_invalidations.value = invalidations + stats.invalidations

    # ------------------------------------------------------------------
    # Queries about cache content.
    # ------------------------------------------------------------------
    @property
    def capacity_blocks(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return len(self._policy)

    @property
    def usage(self) -> float:
        """Resident blocks as a fraction of capacity (Fig. 8's dashed line)."""
        return len(self._policy) / self._capacity

    def resize(self, capacity_blocks: int) -> int:
        """Change the cache's capacity in place; returns blocks evicted.

        Shrinking evicts policy victims immediately (counted as ordinary
        evictions, eviction hook included) until the resident set fits;
        growing just raises the bound — the extra room fills through
        normal inserts, so a grow never disturbs the resident set.
        Publishes :class:`~repro.obs.events.CacheResized` when bound to a
        bus, so dip diagnosis can attribute the resulting misses.
        """
        if capacity_blocks < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity_blocks}")
        old = self._capacity
        if capacity_blocks == old:
            return 0
        self._capacity = capacity_blocks
        evicted = 0
        while len(self._policy) > self._capacity:
            victim = self._policy.evict()
            self._forget(victim)  # type: ignore[arg-type]
            self.stats.evictions += 1
            evicted += 1
            if self.eviction_hook is not None:
                self.eviction_hook(victim[0], victim[1])  # type: ignore[index]
        bus = self._bus
        if bus is not None and bus.active:
            if bus.counting_only:
                bus.count(CacheResized)
            else:
                bus.emit(
                    CacheResized(
                        cache=self._obs_name,
                        old_capacity=old,
                        new_capacity=capacity_blocks,
                        evicted=evicted,
                    )
                )
        return evicted

    def contains(self, file_id: int, block_index: int) -> bool:
        return (file_id, block_index) in self._policy

    def cached_blocks(self, file_id: int) -> int:
        """Number of blocks of ``file_id`` currently resident.

        This is the ``cached`` counter of Algorithm 2.
        """
        return self._cached_per_file.get(file_id, 0)

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
        if self._policy.hit(key):
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        self._insert(key)
        return False

    def access_many(self, keys: list[BlockKey]) -> int:
        """Read a batch of blocks through the cache; returns the hit count.

        Identical to calling :meth:`access` per key in order — same
        eviction sequence, same stats — with the per-call dispatch
        hoisted.  A range query calls it once per sorted table it reads
        (``LSMEngine._scan_table_files``).
        """
        hit = self._policy.hit
        insert = self._insert
        stats = self.stats
        hits = 0
        for key in keys:
            if hit(key):
                hits += 1
            else:
                stats.misses += 1
                insert(key)
        stats.hits += hits
        return hits

    def insert(self, file_id: int, block_index: int) -> None:
        """Insert a block without counting an access (warm-up path)."""
        key: BlockKey = (file_id, block_index)
        if not self._policy.hit(key):
            self._insert(key)

    def _insert(self, key: BlockKey) -> None:
        while len(self._policy) >= self._capacity:
            victim = self._policy.evict()
            self._forget(victim)  # type: ignore[arg-type]
            self.stats.evictions += 1
            if self.eviction_hook is not None:
                self.eviction_hook(victim[0], victim[1])  # type: ignore[index]
        self._policy.insert(key)
        file_id, block_index = key
        self._by_file.setdefault(file_id, set()).add(block_index)
        self._cached_per_file[file_id] += 1
        self.stats.insertions += 1

    def _forget(self, key: BlockKey) -> None:
        file_id, block_index = key
        blocks = self._by_file.get(file_id)
        if blocks is not None:
            blocks.discard(block_index)
            if not blocks:
                del self._by_file[file_id]
        remaining = self._cached_per_file[file_id] - 1
        if remaining > 0:
            self._cached_per_file[file_id] = remaining
        else:
            del self._cached_per_file[file_id]

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
        for block_index in blocks:
            self._policy.remove((file_id, block_index))
        dropped = len(blocks)
        del self._cached_per_file[file_id]
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

    def clear(self) -> None:
        """Drop everything (used between experiment phases)."""
        for key in list(self._policy):
            self._policy.remove(key)
        self._by_file.clear()
        self._cached_per_file.clear()
