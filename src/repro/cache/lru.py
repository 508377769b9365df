"""The one replacement rule every cache in the reproduction uses: exact LRU.

All three caches the paper discusses (OS buffer cache, DB buffer cache,
key-value store cache) are LRU caches; they differ only in what they are
indexed by (disk address, ``(file, block)``, or key) and in what they
keep beside the residency order.  :class:`LRUCache` owns everything they
share: the order itself, the capacity, the hit/miss counters and the
registry source that reads them, eviction, and live resizing.  A
subclass adds its key mapping, an :meth:`LRUCache._evict` hook for its
side bookkeeping and the list of counters its source reads.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Hashable

from repro.cache.stats import CacheStats
from repro.obs.events import CacheResized, EventBus


class LRUCache:
    """A bounded set of keys evicted least recently used first.

    Parameters
    ----------
    capacity:
        Maximum number of resident keys.
    name:
        Metric namespace (``cache.<name>.*``) until
        :meth:`bind_observability` names it again.
    """

    #: Counters :meth:`metrics` reads as ``cache.<name>.<counter>``, in
    #: order; :meth:`_counts` yields their values in step.
    _counter_names: tuple[str, ...] = ("hits", "misses", "evictions")

    def __init__(self, capacity: int, name: str) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        #: Resident keys, least recently used first.  The value slot is
        #: free for the subclass (the K-V cache keeps its rows there).
        self._order: OrderedDict[Hashable, object] = OrderedDict()
        self.stats = CacheStats()
        self._obs_name = name
        self._bus: EventBus | None = None

    # ------------------------------------------------------------------
    # Observability.
    # ------------------------------------------------------------------
    def bind_observability(self, bus: EventBus, name: str) -> None:
        """Name this cache ``name`` and publish its events on ``bus``.

        Called by :class:`~repro.substrate.Substrate`, which also
        registers :meth:`metrics` as a registry source; a standalone
        cache keeps its constructor name and no bus.
        """
        self._obs_name = name
        self._bus = bus

    def metrics(self) -> dict[str, int]:
        """The cache's registry source: its counters as ``cache.<name>.*``."""
        name = self._obs_name
        return {
            f"cache.{name}.{counter}": count
            for counter, count in zip(self._counter_names, self._counts())
        }

    def _counts(self) -> tuple[int, ...]:
        """The hot-path ints behind :attr:`_counter_names`, in order."""
        stats = self.stats
        return tuple(getattr(stats, counter) for counter in self._counter_names)

    # ------------------------------------------------------------------
    # Residency.
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._order)

    @property
    def usage(self) -> float:
        """Resident keys as a fraction of capacity (Fig. 8's dashed line)."""
        return len(self._order) / self._capacity

    def resize(self, capacity: int) -> int:
        """Change the capacity in place; returns how many keys were evicted.

        Shrinking evicts LRU victims immediately (counted as ordinary
        evictions) until the resident set fits; growing just raises the
        bound — the extra room fills through normal inserts, so a grow
        never disturbs the resident set.  Publishes
        :class:`~repro.obs.events.CacheResized` when bound to a bus, so
        dip diagnosis can attribute the resulting misses.
        """
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        old = self._capacity
        if capacity == old:
            return 0
        self._capacity = capacity
        evicted = self._make_room(capacity)
        bus = self._bus
        if bus is not None and bus.active:
            if bus.counting_only:
                bus.count(CacheResized)
            else:
                bus.emit(
                    CacheResized(
                        cache=self._obs_name,
                        old_capacity=old,
                        new_capacity=capacity,
                        evicted=evicted,
                    )
                )
        return evicted

    def _insert(self, key: Hashable, value: object = None) -> None:
        """Make the absent ``key`` resident as the most recently used."""
        if len(self._order) >= self._capacity:
            self._make_room(self._capacity - 1)
        self._order[key] = value
        self.stats.insertions += 1

    def _make_room(self, resident: int) -> int:
        """Evict from the LRU end until at most ``resident`` keys remain."""
        order = self._order
        evict = self._evict
        evicted = 0
        while len(order) > resident:
            key, _ = order.popitem(last=False)
            evict(key)
            evicted += 1
        self.stats.evictions += evicted
        return evicted

    def _evict(self, key: Hashable) -> None:
        """Drop what the subclass keeps about ``key`` beside the order."""
