"""The one replacement rule every cache in the reproduction uses: exact LRU.

All three caches the paper discusses (OS buffer cache, DB buffer cache,
key-value store cache) are LRU caches; they differ only in what they are
indexed by (disk address, ``(file, block)``, or key) and in what they
keep beside the residency order.  :class:`LRUCache` owns everything they
share: the order itself, the capacity, the hit/miss counters and their
registry publication, eviction, and live resizing.  A subclass adds its
key mapping, an :meth:`LRUCache._evict` hook for its side bookkeeping and
the list of counters it publishes.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Hashable

from repro.cache.stats import CacheStats
from repro.obs.events import CacheResized, EventBus
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry


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

    #: Registry counters published as ``cache.<name>.<counter>``, in
    #: registration order; :meth:`_counts` yields their values in step.
    _counter_names: tuple[str, ...] = ("hits", "misses", "evictions")

    def __init__(self, capacity: int, name: str) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        #: Resident keys, least recently used first.  The value slot is
        #: free for the subclass (the K-V cache keeps its rows there).
        self._order: OrderedDict[Hashable, object] = OrderedDict()
        self.stats = CacheStats()
        self.bind_observability(NULL_REGISTRY, None, name)

    # ------------------------------------------------------------------
    # Observability.
    # ------------------------------------------------------------------
    def bind_observability(
        self,
        registry: MetricsRegistry,
        bus: EventBus | None,
        name: str,
    ) -> None:
        """Publish this cache's counters through ``registry`` and its
        events on ``bus``.

        Called by :class:`~repro.substrate.Substrate`; standalone caches
        stay bound to the null registry and no bus.

        Publication is deferred: the access paths bump only plain ints,
        and the registry pulls them into the counters on flush (every
        ``snapshot()`` flushes first), so per-access cost is zero and
        snapshots are never stale.
        """
        self._obs_name = name
        self._bus = bus
        self._m_counters = tuple(
            registry.counter(f"cache.{name}.{counter}")
            for counter in self._counter_names
        )
        # Offsets absorb whatever the counters and the ints held at bind
        # time, so a rebind never double-counts.
        self._m_offsets = tuple(
            metric.value - count
            for metric, count in zip(self._m_counters, self._counts())
        )
        registry.register_flush(self._publish_metrics)

    def _counts(self) -> tuple[int, ...]:
        """The hot-path ints behind :attr:`_counter_names`, in order."""
        stats = self.stats
        return tuple(getattr(stats, counter) for counter in self._counter_names)

    def _publish_metrics(self) -> None:
        """Copy the hot-path ints into the registry counters."""
        for metric, offset, count in zip(
            self._m_counters, self._m_offsets, self._counts()
        ):
            metric.value = offset + count

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
