"""Replacement policies for block caches.

All three caches the paper discusses (OS buffer cache, DB buffer cache,
key-value store cache) approximate LRU, so LRU is the default policy here.
A CLOCK approximation is provided as well: it is what Linux actually uses
for the page cache, and the ablation benches can swap it in to show the
reproduction's conclusions do not hinge on exact LRU behaviour.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import OrderedDict
from collections.abc import Hashable, Iterator


class ReplacementPolicy(ABC):
    """Tracks a bounded set of keys and chooses eviction victims.

    The policy stores only keys; the owning cache holds any per-key
    bookkeeping and drives the policy through :meth:`hit` (or
    :meth:`touch`), :meth:`insert`, :meth:`remove` and :meth:`evict`.
    """

    @abstractmethod
    def touch(self, key: Hashable) -> None:
        """Record an access to a resident key."""

    @abstractmethod
    def hit(self, key: Hashable) -> bool:
        """Whether ``key`` is resident, recording an access if it is.

        ``key in policy`` and :meth:`touch` in one call: the block
        caches ask once per block read.
        """

    @abstractmethod
    def insert(self, key: Hashable) -> None:
        """Add a new resident key (must not already be present)."""

    @abstractmethod
    def remove(self, key: Hashable) -> None:
        """Drop a key without treating it as an eviction decision."""

    @abstractmethod
    def evict(self) -> Hashable:
        """Choose and remove the replacement victim."""

    @abstractmethod
    def __contains__(self, key: Hashable) -> bool: ...

    @abstractmethod
    def __len__(self) -> int: ...

    @abstractmethod
    def __iter__(self) -> Iterator[Hashable]: ...


class LRUPolicy(ReplacementPolicy):
    """Exact least-recently-used ordering over an ``OrderedDict``."""

    def __init__(self) -> None:
        self._order: OrderedDict[Hashable, None] = OrderedDict()

    def touch(self, key: Hashable) -> None:
        self._order.move_to_end(key)

    def hit(self, key: Hashable) -> bool:
        try:
            self._order.move_to_end(key)
        except KeyError:
            return False
        return True

    def insert(self, key: Hashable) -> None:
        if key in self._order:
            raise KeyError(f"key already resident: {key!r}")
        self._order[key] = None

    def remove(self, key: Hashable) -> None:
        del self._order[key]

    def evict(self) -> Hashable:
        key, _ = self._order.popitem(last=False)
        return key

    def __contains__(self, key: Hashable) -> bool:
        return key in self._order

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._order)


class ClockPolicy(ReplacementPolicy):
    """Second-chance (CLOCK) approximation of LRU.

    Each resident key has a reference bit; the clock hand sweeps the
    residence order, clearing bits until it finds an unreferenced victim.
    """

    def __init__(self) -> None:
        self._referenced: OrderedDict[Hashable, bool] = OrderedDict()

    def touch(self, key: Hashable) -> None:
        self._referenced[key] = True

    def hit(self, key: Hashable) -> bool:
        if key in self._referenced:
            self._referenced[key] = True
            return True
        return False

    def insert(self, key: Hashable) -> None:
        if key in self._referenced:
            raise KeyError(f"key already resident: {key!r}")
        self._referenced[key] = False

    def remove(self, key: Hashable) -> None:
        del self._referenced[key]

    def evict(self) -> Hashable:
        while True:
            key, referenced = self._referenced.popitem(last=False)
            if not referenced:
                return key
            # Give a second chance: move to the back with the bit cleared.
            self._referenced[key] = False

    def __contains__(self, key: Hashable) -> bool:
        return key in self._referenced

    def __len__(self) -> int:
        return len(self._referenced)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._referenced)
