"""Key-chooser distributions, following YCSB's generator semantics.

The paper drives its evaluation with YCSB (Section VI-B); the workload it
actually uses — RangeHot — draws its hot range itself, and the YCSB
choosers its core workloads A-F need (uniform, zipfian, scrambled
zipfian, latest) are provided so the example applications can run them
against any engine.

All choosers draw from a caller-supplied :class:`random.Random` so that a
single seeded generator makes a whole experiment reproducible.
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod

from repro.bloom.hashing import splitmix64
from repro.errors import WorkloadError


class KeyChooser(ABC):
    """Draws keys from some distribution over ``[0, num_keys)``."""

    @abstractmethod
    def next_key(self, rng: random.Random) -> int:
        """Draw one key."""


class UniformChooser(KeyChooser):
    """Uniform over ``[low, high)``."""

    def __init__(self, low: int, high: int) -> None:
        if high <= low:
            raise WorkloadError(f"empty key range [{low}, {high})")
        self.low = low
        self.high = high

    def next_key(self, rng: random.Random) -> int:
        return rng.randrange(self.low, self.high)


class ZipfianChooser(KeyChooser):
    """Zipfian over ``[0, num_keys)`` (Gray et al.'s rejection-free method).

    This is YCSB's ``ZipfianGenerator``: item ranks are zipf-distributed
    with exponent ``theta`` (0.99 by default), so rank 0 is the most
    popular key.
    """

    def __init__(self, num_keys: int, theta: float = 0.99) -> None:
        if num_keys < 1:
            raise WorkloadError("zipfian needs at least one key")
        if not 0.0 < theta < 1.0:
            raise WorkloadError(f"theta must be in (0, 1), got {theta}")
        self.num_keys = num_keys
        self.theta = theta
        self._zetan = self._zeta(num_keys, theta)
        self._zeta2 = self._zeta(2, theta)
        self._alpha = 1.0 / (1.0 - theta)
        self._eta = (1.0 - (2.0 / num_keys) ** (1.0 - theta)) / (
            1.0 - self._zeta2 / self._zetan
        )

    @staticmethod
    def _zeta(n: int, theta: float) -> float:
        return sum(1.0 / (i ** theta) for i in range(1, n + 1))

    def next_key(self, rng: random.Random) -> int:
        u = rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** self.theta:
            return 1
        return int(
            self.num_keys * (self._eta * u - self._eta + 1.0) ** self._alpha
        )


class ScrambledZipfianChooser(KeyChooser):
    """Zipfian popularity spread over the key space by hashing.

    YCSB's default request distribution: hot keys are scattered instead of
    clustered at the low end, which is the realistic shape for hashed row
    keys.
    """

    def __init__(self, num_keys: int, theta: float = 0.99) -> None:
        self.num_keys = num_keys
        self._zipfian = ZipfianChooser(num_keys, theta)

    def next_key(self, rng: random.Random) -> int:
        rank = self._zipfian.next_key(rng)
        return splitmix64(rank) % self.num_keys


class LatestChooser(KeyChooser):
    """YCSB's "latest" distribution: recency-skewed toward new inserts.

    Popularity is zipfian over recency rank; the caller must keep
    :attr:`max_key` current as inserts happen.
    """

    def __init__(self, initial_max_key: int, theta: float = 0.99) -> None:
        if initial_max_key < 1:
            raise WorkloadError("latest needs at least one inserted key")
        self.max_key = initial_max_key
        self._zipfian = ZipfianChooser(initial_max_key, theta)

    def advance(self, new_max_key: int) -> None:
        self.max_key = max(self.max_key, new_max_key)

    def next_key(self, rng: random.Random) -> int:
        rank = self._zipfian.next_key(rng) % self.max_key
        return self.max_key - 1 - rank


class ExponentialSizeChooser:
    """Scan-length chooser: 1 + Exp(mean), capped (YCSB scan lengths)."""

    def __init__(self, mean: float, cap: int) -> None:
        if mean <= 0 or cap < 1:
            raise WorkloadError("invalid scan-length parameters")
        self.mean = mean
        self.cap = cap

    def next_length(self, rng: random.Random) -> int:
        return min(self.cap, 1 + int(-self.mean * math.log(1.0 - rng.random())))
