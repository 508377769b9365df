"""The metrics registry: one snapshot read from every layer's own stats.

Each layer keeps its counters where its hot paths already write them —
``EngineStats``, ``DiskStats`` and the disk's per-cause dicts,
``CacheStats``, the controller's ints — and registers one *source* here:
a method returning ``{name: value}`` from those stats.  The registry
holds no ledger of its own; :meth:`MetricsRegistry.snapshot` reads every
source when asked, so a snapshot is never stale and the hot paths pay
nothing:

>>> registry = MetricsRegistry()
>>> stats = {"flushes": 0}
>>> registry.register(lambda: {"engine.flushes": stats["flushes"]})
>>> stats["flushes"] += 1
>>> registry.snapshot()["engine.flushes"]
1.0

This module also holds :class:`Reservoir`, the one uniform sampler the
drivers' latency percentiles use.
"""

from __future__ import annotations

import random
from collections.abc import Callable

from repro.codec import LOAD_ERRORS, load_error


class Reservoir:
    """Uniform fixed-size sample of a value stream (Vitter's Algorithm R).

    The first ``capacity`` observations fill the reservoir, after which
    observation ``n`` replaces a random slot with probability
    ``capacity / n`` — every observation ends up retained with equal
    probability, so percentiles over the reservoir estimate the stream's
    percentiles without holding the stream.  This is the single sampling
    implementation; the driver's latency reservoir
    (``repro.sim.metrics.LatencyReservoir``) is an alias.

    ``len()`` reports the number of values *observed* (the stream length),
    not the number retained; iteration yields the retained sample.  The
    RNG is privately seeded, so a reservoir's retained sample is a
    deterministic function of the stream.
    """

    __slots__ = ("capacity", "count", "_rng", "_samples")

    def __init__(self, capacity: int = 8192, seed: int = 0) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._rng = random.Random(seed)
        self._samples: list[float] = []
        self.count = 0

    def append(self, value: float) -> None:
        """Observe one value (list-compatible name for the drivers)."""
        self.count += 1
        if len(self._samples) < self.capacity:
            self._samples.append(value)
            return
        slot = self._rng.randrange(self.count)
        if slot < self.capacity:
            self._samples[slot] = value

    add = append

    def extend(self, values) -> None:
        """Observe each value of ``values`` in order.

        Exactly equivalent to calling :meth:`append` per value — same
        retained sample, same RNG consumption — but with the per-call
        attribute lookups hoisted out of the loop, so batched recorders
        (the read kernel flushes one tick's latencies at once) pay the
        sampling cost once per batch instead of once per value.
        """
        samples = self._samples
        capacity = self.capacity
        count = self.count
        randrange = self._rng.randrange
        for value in values:
            count += 1
            if len(samples) < capacity:
                samples.append(value)
            else:
                slot = randrange(count)
                if slot < capacity:
                    samples[slot] = value
        self.count = count

    @property
    def samples(self) -> list[float]:
        """A copy of the retained sample (at most ``capacity`` values)."""
        return list(self._samples)

    def __len__(self) -> int:
        return self.count

    def __bool__(self) -> bool:
        return self.count > 0

    def __iter__(self):
        return iter(self._samples)

    def percentile(self, percentile: float) -> float:
        """Estimated stream percentile (e.g. 50, 99) from the sample."""
        if not 0.0 <= percentile <= 100.0:
            raise ValueError(f"percentile must be in [0, 100]: {percentile}")
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        rank = min(
            len(ordered) - 1, max(0, round(percentile / 100 * (len(ordered) - 1)))
        )
        return ordered[rank]

    def __eq__(self, other: object) -> bool:
        """Equal iff the retained sample and stream length agree.

        RNG state is deliberately excluded: a reservoir restored by
        :meth:`from_dict` compares equal to its source.
        """
        if not isinstance(other, Reservoir):
            return NotImplemented
        return (
            self.capacity == other.capacity
            and self.count == other.count
            and self._samples == other._samples
        )

    def to_dict(self) -> dict[str, object]:
        """JSON-friendly state: capacity, stream length, retained sample."""
        return {
            "capacity": self.capacity,
            "count": self.count,
            "samples": self.samples,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Reservoir":
        """Rebuild a reservoir from :meth:`to_dict` output.

        The retained sample and stream length are restored exactly (so
        percentiles and the round-trip are lossless); the replacement RNG
        restarts from its seed, which only matters if the restored
        reservoir keeps observing — transport happens on finished runs.
        """
        try:
            reservoir = cls(capacity=int(payload["capacity"]))
            reservoir._samples = [float(value) for value in payload["samples"]]
            reservoir.count = int(payload["count"])
        except LOAD_ERRORS as error:
            raise load_error("Reservoir", payload, error) from error
        return reservoir


class MetricsRegistry:
    """The ordered sources one engine stack's snapshot is read from.

    The substrate registers its disk and caches, the engine and an
    active controller register themselves, and the K-V engine registers
    its row cache.
    """

    def __init__(self) -> None:
        self._sources: list[Callable[[], dict[str, float]]] = []

    def register(self, source: Callable[[], dict[str, float]]) -> None:
        """Add ``source``, a method returning ``{name: value}`` from one
        layer's own stats; snapshots read the sources in this order."""
        self._sources.append(source)

    def snapshot(self) -> dict[str, float]:
        """Every source's current values as floats, keyed by name.

        Raises ``ValueError`` when two sources name the same metric: each
        number has exactly one owner.
        """
        out: dict[str, float] = {}
        for source in self._sources:
            for name, value in source().items():
                if name in out:
                    raise ValueError(f"metric {name!r} has two sources")
                out[name] = 0.0 + value
        return out
