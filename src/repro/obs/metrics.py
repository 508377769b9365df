"""Typed metric instruments and the registry every layer publishes into.

Prior to the observability refactor each subsystem grew its own ad-hoc
counter bundle (``EngineStats``, ``CacheStats``, ``DiskStats``) and the
driver had to know where each one lived.  The registry keeps those typed
dataclasses — they remain the cheapest way to difference snapshots — but
gives every layer one place to *also* publish named instruments, so a
whole engine stack can be inspected (or exported) uniformly:

>>> registry = MetricsRegistry()
>>> flushes = registry.counter("engine.flushes")
>>> flushes.inc()
>>> registry.snapshot()["engine.flushes"]
1.0

Instruments come in three types, mirroring the usual registries
(Prometheus, OpenTelemetry):

* :class:`Counter` — monotonically increasing float;
* :class:`Gauge` — a settable point-in-time value;
* :class:`Histogram` — count/sum/min/max plus reservoir-sampled
  percentiles of observations.

A disabled registry (``MetricsRegistry(enabled=False)``, or the shared
:data:`NULL_REGISTRY`) hands out shared no-op instruments and records
nothing, so instrumented hot paths cost one dynamic dispatch and no
allocation when observability is off.
"""

from __future__ import annotations

import random

from repro.codec import LOAD_ERRORS, load_error


class Reservoir:
    """Uniform fixed-size sample of a value stream (Vitter's Algorithm R).

    The first ``capacity`` observations fill the reservoir, after which
    observation ``n`` replaces a random slot with probability
    ``capacity / n`` — every observation ends up retained with equal
    probability, so percentiles over the reservoir estimate the stream's
    percentiles without holding the stream.  This is the single sampling
    implementation shared by :class:`Histogram` and the driver's latency
    reservoir (``repro.sim.metrics.LatencyReservoir`` is an alias).

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


class Counter:
    """A monotonically increasing metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease ({amount=})")
        self.value += amount


class Gauge:
    """A point-in-time value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


#: Retained sample size of one histogram — smaller than the driver's
#: latency reservoir (a registry may hold many histograms).
_HISTOGRAM_RESERVOIR_CAPACITY = 1024


class Histogram:
    """Aggregate statistics of a stream of observations.

    Tracks count/sum/min/max exactly and holds a bounded
    :class:`Reservoir` for percentile estimates (p50/p95/p99 in
    snapshots), so a histogram's memory stays constant regardless of
    stream length.
    """

    __slots__ = ("name", "count", "total", "min", "max", "reservoir")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.reservoir = Reservoir(_HISTOGRAM_RESERVOIR_CAPACITY)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.reservoir.append(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, percentile: float) -> float:
        """Estimated stream percentile (e.g. 50, 99) from the reservoir."""
        return self.reservoir.percentile(percentile)


class _NullCounter(Counter):
    """Shared do-nothing counter handed out by a disabled registry."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


_NULL_COUNTER = _NullCounter("null")
_NULL_GAUGE = _NullGauge("null")
_NULL_HISTOGRAM = _NullHistogram("null")


class MetricsRegistry:
    """Name-keyed home of every instrument one engine stack publishes.

    Instruments are created on first request and shared on repeat requests
    (so two layers asking for the same name increment the same counter —
    asking for an existing name with a *different* type is an error).
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}
        self._flushers: list = []

    def register_flush(self, callback) -> None:
        """Register a deferred-publication source.

        Hot paths that cannot afford per-operation ``inc`` calls keep
        their counts in plain ints and register a callback here that
        copies them into their instruments.  Callbacks run on
        :meth:`flush`, which :meth:`snapshot` always performs first — so
        a snapshot is never stale, while the hot path pays nothing.
        Disabled registries ignore registrations (zero-cost path).
        """
        if self.enabled:
            self._flushers.append(callback)

    def flush(self) -> None:
        """Run every deferred-publication callback."""
        for callback in self._flushers:
            callback()

    def _get(self, name: str, cls, null_instance):
        if not self.enabled:
            return null_instance
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = cls(name)
            self._instruments[name] = instrument
        elif type(instrument) is not cls:
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}, not {cls.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter, _NULL_COUNTER)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge, _NULL_GAUGE)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram, _NULL_HISTOGRAM)

    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def names(self) -> list[str]:
        return sorted(self._instruments)

    def snapshot(self) -> dict[str, float | dict[str, float]]:
        """Every instrument's current value, keyed by name.

        Counters and gauges flatten to a float; histograms become a
        ``{count, sum, min, max, mean, p50, p95, p99}`` dict (empty
        histograms report zeroed bounds so the snapshot stays
        JSON-friendly).  Deferred sources are flushed first, so the
        snapshot reflects every hot-path count up to this instant.
        """
        self.flush()
        out: dict[str, float | dict[str, float]] = {}
        for name, instrument in self._instruments.items():
            if isinstance(instrument, Histogram):
                empty = instrument.count == 0
                out[name] = {
                    "count": float(instrument.count),
                    "sum": instrument.total,
                    "min": 0.0 if empty else instrument.min,
                    "max": 0.0 if empty else instrument.max,
                    "mean": instrument.mean,
                    "p50": instrument.percentile(50),
                    "p95": instrument.percentile(95),
                    "p99": instrument.percentile(99),
                }
            else:
                out[name] = instrument.value
        return out


#: Shared disabled registry: layers constructed without a substrate bind to
#: this, making their instrumentation free until somebody cares.
NULL_REGISTRY = MetricsRegistry(enabled=False)
