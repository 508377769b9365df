"""Time-series metric collection for experiment runs.

Every figure in the paper's evaluation is either a per-second time series
(hit ratio, throughput, database size) or an average of one over the run.
:class:`TimeSeries` stores one sampled quantity; :class:`RunResult` bundles
the standard set every driver collects, with the averaging helpers the
summary figures (9, 11, 13) need.  Per-read latencies are kept in a
:class:`LatencyReservoir` — a paper-length run completes tens of millions
of reads, far too many to hold as individual floats.

:class:`RunRecorder` is the one writer of that standard set: the
closed-loop, YCSB and serve drivers each own one and call its
``begin``/``sample``/``finish``, so a series means the same thing
whichever driver wrote it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.codec import LOAD_ERRORS, Wire, load_error
from repro.obs.events import EventTally
from repro.obs.metrics import Reservoir

#: Hit-ratio points are computed over windows of this many ticks so each
#: point aggregates enough reads to be a meaningful ratio (a per-tick
#: ratio over a handful of reads is dominated by sampling noise and,
#: averaged, biased low: miss ticks complete few reads).
HIT_RATIO_WINDOW_S = 20

#: The driver's per-read latency sample is the one shared reservoir
#: implementation (Vitter's Algorithm R) from :mod:`repro.obs.metrics`.
LatencyReservoir = Reservoir


class TimeSeries:
    """A uniformly sampled (time, value) series."""

    __slots__ = ("name", "times", "values")

    def __init__(self, name: str) -> None:
        self.name = name
        self.times: list[int] = []
        self.values: list[float] = []

    def add(self, time: int, value: float) -> None:
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TimeSeries):
            return NotImplemented
        return (
            self.name == other.name
            and self.times == other.times
            and self.values == other.values
        )

    def to_dict(self) -> dict[str, object]:
        """JSON-friendly form: name plus parallel time/value lists."""
        return {
            "name": self.name,
            "times": list(self.times),
            "values": list(self.values),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TimeSeries":
        try:
            series = cls(payload["name"])
            series.times = [int(time) for time in payload["times"]]
            series.values = [float(value) for value in payload["values"]]
        except LOAD_ERRORS as error:
            raise load_error("TimeSeries", payload, error) from error
        return series

    def mean(self, skip: int = 0) -> float:
        """Average of the samples after skipping ``skip`` warm-up samples."""
        window = self.values[skip:]
        if not window:
            return 0.0
        return sum(window) / len(window)

    def minimum(self, skip: int = 0) -> float:
        window = self.values[skip:]
        return min(window) if window else 0.0

    def maximum(self, skip: int = 0) -> float:
        window = self.values[skip:]
        return max(window) if window else 0.0

    def stddev(self, skip: int = 0) -> float:
        window = self.values[skip:]
        if len(window) < 2:
            return 0.0
        mean = sum(window) / len(window)
        return (sum((v - mean) ** 2 for v in window) / (len(window) - 1)) ** 0.5

    def bucketed(self, buckets: int) -> list[tuple[int, float]]:
        """Downsample into ``buckets`` (time, mean) points for printing."""
        if not self.values or buckets < 1:
            return []
        size = max(1, len(self.values) // buckets)
        points: list[tuple[int, float]] = []
        for start in range(0, len(self.values), size):
            chunk = self.values[start : start + size]
            points.append((self.times[start], sum(chunk) / len(chunk)))
        return points

    def dips_below(self, threshold: float, skip: int = 0) -> int:
        """Count downward crossings of ``threshold`` (periodicity probe).

        Fig. 8's oscillation shows up as repeated crossings; a steady
        series crosses at most once.
        """
        crossings = 0
        above = None
        for value in self.values[skip:]:
            is_above = value >= threshold
            if above is True and not is_above:
                crossings += 1
            above = is_above
        return crossings


@dataclass
class RunResult(Wire):
    """Everything one driver run measured.

    ``to_dict()`` (from :class:`~repro.codec.Wire`) is the *complete*
    run state, unlike :meth:`to_json_dict` (a human-oriented summary):
    every time series, the latency reservoir's retained sample, event
    counts, per-cause bandwidth totals and the metrics snapshot
    round-trip exactly through ``from_dict()`` — it is how sweep workers
    ship results across the process boundary.
    """

    #: Archived payloads still carry the per-cause KB/s series that no
    #: reader used; they load, and the key is ignored.
    _wire_extra = ("bandwidth_by_cause",)
    #: The per-second series every saved payload nests under "series".
    _wire_groups = {
        "series": (
            "hit_ratio",
            "throughput_qps",
            "db_size_mb",
            "cache_usage",
            "disk_utilization",
            "buffer_size_mb",
            "stall",
        )
    }

    engine: str
    config_note: str = ""
    hit_ratio: TimeSeries = field(default_factory=lambda: TimeSeries("hit_ratio"))
    throughput_qps: TimeSeries = field(
        default_factory=lambda: TimeSeries("throughput_qps")
    )
    db_size_mb: TimeSeries = field(default_factory=lambda: TimeSeries("db_size_mb"))
    cache_usage: TimeSeries = field(
        default_factory=lambda: TimeSeries("cache_usage")
    )
    disk_utilization: TimeSeries = field(
        default_factory=lambda: TimeSeries("disk_utilization")
    )
    buffer_size_mb: TimeSeries = field(
        default_factory=lambda: TimeSeries("buffer_size_mb")
    )
    #: Write-stall seconds accrued per sample window (see
    #: ``EngineStats.stall_seconds`` — this is its windowed derivative).
    stall: TimeSeries = field(default_factory=lambda: TimeSeries("stall"))
    reads_completed: int = 0
    writes_applied: int = 0
    duration_s: int = 0
    #: Total write-stall seconds over this run's window.
    stall_seconds: float = 0.0
    #: Modeled per-operation read latencies in real seconds (one
    #: observation per simulated read, already divided back by
    #: ``ops_scale``), reservoir-sampled to a bounded memory footprint.
    read_latencies_s: LatencyReservoir = field(default_factory=LatencyReservoir)
    #: Engine events observed during the run, counted by type name.
    event_counts: dict[str, int] = field(default_factory=dict)
    #: Per-cause disk traffic totals over this run's window ("flush",
    #: "compaction:L1", "wal", "query", ...), as
    #: ``{cause: {"read_kb": x, "write_kb": y}}`` — these sum-reconcile
    #: with the DiskStats sequential counters (the bandwidth-attribution
    #: invariant).
    bandwidth_kb_by_cause: dict[str, dict[str, float]] = field(
        default_factory=dict
    )
    #: The substrate registry's closing snapshot (set by
    #: ``repro.sim.experiment._drive`` and ``repro.serve.service.finalize_serve``).
    metrics: dict[str, object] = field(default_factory=dict)

    def warmup_samples(self, fraction: float = 0.1) -> int:
        """Sample count to skip so summaries ignore the cold start."""
        return int(len(self.hit_ratio) * fraction)

    def mean_hit_ratio(self, warmup_fraction: float = 0.1) -> float:
        return self.hit_ratio.mean(self.warmup_samples(warmup_fraction))

    def mean_throughput(self, warmup_fraction: float = 0.1) -> float:
        return self.throughput_qps.mean(self.warmup_samples(warmup_fraction))

    def mean_db_size_mb(self, warmup_fraction: float = 0.0) -> float:
        return self.db_size_mb.mean(self.warmup_samples(warmup_fraction))

    def latency_percentile_s(self, percentile: float) -> float:
        """Read-latency percentile (e.g. 50, 99) over the whole run."""
        return self.read_latencies_s.percentile(percentile)

    def to_json_dict(self) -> dict[str, object]:
        """The run summary as a JSON-serializable dict (``cli --json``)."""
        return {
            "engine": self.engine,
            "config_note": self.config_note,
            "duration_s": self.duration_s,
            "reads_completed": self.reads_completed,
            "writes_applied": self.writes_applied,
            "mean_hit_ratio": self.mean_hit_ratio(),
            "mean_throughput_qps": self.mean_throughput(),
            "mean_db_size_mb": self.mean_db_size_mb(),
            "latency_p50_ms": self.latency_percentile_s(50) * 1000,
            "latency_p99_ms": self.latency_percentile_s(99) * 1000,
            "stall_seconds": self.stall_seconds,
            "event_counts": dict(self.event_counts),
            "bandwidth_kb_by_cause": {
                cause: dict(totals)
                for cause, totals in sorted(self.bandwidth_kb_by_cause.items())
            },
            "metrics": dict(self.metrics),
        }

    def to_csv_rows(self) -> list[str]:
        """The per-second series as CSV lines (header first).

        Columns: time, throughput_qps, hit_ratio (blank between hit-ratio
        sampling windows), db_size_mb, cache_usage, disk_utilization,
        buffer_size_mb (blank for engines without a compaction buffer).
        """
        hit_by_time = dict(zip(self.hit_ratio.times, self.hit_ratio.values))
        usage_by_time = dict(zip(self.cache_usage.times, self.cache_usage.values))
        buffer_by_time = dict(
            zip(self.buffer_size_mb.times, self.buffer_size_mb.values)
        )
        rows = [
            "time_s,throughput_qps,hit_ratio,db_size_mb,cache_usage,"
            "disk_utilization,buffer_size_mb"
        ]
        for index, time in enumerate(self.throughput_qps.times):
            hit = hit_by_time.get(time)
            usage = usage_by_time.get(time)
            buffer_mb = buffer_by_time.get(time)
            rows.append(
                ",".join(
                    [
                        str(time),
                        f"{self.throughput_qps.values[index]:.3f}",
                        "" if hit is None else f"{hit:.4f}",
                        f"{self.db_size_mb.values[index]:.1f}",
                        "" if usage is None else f"{usage:.4f}",
                        f"{self.disk_utilization.values[index]:.4f}",
                        "" if buffer_mb is None else f"{buffer_mb:.1f}",
                    ]
                )
            )
        return rows


class RunRecorder:
    """The run window every driver records through.

    :meth:`begin` binds a result and takes the run's baselines (event
    counts, per-cause disk totals, stall seconds); :meth:`sample`
    appends one point to each shared series per tick; :meth:`finish`
    writes the event, bandwidth and stall totals over the window.  A
    hit-ratio point is taken at the run's first sample and then every
    :data:`HIT_RATIO_WINDOW_S` ticks.
    """

    def __init__(self, engine, ops_scale: float) -> None:
        self.engine = engine
        #: The cache whose hit ratio and usage form the reported series:
        #: the engine's own choice (DB cache, falling back to the OS cache).
        self.metric_cache = engine.metric_cache
        #: Counts every event the engine publishes while this recorder
        #: exists; each run reports the delta over its own window.
        self.event_tally = EventTally(engine.bus)
        self._ops_scale = ops_scale
        self._result: RunResult | None = None
        self._appends: tuple = ()
        self._events_before: dict[str, int] = {}
        self._causes_before: dict[str, dict[str, float]] = {}
        self._stall_baseline = 0.0
        self._stall_last = 0.0
        self._last_cache_stats = None
        self._last_hit_tick: int | None = None

    def begin(self, result: RunResult) -> None:
        """Bind ``result`` for this run and take the baselines."""
        engine = self.engine
        self._result = result
        self._events_before = dict(self.event_tally.counts)
        self._causes_before = engine.disk.cause_totals()
        self._stall_baseline = self._stall_last = engine.stats.stall_seconds
        self._last_cache_stats = None
        self._last_hit_tick = None
        # Prebound per-tick series appends: ``result`` is fixed for the
        # whole run, so sample() pays one tuple unpack instead of three
        # attribute lookups per series per tick.
        self._appends = tuple(
            append
            for series in (
                result.throughput_qps,
                result.cache_usage,
                result.db_size_mb,
                result.disk_utilization,
                result.stall,
                result.buffer_size_mb,
            )
            for append in (series.times.append, series.values.append)
        )

    def stall_tick(self) -> float:
        """Write-stall seconds accrued since the last call (or begin)."""
        total = self.engine.stats.stall_seconds
        accrued = total - self._stall_last
        self._stall_last = total
        return accrued

    def sample(
        self, now: int, reads: int, utilization: float, stall: float
    ) -> float | None:
        """Append tick ``now`` to every shared series.

        Returns the hit ratio when a hit-ratio point was due, else None.
        """
        ops_scale = self._ops_scale
        (
            tp_time,
            tp_value,
            cu_time,
            cu_value,
            db_time,
            db_value,
            du_time,
            du_value,
            st_time,
            st_value,
            bf_time,
            bf_value,
        ) = self._appends
        tp_time(now)
        tp_value(reads * ops_scale)
        ratio = None
        cache = self.metric_cache
        if cache is not None:
            last = self._last_hit_tick
            if last is None or now - last >= HIT_RATIO_WINDOW_S:
                stats = cache.stats
                earlier = self._last_cache_stats
                if earlier is None:
                    ratio = stats.hit_ratio
                else:
                    ratio = stats.interval_hit_ratio(earlier)
                self._last_cache_stats = stats.snapshot()
                self._last_hit_tick = now
                self._result.hit_ratio.add(now, ratio)
            cu_time(now)
            cu_value(cache.usage)
        engine = self.engine
        disk = engine.disk
        size_kb = disk.live_kb + disk.tick_temp_space_kb()
        db_time(now)
        db_value(size_kb * ops_scale / 1024.0)
        du_time(now)
        du_value(utilization)
        st_time(now)
        st_value(stall)
        buffer_kb = engine.compaction_buffer_kb
        if buffer_kb is not None:
            bf_time(now)
            bf_value(buffer_kb * ops_scale / 1024.0)
        return ratio

    def finish(self) -> None:
        """Write the event, bandwidth and stall windows onto the result."""
        result, self._result = self._result, None
        engine = self.engine
        before = self._events_before
        result.event_counts = {
            name: count - before.get(name, 0)
            for name, count in self.event_tally.counts.items()
            if count - before.get(name, 0)
        }
        zero = {"read_kb": 0.0, "write_kb": 0.0}
        window: dict[str, dict[str, float]] = {}
        for cause, kinds in engine.disk.cause_totals().items():
            base = self._causes_before.get(cause, zero)
            window[cause] = {
                "read_kb": kinds["read_kb"] - base["read_kb"],
                "write_kb": kinds["write_kb"] - base["write_kb"],
            }
        result.bandwidth_kb_by_cause = window
        result.stall_seconds = engine.stats.stall_seconds - self._stall_baseline
