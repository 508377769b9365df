"""Declarative cluster-run specifications.

:class:`ClusterSpec` describes one sharded serve run: the per-shard
serve parameters (engine, config base, rates, policy, admission — the
same knobs as :class:`~repro.serve.spec.ServiceSpec`) plus the cluster
topology (shard count, partitioner, vnodes) and an optional live
shard-split schedule.  Like every other spec it is frozen, picklable
and JSON-able, with ``cell_key``/``label`` identities the sweep runner
dedupes on; :func:`expand_cluster_grid` builds the engine × shards ×
partitioner × rate × seed grids behind ``repro cluster``.

Every shard serves the *same* global arrival stream filtered down to
the keys it owns, so shard membership is pure routing — the union of
the shards' request streams is exactly the single-engine stream, which
is what makes the 1-shard differential test meaningful.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

from repro.cluster.ring import (
    DEFAULT_VNODES,
    PARTITIONERS,
    HashRing,
    RangePartitioner,
    SplitRouter,
)
from repro.codec import Wire, encode, project
from repro.config import SystemConfig
from repro.control.controller import DEFAULT_CONTROL_INTERVAL_S
from repro.errors import ConfigError
from repro.serve.arrivals import Request
from repro.serve.spec import DEFAULT_REQUEST_SAMPLE_EVERY, ServiceSpec


@dataclass(frozen=True)
class ClusterSpec(Wire):
    """One sharded open-loop serve run, described entirely by primitives.

    The offered rates are *cluster-wide*: each shard receives the
    subset of the global arrival stream that routes to it.  A split
    schedule (``split_at_s`` et al.) migrates the upper
    ``split_fraction`` of the source shard's contiguous range to the
    target shard mid-run; splits require the range partitioner (a hash
    ring has no contiguous ranges to cut).  ``verify=True`` shadows
    every dispatched request with a cluster-wide
    :class:`~repro.check.oracle.KVOracle` (coordinated execution).
    """

    _wire_kind = "cluster"
    #: Serve-spec keys ``to_dict()`` carries that no cluster field owns,
    #: and ``profile``/``sample_every``, which archived payloads still hold.
    _wire_extra = ("classes", "profile", "sample_every")

    engine: str
    num_shards: int = 2
    partitioner: str = "hash"
    vnodes: int = DEFAULT_VNODES
    base: str = "paper_scaled"
    scale: int = 2048
    overrides: tuple[tuple[str, object], ...] = ()
    duration_s: int | None = None
    seed: int = 0
    policy: str = "fifo"
    arrival: str = "poisson"
    read_rate_qps: float = 2000.0
    write_rate_qps: float | None = None
    queue_bound: int = 64
    admit_queue_fraction: float = 0.75
    retry_after_s: float = 5.0
    max_retries: int = 3
    do_preload: bool = True
    warm_cache: bool = True
    request_sample_every: int = DEFAULT_REQUEST_SAMPLE_EVERY
    #: Request tracing for every shard (see ServiceSpec.trace).
    trace: str = "off"
    trace_dir: str | None = None
    trace_slo_s: float = 1.0
    trace_stall_spike_s: float = 0.25
    trace_dip_threshold: float = 0.7
    #: Per-shard runtime controller (see ServiceSpec.controller); each
    #: shard runs its own independent control loop over its own stack.
    controller: str = "off"
    control_interval_s: int = DEFAULT_CONTROL_INTERVAL_S
    #: Live shard-split schedule (None = no split).
    split_at_s: int | None = None
    split_source: int = 0
    split_target: int = 1
    split_fraction: float = 0.5
    #: Shadow every dispatch with a cluster-wide KVOracle.
    verify: bool = False

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ConfigError(
                f"num_shards must be >= 1, got {self.num_shards}"
            )
        if self.partitioner not in PARTITIONERS:
            raise ConfigError(
                f"unknown partitioner {self.partitioner!r}; "
                f"choose from {PARTITIONERS}"
            )
        if self.vnodes < 1:
            raise ConfigError(f"vnodes must be >= 1, got {self.vnodes}")
        if self.split_at_s is not None:
            if self.partitioner != "range":
                raise ConfigError(
                    "shard splits need contiguous ranges: "
                    "use partitioner='range'"
                )
            if self.num_shards < 2:
                raise ConfigError("a split needs at least 2 shards")
            if self.split_at_s < 0:
                raise ConfigError(
                    f"split_at_s must be >= 0, got {self.split_at_s}"
                )
            for name, shard in (
                ("split_source", self.split_source),
                ("split_target", self.split_target),
            ):
                if not 0 <= shard < self.num_shards:
                    raise ConfigError(
                        f"{name}={shard} out of range "
                        f"0..{self.num_shards - 1}"
                    )
            if self.split_source == self.split_target:
                raise ConfigError("split source and target must differ")
            if not 0.0 < self.split_fraction < 1.0:
                raise ConfigError(
                    f"split_fraction must be in (0, 1), "
                    f"got {self.split_fraction}"
                )
        # Delegate serve/config validation to the per-shard spec; adopt
        # its normalized overrides tuple.
        probe = self.service_spec()
        object.__setattr__(self, "overrides", probe.overrides)

    def replace(self, **changes: object) -> "ClusterSpec":
        return dataclasses.replace(self, **changes)

    # ------------------------------------------------------------------
    # Materialization.
    # ------------------------------------------------------------------
    def service_spec(self) -> ServiceSpec:
        """The per-shard serve spec (identical across shards)."""
        return project(self, ServiceSpec)

    def config(self) -> SystemConfig:
        return self.service_spec().config()

    def router(self, config: SystemConfig):
        """The initial (pre-split) placement router."""
        if self.partitioner == "hash":
            return HashRing(self.num_shards, self.vnodes, self.seed)
        return RangePartitioner(config.unique_keys, self.num_shards)

    def split_range(self, config: SystemConfig) -> tuple[int, int]:
        """The half-open key range a scheduled split migrates."""
        if self.split_at_s is None:
            raise ConfigError("spec schedules no split")
        partitioner = self.router(config)
        low, high = partitioner.shard_range(self.split_source)
        cut = high - max(1, round(self.split_fraction * (high - low)))
        cut = max(low, min(cut, high - 1))
        return cut, high

    def request_router(
        self, config: SystemConfig
    ) -> Callable[[Request], int]:
        """Maps a request to its serving shard, split schedule included.

        Requests *arriving* at or after ``split_at_s`` route with the
        post-split layout; earlier arrivals route with the initial one.
        Routing by arrival time makes shard membership precomputable
        per request, which is what lets the no-split fan-out and the
        coordinated loop agree exactly.
        """
        initial = self.router(config)
        if self.split_at_s is None:
            return lambda request: initial.shard_for(request.key)
        low, high = self.split_range(config)
        post = SplitRouter(initial, low, high, self.split_target)
        split_at = float(self.split_at_s)

        def route(request: Request) -> int:
            router = post if request.arrival_s >= split_at else initial
            return router.shard_for(request.key)

        return route

    # ------------------------------------------------------------------
    # Labels.
    # ------------------------------------------------------------------
    def cell_key(self) -> str:
        """Grid-cell identity (everything but the seed)."""
        parts = ["cluster", self.service_spec().cell_key()]
        parts.append(f"n{self.num_shards}")
        parts.append(self.partitioner)
        if self.partitioner == "hash" and self.vnodes != DEFAULT_VNODES:
            parts.append(f"v{self.vnodes}")
        if self.split_at_s is not None:
            parts.append(
                f"split{self.split_at_s}"
                f":{self.split_source}-{self.split_target}"
                f":{self.split_fraction:g}"
            )
        if self.verify:
            parts.append("verify")
        return "/".join(parts)

    def label(self) -> str:
        return f"{self.cell_key()}/s{self.seed}"

    # ------------------------------------------------------------------
    # Serialization.
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, object]:
        """The per-shard serve spec's keys plus this spec's own."""
        return {**self.service_spec().to_dict(), **encode(self)}


def expand_cluster_grid(
    engines: list[str],
    shard_counts: list[int],
    partitioners: list[str],
    rates: list[float],
    seeds: list[int],
    **common: object,
) -> list[ClusterSpec]:
    """The engine × shards × partitioner × rate × seed grid."""
    specs: list[ClusterSpec] = []
    for engine in engines:
        for num_shards in shard_counts:
            for partitioner in partitioners:
                for rate in rates:
                    for seed in seeds:
                        specs.append(
                            ClusterSpec(
                                engine=engine,
                                num_shards=num_shards,
                                partitioner=partitioner,
                                read_rate_qps=rate,
                                seed=seed,
                                **common,
                            )
                        )
    return specs
