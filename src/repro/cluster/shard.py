"""One shard of a cluster run, as a sweep-runnable spec.

A :class:`ShardSpec` is the unit the cluster fan-out hands to the sweep
runner's process pool: the parent :class:`~repro.cluster.spec.ClusterSpec`
plus a shard index.  Its payload travels as ``"kind": "cluster-shard"``
and its result is a plain :class:`~repro.serve.result.ServeResult`, so
the shard rides the existing lossless RunResult transport unchanged —
``jobs=1`` and ``jobs=N`` cluster runs are bit-identical for exactly
the same reason sweeps are.

:func:`execute_shard` runs one shard start to finish (the worker entry
point); :func:`prepare_shard` exposes the wired-but-unrun session so
the coordinated in-process path (splits, oracle verification) and the
differential tests can interleave or observe shard simulators directly.
:func:`partition_arrivals` is the one place a request meets the router:
the coordinated path draws the stream once and splits it lazily for all
shards; a fanned worker, which is shipped a spec and not a stream,
draws it once per process and keeps only its own bucket.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from repro.cluster.spec import ClusterSpec
from repro.codec import Wire
from repro.errors import ConfigError
from repro.serve.arrivals import Request
from repro.serve.result import ServeResult
from repro.serve.service import (
    DispatchObserver,
    ServeSession,
    finalize_serve,
    prepare_serve,
    serve_arrivals,
)


@dataclass(frozen=True)
class ShardSpec(Wire):
    """One shard's slice of a cluster run."""

    _wire_kind = "cluster-shard"

    cluster: ClusterSpec
    shard: int

    def __post_init__(self) -> None:
        if not 0 <= self.shard < self.cluster.num_shards:
            raise ConfigError(
                f"shard {self.shard} out of range "
                f"0..{self.cluster.num_shards - 1}"
            )

    @property
    def engine(self) -> str:
        return self.cluster.engine

    @property
    def seed(self) -> int:
        return self.cluster.seed

    def cell_key(self) -> str:
        return f"{self.cluster.cell_key()}/shard{self.shard}"

    def label(self) -> str:
        return f"{self.cluster.label()}/shard{self.shard}"


def partition_arrivals(
    cluster: ClusterSpec, shards: Iterable[int] | None = None
) -> list[Iterator[Request]]:
    """The cluster's arrival stream, split lazily, one bucket per shard.

    A bucket per shard in ``shards`` (every shard by default), in that
    order.  The merged stream is drawn once, as the buckets are read,
    and every request routed once, by the split-aware request router,
    onto its serving shard's queue in stream order — so a scheduled
    split's post-split arrivals already land on the target shard.  A
    request for a shard not asked for is dropped.  A queue holds what
    was drawn to reach another shard's next arrival: one tick of
    requests in lockstep, when every shard has traffic every tick.  The
    buckets are disjoint and freshly drawn on every call: a run mutates
    ``Request.retries``, so a request is never shared between shards or
    between runs.
    """
    spec = cluster.service_spec()
    config = spec.config()
    route = cluster.request_router(config)
    source = serve_arrivals(spec, config)
    wanted = range(cluster.num_shards) if shards is None else shards
    queues: dict[int, deque[Request]] = {shard: deque() for shard in wanted}

    def bucket(queue: deque[Request]) -> Iterator[Request]:
        while True:
            while not queue:
                request = next(source, None)
                if request is None:
                    return
                target = queues.get(route(request))
                if target is not None:
                    target.append(request)
            yield queue.popleft()

    return [bucket(queue) for queue in queues.values()]


def prepare_shard(
    cluster: ClusterSpec,
    shard: int,
    observer: DispatchObserver | None = None,
    arrivals: Iterable[Request] | None = None,
) -> ServeSession:
    """Wire one shard's serve session: its data placement and its bucket.

    Data placement (preload + cache warm) follows the *initial* router;
    ``arrivals`` is this shard's bucket of :func:`partition_arrivals`,
    which the coordinated path splits once for all shards.  Left as
    ``None`` (a fanned worker, which is shipped a spec and not a
    stream) the shard takes its own bucket from a splitter that drops
    every other shard's requests.  Nothing is drawn until the run reads
    the bucket.  With one shard everything passes and the session is
    exactly the single-engine serve session.
    """
    initial = cluster.router(cluster.config())
    if arrivals is None:
        arrivals = partition_arrivals(cluster, [shard])[0]
    return prepare_serve(
        cluster.service_spec(),
        owned=lambda key: initial.shard_for(key) == shard,
        arrivals=arrivals,
        observer=observer,
        shard=shard,
    )


def execute_shard(spec: ShardSpec) -> ServeResult:
    """Run one shard start to finish (the sweep-worker entry point).

    Only valid for specs without a split schedule or oracle
    verification — those need the coordinated in-process path
    (:func:`repro.cluster.run.run_coordinated`), because a mid-run
    migration couples the shards.
    """
    cluster = spec.cluster
    if cluster.split_at_s is not None or cluster.verify:
        raise ConfigError(
            "split/verify cluster runs are coordinated; "
            "shards cannot execute independently"
        )
    session = prepare_shard(cluster, spec.shard)
    result = session.simulator.run(session.duration_s)
    return finalize_serve(session, result)
