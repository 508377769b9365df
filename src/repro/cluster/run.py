"""Executing cluster specs: process-pool fan-out or coordinated stepping.

Two execution paths, chosen by what the spec asks for:

* **Fanned** (:func:`run_cluster` without split/verify): each shard is
  an independent :class:`~repro.cluster.shard.ShardSpec` handed to
  :func:`repro.sim.sweep.run_sweep`, so shards execute across the
  existing process pool with the lossless RunResult transport as the
  wire format — cluster ``jobs=1`` and ``jobs=N`` are bit-identical by
  the same argument as sweeps.  Shards never share state (each key
  routes to exactly one shard for its whole life), so independent
  execution is exact, not an approximation.
* **Coordinated** (:func:`run_coordinated`, used automatically for
  split or verify runs): every shard simulator is prepared in-process
  and stepped in lockstep on one virtual timeline.  At ``split_at_s``
  the migration runs between ticks: pending requests for the migrated
  range are fenced out of the source's scheduler and retry heap, the
  range's newest live entries move via a source range scan +
  :meth:`~repro.lsm.base.LSMEngine.adopt_entries` (seqs preserved, so
  values survive byte-for-byte), the fenced requests are adopted by the
  target, and ``RangeMigrated`` is published on both shards' buses.
  With ``verify=True`` a cluster-wide :class:`~repro.check.oracle.KVOracle`
  shadows every dispatched request through the serve loop's
  :class:`~repro.serve.service.DispatchObserver` hook — the proof that
  a split never serves a stale or lost value.

For a spec with neither split nor verify the two paths produce
identical per-shard results (pinned by test): coordinated stepping only
interleaves independent simulators.
"""

from __future__ import annotations

import time

from repro.check.oracle import KVOracle
from repro.cluster.result import ClusterResult, MigrationReport
from repro.cluster.shard import ShardSpec, partition_arrivals, prepare_shard
from repro.cluster.spec import ClusterSpec
from repro.errors import ConfigError
from repro.obs.events import RangeMigrated
from repro.serve.arrivals import Request
from repro.serve.result import ServeResult
from repro.serve.service import ServeSession, finalize_serve, serve_duration
from repro.sim.sweep import SWEEP_SCHEMA_VERSION, run_sweep


class OracleObserver:
    """Shadows every dispatched request with a cluster-wide KVOracle.

    Sound because each key is served by exactly one shard at any
    instant (routing pre-split, the migration fence afterwards), so the
    oracle sees that key's writes and reads in the same order the
    owning engine does.
    """

    def __init__(self, oracle: KVOracle) -> None:
        self.oracle = oracle
        self.writes_recorded = 0
        self.reads_checked = 0
        self.read_mismatches = 0
        self.mismatches: list[dict[str, object]] = []

    def on_write(self, request: Request, seq: int) -> None:
        self.oracle.put(request.key, seq)
        self.writes_recorded += 1

    def on_read(self, request: Request, got) -> None:
        self.reads_checked += 1
        expect_found, expect_value = self.oracle.get(request.key)
        if got.found != expect_found or (
            expect_found and got.value != expect_value
        ):
            self.read_mismatches += 1
            if len(self.mismatches) < 20:
                self.mismatches.append(
                    {
                        "key": request.key,
                        "expected": (expect_found, expect_value),
                        "got": (got.found, got.value),
                    }
                )

    def summary(self) -> dict[str, int]:
        return {
            "writes_recorded": self.writes_recorded,
            "reads_checked": self.reads_checked,
            "read_mismatches": self.read_mismatches,
        }


def _migrate(
    spec: ClusterSpec, sessions: list[ServeSession]
) -> MigrationReport:
    """Move the scheduled key range from source shard to target shard."""
    config = sessions[0].simulator.config
    low, high = spec.split_range(config)
    source = sessions[spec.split_source]
    target = sessions[spec.split_target]

    # Fence first: after this the source can never dispatch the range.
    queued, retries = source.simulator.extract_pending(
        lambda key: low <= key < high
    )
    # Hand over the newest live versions, seqs intact.  The range scan
    # is charged to the source (a migration reads the data it ships).
    scan = source.setup.engine.scan(low, high - 1)
    target.setup.engine.adopt_entries(scan.entries)
    adopted = target.simulator.adopt_pending(queued, retries)

    source.setup.engine.bus.emit(
        RangeMigrated(
            low=low,
            high=high,
            entries=len(scan.entries),
            direction="out",
            peer=spec.split_target,
        )
    )
    target.setup.engine.bus.emit(
        RangeMigrated(
            low=low,
            high=high,
            entries=len(scan.entries),
            direction="in",
            peer=spec.split_source,
        )
    )
    return MigrationReport(
        at_s=int(spec.split_at_s or 0),
        source=spec.split_source,
        target=spec.split_target,
        low=low,
        high=high,
        entries=len(scan.entries),
        drained_requests=len(queued),
        adopted_requests=adopted,
        moved_retries=len(retries),
    )


def run_coordinated(
    spec: ClusterSpec,
    on_tick=None,
    attach=None,
) -> ClusterResult:
    """Step every shard in lockstep in-process (splits, verification).

    ``attach(session, shard)`` runs once per prepared shard before the
    run starts (test instrumentation: per-shard trace recorders);
    ``on_tick(tick, sessions)`` runs after every lockstep tick (live
    views: ``repro top``).  Both default to nothing, and neither can
    perturb the run unless it mutates the sessions.
    """
    config = spec.config()
    duration = serve_duration(spec.service_spec(), config)
    # A split scheduled at/after the end never fires; surface that
    # instead of silently reporting an un-run migration.
    if spec.split_at_s is not None and spec.split_at_s >= duration:
        raise ConfigError(
            f"split_at_s={spec.split_at_s} is outside the run "
            f"(duration {duration})"
        )
    observer: OracleObserver | None = None
    if spec.verify:
        oracle = KVOracle()
        if spec.do_preload:
            for key in range(config.unique_keys):
                oracle.put(key, 0)
        observer = OracleObserver(oracle)
    sessions = [
        prepare_shard(spec, shard, observer=observer, arrivals=bucket)
        for shard, bucket in enumerate(partition_arrivals(spec))
    ]
    if attach is not None:
        for shard, session in enumerate(sessions):
            attach(session, shard)
    for session in sessions:
        session.simulator.begin(duration)
    migration: MigrationReport | None = None
    for tick in range(duration):
        if spec.split_at_s is not None and tick == spec.split_at_s:
            migration = _migrate(spec, sessions)
        for session in sessions:
            session.simulator.step()
        if on_tick is not None:
            on_tick(tick, sessions)
    shards = [
        finalize_serve(session, session.simulator.finish())
        for session in sessions
    ]
    return ClusterResult(
        spec=spec,
        shards=shards,
        migration=migration,
        verify=None if observer is None else observer.summary(),
    )


def run_cluster(spec: ClusterSpec, jobs: int = 1) -> ClusterResult:
    """Execute one cluster spec; fans shards over ``jobs`` workers.

    Split and verify runs coordinate in-process regardless of ``jobs``
    (the migration couples the shards); everything else fans out.
    """
    if spec.split_at_s is not None or spec.verify:
        return run_coordinated(spec)
    shard_specs = [
        ShardSpec(cluster=spec, shard=index)
        for index in range(spec.num_shards)
    ]
    outcome = run_sweep(shard_specs, jobs=jobs)
    shards: list[ServeResult] = [o.result for o in outcome.outcomes]
    return ClusterResult(spec=spec, shards=shards)


def cluster_payload(
    name: str,
    entries: list[tuple[ClusterSpec, ClusterResult, float]],
) -> dict:
    """Bench-schema payload for a list of executed cluster cells.

    Mirrors :meth:`repro.sim.sweep.SweepOutcome.to_payload`: one run
    entry per cluster (tagged ``"kind": "cluster"``), wall clock and
    sim-op throughput per run, grid-level telemetry in ``scalars``.
    """
    runs: dict[str, dict] = {}
    for spec, result, wall_clock_s in entries:
        entry = result.to_json_dict()
        entry["wall_clock_s"] = wall_clock_s
        sim_ops = result.reads_completed + result.writes_applied
        entry["sim_ops_per_s"] = (
            sim_ops / wall_clock_s if wall_clock_s > 0 else 0.0
        )
        runs[spec.label()] = entry
    scales = sorted({spec.scale for spec, _, _ in entries})
    durations = sorted({result.duration_s for _, result, _ in entries})
    return {
        "schema_version": SWEEP_SCHEMA_VERSION,
        "name": name,
        "scale": scales[0] if len(scales) == 1 else 0,
        "duration_s": durations[0] if len(durations) == 1 else 0,
        "seed": entries[0][0].seed if entries else 0,
        "runs": runs,
        "scalars": {
            "cluster_cells": float(len(entries)),
            "cluster_wall_clock_s": sum(w for _, _, w in entries),
        },
    }


def run_cluster_grid(
    specs: list[ClusterSpec], jobs: int = 1
) -> list[tuple[ClusterSpec, ClusterResult, float]]:
    """Run a grid of cluster specs, timing each (CLI/benchmark helper)."""
    labels = [spec.label() for spec in specs]
    duplicates = sorted(
        {label for label in labels if labels.count(label) > 1}
    )
    if duplicates:
        raise ConfigError(f"duplicate cluster specs: {duplicates}")
    entries: list[tuple[ClusterSpec, ClusterResult, float]] = []
    for spec in specs:
        started = time.perf_counter()
        result = run_cluster(spec, jobs=jobs)
        entries.append((spec, result, time.perf_counter() - started))
    return entries
