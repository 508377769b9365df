"""Parallel experiment fleet: fan declarative specs across a process pool.

Every paper figure is a grid of (engine × seed × config) cells.  This
module runs such grids as fast as the hardware allows:

* :func:`expand_grid` turns axis lists (engines, seeds, config-override
  axes) into the cartesian list of :class:`~repro.sim.spec.ExperimentSpec`;
* :func:`run_sweep` executes a spec list — serially for ``jobs=1``, or
  fanned over a ``ProcessPoolExecutor`` — and transports every
  :class:`~repro.sim.metrics.RunResult` back through its lossless
  ``to_dict``/``from_dict`` round-trip, so the parallel path returns
  results *identical* to the serial path for the same specs and seeds;
* :func:`summarize_cells` aggregates seed replicas of the same cell into
  mean/std/min/max summaries per headline metric;
* :meth:`SweepOutcome.to_payload` emits the bench-schema JSON the CI
  smoke job validates and archives, including per-run wall clock and the
  sweep's measured parallel speedup.

Determinism: each spec carries its own seed and every worker builds its
stack from scratch, so a cell's result is a pure function of its spec —
scheduling order and worker count cannot change any number.
"""

from __future__ import annotations

import itertools
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from repro.errors import ConfigError
from repro.sim.experiment import ENGINE_NAMES, execute
from repro.sim.metrics import RunResult
from repro.sim.spec import ExperimentSpec

#: Bench-telemetry JSON schema version (bump on a breaking layout
#: change); ``benchmarks.common``, where the validator lives, imports it.
#: Version 2: run entries grew a required ``stall_seconds`` field and
#: serve cells may appear (tagged ``"kind": "serve"``, with per-class
#: percentiles).
#: Version 3: cluster run entries (tagged ``"kind": "cluster"``, from
#: ``repro cluster``, with per-shard ledgers) and cluster-shard spec
#: payloads in the pool.
SWEEP_SCHEMA_VERSION = 3

#: Headline metrics aggregated per cell: name -> extractor.
SUMMARY_METRICS = {
    "hit_ratio": lambda result: result.mean_hit_ratio(),
    "throughput_qps": lambda result: result.mean_throughput(),
    "db_size_mb": lambda result: result.mean_db_size_mb(),
    "latency_p50_ms": lambda result: result.latency_percentile_s(50) * 1000,
    "latency_p99_ms": lambda result: result.latency_percentile_s(99) * 1000,
}


def expand_grid(
    engines: Sequence[str],
    seeds: Sequence[int] = (0,),
    *,
    axes: dict[str, Sequence[object]] | None = None,
    spec_class: type = ExperimentSpec,
    **fields: object,
) -> list:
    """The cartesian grid ``engines × axes × seeds`` as a spec list.

    ``axes`` maps :class:`~repro.config.SystemConfig` field names to the
    values to sweep; every combination of one value per axis becomes one
    cell, replicated once per seed.  Each cell is a ``spec_class``
    (:class:`ExperimentSpec`, or
    :class:`~repro.serve.spec.ServiceSpec` for a serve grid) built with
    ``fields`` (``base``, ``scale``, ``duration_s``, ...) passed through.
    """
    unknown = [name for name in engines if name not in ENGINE_NAMES]
    if unknown:
        raise ConfigError(
            f"unknown engines {unknown}; choose from {ENGINE_NAMES}"
        )
    if not engines or not seeds:
        raise ConfigError("expand_grid needs at least one engine and one seed")
    axes = axes or {}
    keys = list(axes)
    specs = []
    for name in engines:
        for combo in itertools.product(*(axes[key] for key in keys)):
            for seed in seeds:
                specs.append(
                    spec_class(
                        engine=name,
                        overrides=tuple(zip(keys, combo)),
                        seed=seed,
                        **fields,
                    )
                )
    return specs


def _execute_payload(payload: dict) -> dict:
    """Worker entry point: spec dict in, ``{result, wall_clock_s}`` out.

    Takes and returns plain dicts so the transport format is exactly the
    documented ``to_dict`` round-trip on both sides of the pool — the
    ``jobs=1`` path calls this same function in-process, which is what
    makes serial and parallel runs bit-identical.  Spec dicts tagged
    ``"kind": "serve"`` run through the open-loop service layer instead
    of the closed-loop driver.
    """
    started = time.perf_counter()
    if payload.get("kind") == "serve":
        from repro.serve.service import execute_serve
        from repro.serve.spec import ServiceSpec

        result = execute_serve(ServiceSpec.from_dict(payload))
    elif payload.get("kind") == "cluster-shard":
        from repro.cluster.shard import ShardSpec, execute_shard

        result = execute_shard(ShardSpec.from_dict(payload))
    else:
        result = execute(ExperimentSpec.from_dict(payload))
    wall_clock_s = time.perf_counter() - started
    return {"result": result.to_dict(), "wall_clock_s": wall_clock_s}


def _load_result(payload: dict) -> RunResult:
    """Rebuild a transported result, dispatching on its ``kind`` tag."""
    if payload.get("kind") == "serve":
        from repro.serve.result import ServeResult

        return ServeResult.from_dict(payload)
    return RunResult.from_dict(payload)


@dataclass
class SpecOutcome:
    """One executed spec: the transported result plus worker telemetry."""

    spec: ExperimentSpec
    result: RunResult
    wall_clock_s: float

    @property
    def sim_ops_per_s(self) -> float:
        sim_ops = self.result.reads_completed + self.result.writes_applied
        return sim_ops / self.wall_clock_s if self.wall_clock_s > 0 else 0.0


@dataclass
class CellSummary:
    """Seed replicas of one grid cell, aggregated."""

    key: str
    engine: str
    seeds: list[int]
    #: metric -> {"mean", "std", "min", "max"} over the replicas.
    stats: dict[str, dict[str, float]]

    @property
    def replicas(self) -> int:
        return len(self.seeds)

    def to_json_dict(self) -> dict[str, object]:
        return {
            "cell": self.key,
            "engine": self.engine,
            "seeds": list(self.seeds),
            "stats": {name: dict(values) for name, values in self.stats.items()},
        }


def _aggregate(values: list[float]) -> dict[str, float]:
    mean = sum(values) / len(values)
    if len(values) > 1:
        std = (sum((v - mean) ** 2 for v in values) / (len(values) - 1)) ** 0.5
    else:
        std = 0.0
    return {"mean": mean, "std": std, "min": min(values), "max": max(values)}


def summarize_cells(outcomes: Iterable[SpecOutcome]) -> list[CellSummary]:
    """Group outcomes by cell (spec minus seed) and aggregate each metric."""
    groups: dict[str, list[SpecOutcome]] = {}
    for outcome in outcomes:
        groups.setdefault(outcome.spec.cell_key(), []).append(outcome)
    summaries = []
    for key, members in groups.items():
        stats = {
            name: _aggregate([extract(member.result) for member in members])
            for name, extract in SUMMARY_METRICS.items()
        }
        summaries.append(
            CellSummary(
                key=key,
                engine=members[0].spec.engine,
                seeds=[member.spec.seed for member in members],
                stats=stats,
            )
        )
    return summaries


@dataclass
class SweepOutcome:
    """Everything one sweep produced, plus how fast it ran."""

    outcomes: list[SpecOutcome]
    jobs: int
    wall_clock_s: float

    def cells(self) -> list[CellSummary]:
        return summarize_cells(self.outcomes)

    @property
    def serial_estimate_s(self) -> float:
        """Sum of per-run worker wall clocks ≈ the ``jobs=1`` wall clock."""
        return sum(outcome.wall_clock_s for outcome in self.outcomes)

    @property
    def speedup(self) -> float:
        """Measured parallel speedup over the serial estimate."""
        if self.wall_clock_s <= 0:
            return 1.0
        return self.serial_estimate_s / self.wall_clock_s

    def to_payload(self, name: str = "sweep") -> dict:
        """The sweep as a bench-schema JSON payload.

        Conforms to ``benchmarks.common.validate_bench``: each run entry
        is the result's summary plus its worker wall clock; sweep-level
        telemetry (jobs, total wall clock, serial estimate, speedup)
        lands in ``scalars`` and, structured, under ``"sweep"``.
        """
        runs: dict[str, dict] = {}
        for outcome in self.outcomes:
            entry = outcome.result.to_json_dict()
            entry["wall_clock_s"] = outcome.wall_clock_s
            entry["sim_ops_per_s"] = outcome.sim_ops_per_s
            runs[outcome.spec.label()] = entry
        specs = [outcome.spec for outcome in self.outcomes]
        scales = sorted({spec.scale for spec in specs})
        durations = sorted(
            {outcome.result.duration_s for outcome in self.outcomes}
        )
        cells = self.cells()
        return {
            "schema_version": SWEEP_SCHEMA_VERSION,
            "name": name,
            # Mixed-axis sweeps report 0 (no single value applies).
            "scale": scales[0] if len(scales) == 1 else 0,
            "duration_s": durations[0] if len(durations) == 1 else 0,
            "seed": specs[0].seed if specs else 0,
            "runs": runs,
            "scalars": {
                "sweep_jobs": float(self.jobs),
                "sweep_runs": float(len(self.outcomes)),
                "sweep_cells": float(len(cells)),
                "sweep_wall_clock_s": self.wall_clock_s,
                "sweep_serial_estimate_s": self.serial_estimate_s,
                "sweep_speedup_x": self.speedup,
            },
            "sweep": {
                "jobs": self.jobs,
                "wall_clock_s": self.wall_clock_s,
                "serial_estimate_s": self.serial_estimate_s,
                "speedup_x": self.speedup,
                "specs": [spec.to_dict() for spec in specs],
                "cells": [cell.to_json_dict() for cell in cells],
            },
        }

    def write_payload(self, path: str | Path, name: str = "sweep") -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self.to_payload(name), indent=2, sort_keys=True) + "\n"
        )
        return path

    def write_runs(self, out_dir: str | Path) -> list[Path]:
        """One full (lossless ``to_dict``) JSON file per run."""
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        paths = []
        for outcome in self.outcomes:
            stem = outcome.spec.label().replace("/", "_").replace("=", "-")
            path = out_dir / f"{stem}.json"
            path.write_text(
                json.dumps(outcome.result.to_dict(), sort_keys=True) + "\n"
            )
            paths.append(path)
        return paths


def run_sweep(specs: Sequence, jobs: int = 1) -> SweepOutcome:
    """Execute every spec, fanned over ``jobs`` worker processes.

    Accepts :class:`~repro.sim.spec.ExperimentSpec` and
    :class:`~repro.serve.spec.ServiceSpec` entries interchangeably (the
    worker dispatches on the spec dict's ``kind`` tag).
    Results come back in spec order regardless of completion order.
    Duplicate labels are rejected — they would collide in the payload's
    ``runs`` dict and silently drop data.
    """
    specs = list(specs)
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    labels = [spec.label() for spec in specs]
    duplicates = sorted({label for label in labels if labels.count(label) > 1})
    if duplicates:
        raise ConfigError(f"duplicate sweep specs: {duplicates}")
    payloads = [spec.to_dict() for spec in specs]
    started = time.perf_counter()
    if jobs == 1 or len(specs) <= 1:
        raws = [_execute_payload(payload) for payload in payloads]
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, len(specs))) as pool:
            raws = list(pool.map(_execute_payload, payloads))
    wall_clock_s = time.perf_counter() - started
    outcomes = [
        SpecOutcome(
            spec=spec,
            result=_load_result(raw["result"]),
            wall_clock_s=raw["wall_clock_s"],
        )
        for spec, raw in zip(specs, raws)
    ]
    return SweepOutcome(outcomes=outcomes, jobs=jobs, wall_clock_s=wall_clock_s)
