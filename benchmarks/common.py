"""Shared infrastructure for the figure-reproduction benchmarks.

Every benchmark regenerates one of the paper's evaluation figures
(Figs. 2, 8-13) or an ablation, prints the paper-vs-measured comparison,
and asserts the qualitative shape (who wins, oscillation, overhead band).

Runs are expensive, so they are memoized per (engine, mode, config): the
summary figures (9, 11, 13) reuse the series figures' (8, 10, 12) runs.

Environment knobs:

* ``REPRO_BENCH_SCALE``  — linear size scale (default 2048, the scale
  EXPERIMENTS.md quotes; scale-1024 spot checks are recorded there too);
* ``REPRO_BENCH_DURATION`` — virtual seconds per run (default 20,000,
  the paper's full test length; lower it for smoke runs — the level-2
  phenomena need at least ~13,000);
* ``REPRO_BENCH_JOBS`` — worker processes for grid runs (default 1;
  raise it on multi-core runners — results are identical by
  construction, see :mod:`repro.sim.sweep`).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.config import SystemConfig
from repro.sim.metrics import RunResult
from repro.sim.spec import ExperimentSpec
from repro.sim.sweep import SWEEP_SCHEMA_VERSION, run_sweep

BENCH_SCALE = int(os.environ.get("REPRO_BENCH_SCALE", "2048"))
BENCH_DURATION = int(os.environ.get("REPRO_BENCH_DURATION", "20000"))
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "1"))
BENCH_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))

#: The database-size figures (12/13) hinge on the level-2 merge round,
#: which happens at ~10,240 virtual seconds at every scale (the fill
#: periods are scale-invariant by design), so those runs need to be
#: longer than the default smoke duration.
SIZE_DURATION = max(BENCH_DURATION, 13_000)

RESULTS_DIR = Path(__file__).parent / "results"

_run_cache: dict[ExperimentSpec, RunResult] = {}

#: Harness telemetry per cached run, keyed by ``id(result)``: how long
#: the *simulator* took on the wall clock and how many simulated
#: operations per real second it sustained.  Memoized reuse keeps the
#: first (real) measurement.
_telemetry: dict[int, dict[str, float]] = {}


def bench_config(**overrides) -> SystemConfig:
    """The scaled paper configuration used by all benchmarks."""
    config = SystemConfig.paper_scaled(BENCH_SCALE)
    if overrides:
        config = config.replace(**overrides)
    return config


def cell(
    engine: str,
    scan_mode: bool = False,
    duration: int | None = None,
    base: str = "paper_scaled",
    **config_overrides,
) -> ExperimentSpec:
    """One declarative grid cell at the benchmark scale/seed."""
    return ExperimentSpec(
        engine=engine,
        base=base,
        scale=BENCH_SCALE,
        overrides=tuple(sorted(config_overrides.items())),
        duration_s=duration if duration is not None else BENCH_DURATION,
        seed=BENCH_SEED,
        scan_mode=scan_mode,
    )


def run_grid(
    cells: dict[object, ExperimentSpec] | None = None,
    *,
    engines=None,
    scan_mode: bool = False,
    duration: int | None = None,
    jobs: int | None = None,
    **config_overrides,
) -> dict[object, RunResult]:
    """Run a labelled grid of cells; memoized, parallel when jobs > 1.

    Either pass ``cells`` (label -> :func:`cell`) or the convenience form
    ``engines=(...)`` which labels each cell by its engine name.  Misses
    are fanned over ``jobs`` worker processes (``REPRO_BENCH_JOBS`` by
    default) via :func:`repro.sim.sweep.run_sweep`; hits come from the
    cross-file memo, so the summary figures still reuse the series
    figures' runs.
    """
    if cells is None:
        cells = {
            name: cell(name, scan_mode=scan_mode, duration=duration,
                       **config_overrides)
            for name in engines
        }
    jobs = BENCH_JOBS if jobs is None else jobs
    # Distinct missing specs, each mapped to every label that wants it.
    missing: dict[ExperimentSpec, list[object]] = {}
    for label, spec in cells.items():
        if spec not in _run_cache:
            missing.setdefault(spec, []).append(label)
    if missing:
        outcome = run_sweep(list(missing), jobs=jobs)
        for run in outcome.outcomes:
            _run_cache[run.spec] = run.result
            _telemetry[id(run.result)] = {
                "wall_clock_s": run.wall_clock_s,
                "sim_ops_per_s": run.sim_ops_per_s,
            }
    return {label: _run_cache[spec] for label, spec in cells.items()}


def run_cached(
    engine: str,
    scan_mode: bool = False,
    duration: int | None = None,
    **config_overrides,
) -> RunResult:
    """Run (or reuse) one experiment; memoized across benchmark files."""
    spec = cell(engine, scan_mode=scan_mode, duration=duration,
                **config_overrides)
    return run_grid({engine: spec})[engine]


def timed(fn):
    """Run ``fn`` and, if it returns a RunResult, record its telemetry.

    For benchmarks that drive experiments directly (bypassing
    :func:`run_cached`), so their ``BENCH_*.json`` entries still carry
    real wall-clock and ops/sec numbers.
    """
    started = time.perf_counter()
    result = fn()
    wall_s = time.perf_counter() - started
    if isinstance(result, RunResult):
        sim_ops = result.reads_completed + result.writes_applied
        _telemetry[id(result)] = {
            "wall_clock_s": wall_s,
            "sim_ops_per_s": sim_ops / wall_s if wall_s > 0 else 0.0,
        }
    return result


def write_report(name: str, text: str) -> None:
    """Persist a figure's paper-vs-measured report and echo it."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[written to {path}]")


#: Bench-telemetry JSON schema version: the sweep writer's, by import
#: (its version history sits beside ``SWEEP_SCHEMA_VERSION``).
BENCH_SCHEMA_VERSION = SWEEP_SCHEMA_VERSION

#: Required per-run fields and their types, for :func:`validate_bench`.
_BENCH_RUN_FIELDS = {
    "engine": str,
    "duration_s": int,
    "reads_completed": int,
    "writes_applied": int,
    "mean_hit_ratio": float,
    "mean_throughput_qps": float,
    "mean_db_size_mb": float,
    "latency_p50_ms": float,
    "latency_p99_ms": float,
    "stall_seconds": float,
    "event_counts": dict,
    "bandwidth_kb_by_cause": dict,
    "wall_clock_s": float,
    "sim_ops_per_s": float,
}

#: Additional required fields for serve-kind run entries.
_BENCH_SERVE_RUN_FIELDS = {
    "policy": str,
    "arrival": str,
    "offered_read_qps": float,
    "goodput_qps": float,
    "max_queue_depth": int,
    "shed": int,
    "deferred": int,
    "reconciliation_max_error_s": float,
    "classes": dict,
}

#: Additional required fields for cluster-kind run entries.
_BENCH_CLUSTER_RUN_FIELDS = {
    "policy": str,
    "arrival": str,
    "offered_read_qps": float,
    "goodput_qps": float,
    "num_shards": int,
    "partitioner": str,
    "shed": int,
    "deferred": int,
    "read_imbalance": float,
    "hottest_shard": int,
    "shard_read_p99_ms": list,
    "per_shard": dict,
}


def validate_bench(payload: dict) -> None:
    """Assert a ``BENCH_*.json`` payload matches the expected schema.

    Hand-rolled (the toolchain has no jsonschema); raises ``ValueError``
    with the offending path so a drifting writer fails loudly in CI.
    """
    for field, kind in (
        ("schema_version", int),
        ("name", str),
        ("scale", int),
        ("duration_s", int),
        ("seed", int),
        ("runs", dict),
        ("scalars", dict),
    ):
        if not isinstance(payload.get(field), kind):
            raise ValueError(f"bench payload: {field!r} must be {kind.__name__}")
    if payload["schema_version"] != BENCH_SCHEMA_VERSION:
        raise ValueError(
            f"bench payload: schema_version {payload['schema_version']} != "
            f"{BENCH_SCHEMA_VERSION}"
        )
    if not payload["runs"] and not payload["scalars"]:
        raise ValueError("bench payload: no runs and no scalars")
    for label, value in payload["scalars"].items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError(
                f"bench payload: scalars[{label!r}] must be a number"
            )
    speed = payload.get("speed_baseline")
    if speed is not None:
        if not isinstance(speed, dict) or not speed:
            raise ValueError("bench payload: speed_baseline must be a "
                             "non-empty dict when present")
        for label, value in speed.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(
                    f"bench payload: speed_baseline[{label!r}] must be "
                    "a number"
                )
    for label, run in payload["runs"].items():
        if not isinstance(run, dict):
            raise ValueError(f"bench payload: runs[{label!r}] must be a dict")
        required = dict(_BENCH_RUN_FIELDS)
        if run.get("kind") == "serve":
            required.update(_BENCH_SERVE_RUN_FIELDS)
        elif run.get("kind") == "cluster":
            required.update(_BENCH_CLUSTER_RUN_FIELDS)
        for field, kind in required.items():
            value = run.get(field)
            if kind is float and isinstance(value, int):
                value = float(value)
            if not isinstance(value, kind):
                raise ValueError(
                    f"bench payload: runs[{label!r}][{field!r}] must be "
                    f"{kind.__name__}, got {type(run.get(field)).__name__}"
                )
        trace = run.get("trace")
        if trace is not None:
            _validate_trace_block(label, trace)


def _validate_trace_block(label: str, trace: object) -> None:
    """Validate one run entry's optional ``trace`` digest block."""
    if not isinstance(trace, dict):
        raise ValueError(
            f"bench payload: runs[{label!r}]['trace'] must be a dict"
        )
    if trace.get("mode") not in ("exemplar", "full"):
        raise ValueError(
            f"bench payload: runs[{label!r}]['trace']['mode'] must be "
            "'exemplar' or 'full'"
        )
    for field in ("exemplars", "flight_dumps"):
        value = trace.get(field)
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(
                f"bench payload: runs[{label!r}]['trace'][{field!r}] "
                "must be an int"
            )
    for field in ("flight_triggers", "worst_exemplars"):
        if not isinstance(trace.get(field), list):
            raise ValueError(
                f"bench payload: runs[{label!r}]['trace'][{field!r}] "
                "must be a list"
            )
    for index, digest in enumerate(trace["worst_exemplars"]):
        if not isinstance(digest, dict) or "trace_id" not in digest:
            raise ValueError(
                f"bench payload: runs[{label!r}]['trace']"
                f"['worst_exemplars'][{index}] must be an exemplar digest"
            )


def _bench_label(key) -> str:
    """Stringify a run key (sweeps use tuple keys like (engine, mult))."""
    if isinstance(key, tuple):
        return "/".join(str(part) for part in key)
    return str(key)


def write_bench(
    name: str,
    runs: dict | None = None,
    scalars: dict | None = None,
) -> Path:
    """Write one benchmark's telemetry as ``results/BENCH_<name>.json``.

    Each labelled run carries its simulated summary (the figures' QPS and
    hit ratios, via ``RunResult.to_json_dict``) *and* the harness's own
    telemetry — wall-clock seconds and simulated ops per real second —
    so a CI history of these files tracks both reproduction quality and
    simulator performance.  ``scalars`` holds a micro-benchmark's
    non-run numbers (write amplification, buffer sizes).  The payload is
    schema-validated before it is written.
    """
    payload: dict = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "name": name,
        "scale": BENCH_SCALE,
        "duration_s": BENCH_DURATION,
        "seed": BENCH_SEED,
        "runs": {},
        "scalars": {
            _bench_label(k): v for k, v in (scalars or {}).items()
        },
    }
    for label, result in (runs or {}).items():
        entry = result.to_json_dict()
        telemetry = _telemetry.get(
            id(result), {"wall_clock_s": 0.0, "sim_ops_per_s": 0.0}
        )
        entry.update(telemetry)
        payload["runs"][_bench_label(label)] = entry
    validate_bench(payload)
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"[bench telemetry written to {path}]")
    return path


def once(benchmark, func):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, rounds=1, iterations=1)
