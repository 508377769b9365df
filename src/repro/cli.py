"""Command-line interface: run experiments and comparisons from a shell.

Usage (installed or via ``python -m repro.cli``):

    # one engine, paper workload, summary + sparklines
    python -m repro.cli run --engine lsbm --scale 2048 --duration 8000

    # several engines side by side (the Fig. 9 / Fig. 11 view)
    python -m repro.cli compare --engines blsm,leveldb,lsbm --duration 8000

    # seed replication: mean ± std over three seeds, two worker processes
    python -m repro.cli run --engine lsbm --seeds 0,1,2 --jobs 2

    # a parallel grid sweep (engines × seeds × config overrides)
    python -m repro.cli sweep --engines blsm,leveldb,lsbm --seeds 0,1 \\
        --set trim_interval_s=10,30 --jobs 4 --out sweep.json

    # range-query mode, CSV time series out
    python -m repro.cli run --engine lsbm --scan --csv out.csv

    # machine-readable summaries
    python -m repro.cli run --engine lsbm --json
    python -m repro.cli compare --engines blsm,lsbm --json

    # record every engine event as a JSONL trace
    python -m repro.cli trace --engine lsbm --out trace.jsonl

    # open-loop serving: latency vs offered load (the hockey stick)
    python -m repro.cli serve --engines leveldb,lsbm --rate 2000,8000 \\
        --policy fifo,read-priority --json

    # sharded cluster: engines x shard counts x partitioners, fanned
    python -m repro.cli cluster --engines leveldb,lsbm --shards 4 \\
        --partitioner range --rate 8000 --jobs 4 --json

    # end-to-end request tracing: tail exemplars + flight recorder
    python -m repro.cli serve --engines lsbm --rate 8000 \\
        --trace exemplar --trace-dir traces/

    # live per-shard telemetry (and an OpenMetrics snapshot)
    python -m repro.cli top --engine lsbm --shards 2 --plain \\
        --metrics-out metrics.prom

    # render an archived payload (bench, serve, or cluster JSON)
    python -m repro.cli report --from BENCH_cluster.json

    # replay an archived operation trace against an engine
    python -m repro.cli trace replay trace.txt --engine lsbm --json

    # causal profiling report: span traces, per-cause disk bandwidth,
    # event-annotated hit-ratio curve, dip diagnosis
    python -m repro.cli report --engine leveldb --duration 8000

    # differential correctness harness (JSON verdict, exit 0 iff green)
    python -m repro.cli check --seed 0 --ops 20000 --engines all

    # list available engines
    python -m repro.cli engines
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from repro.config import SystemConfig
from repro.errors import ConfigError, ReproError
from repro.sim.experiment import ENGINE_NAMES, execute_with_trace, run_experiment
from repro.sim.metrics import RunResult
from repro.sim.report import (
    ascii_table,
    format_qps,
    mark_line,
    series_block,
    sparkline,
)
from repro.sim.spec import ExperimentSpec
from repro.sim.sweep import expand_grid, run_sweep


def _add_replication(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--seeds",
        help="comma-separated seeds; replicate each run and report "
        "mean ± std instead of a single-seed point",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for replicated runs (default 1)",
    )


def _add_tracing(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        default="off",
        choices=("off", "exemplar", "full"),
        help="end-to-end request tracing: tail-biased exemplars "
        "('exemplar') or every completed request ('full'); default off",
    )
    parser.add_argument(
        "--trace-dir",
        help="write exemplar span trees and flight-recorder dumps as "
        "JSONL files under this directory",
    )
    parser.add_argument(
        "--trace-slo",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="flight-recorder SLO-breach trigger: total request latency "
        "over this many seconds (default 1.0)",
    )
    parser.add_argument(
        "--trace-stall-spike",
        type=float,
        default=0.25,
        metavar="SECONDS",
        help="flight-recorder stall-spike trigger: one engine stall "
        "over this many seconds (default 0.25)",
    )
    parser.add_argument(
        "--trace-dip",
        type=float,
        default=0.7,
        metavar="RATIO",
        help="flight-recorder hit-ratio-dip trigger threshold, same "
        "family as repro diagnose (default 0.7)",
    )


def _add_control(parser: argparse.ArgumentParser) -> None:
    from repro.control import CONTROLLER_NAMES

    parser.add_argument(
        "--controller",
        default="off",
        choices=CONTROLLER_NAMES,
        help="runtime feedback controller: 'static' (inert anchor), "
        "'rules' (banded hysteresis) or 'gradient' (hill-climb); "
        "default off",
    )
    parser.add_argument(
        "--control-interval",
        type=int,
        default=30,
        metavar="SECONDS",
        help="virtual seconds between control ticks (default 30)",
    )


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        type=int,
        default=2048,
        help="linear size scale vs the paper's setup (default 2048)",
    )
    parser.add_argument(
        "--duration",
        type=int,
        default=8000,
        help="virtual seconds to run (paper: 20000)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--scan",
        action="store_true",
        help="drive range queries instead of point reads",
    )


def _summary_row(name: str, result: RunResult) -> list[str]:
    return [
        name,
        f"{result.mean_hit_ratio():.3f}",
        format_qps(result.mean_throughput()),
        f"{result.mean_db_size_mb():,.0f}",
        f"{result.latency_percentile_s(50) * 1000:.2f}",
        f"{result.latency_percentile_s(99) * 1000:.2f}",
    ]


_HEADERS = ["engine", "hit", "QPS", "DB MB", "p50 ms", "p99 ms"]

#: Headers for seed-replicated summaries (``--seeds``).
_REPLICA_HEADERS = [
    "engine", "n", "hit mean±std", "QPS mean±std", "p99 ms mean"
]


def _parse_seeds(text: str) -> list[int]:
    seeds = [int(part) for part in text.split(",") if part.strip()]
    if not seeds:
        raise ValueError(f"no seeds in {text!r}")
    return seeds


def _replicate(names: list[str], seeds: list[int], args: argparse.Namespace):
    """Run every engine once per seed (via the sweep runner).

    Returns the sweep outcome plus one cell summary per engine, in the
    order of ``names``.
    """
    specs = expand_grid(
        names,
        seeds=seeds,
        scale=args.scale,
        duration_s=args.duration,
        scan_mode=args.scan,
    )
    outcome = run_sweep(specs, jobs=args.jobs)
    by_engine = {cell.engine: cell for cell in outcome.cells()}
    return outcome, [by_engine[name] for name in names]


def _replica_row(name: str, cell) -> list[str]:
    hit = cell.stats["hit_ratio"]
    qps = cell.stats["throughput_qps"]
    p99 = cell.stats["latency_p99_ms"]
    return [
        name,
        str(cell.replicas),
        f"{hit['mean']:.3f} ± {hit['std']:.3f}",
        f"{qps['mean']:,.0f} ± {qps['std']:,.0f}",
        f"{p99['mean']:.2f}",
    ]


def _replica_json(outcome, cell) -> dict:
    replicas = [
        dict(o.result.to_json_dict(), seed=o.spec.seed, wall_clock_s=o.wall_clock_s)
        for o in outcome.outcomes
        if o.spec.engine == cell.engine
    ]
    return dict(cell.to_json_dict(), replicas=replicas)


def cmd_engines(args: argparse.Namespace) -> int:
    from repro.sim.experiment import ENGINE_SPECS

    if getattr(args, "json", False):
        entries = [
            {
                "name": spec.name,
                "wiring": spec.wiring,
                "summary": spec.summary,
                "axes": spec.axes.to_dict() if spec.axes else None,
            }
            for spec in ENGINE_SPECS.values()
        ]
        print(json.dumps(entries, indent=2, sort_keys=True))
        return 0
    rows = [
        [
            spec.name,
            spec.axes.describe() if spec.axes else "from config",
            spec.wiring,
            spec.summary,
        ]
        for spec in ENGINE_SPECS.values()
    ]
    print(ascii_table(["engine", "design point", "wiring", "summary"], rows))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    mode = "range queries" if args.scan else "point reads"
    if args.seeds is not None:
        if args.csv:
            print("--csv is per-run; use it with --seed, not --seeds",
                  file=sys.stderr)
            return 2
        if args.profile:
            print("--profile is per-run; use it with --seed, not --seeds",
                  file=sys.stderr)
            return 2
        try:
            seeds = _parse_seeds(args.seeds)
        except ValueError as error:
            print(f"run: {error}", file=sys.stderr)
            return 2
        print(
            f"running {args.engine} at 1/{args.scale} scale for "
            f"{args.duration} virtual seconds ({mode}), "
            f"seeds {args.seeds}, jobs={args.jobs}",
            file=sys.stderr,
        )
        outcome, (cell,) = _replicate([args.engine], seeds, args)
        if args.json:
            print(json.dumps(_replica_json(outcome, cell), indent=2,
                             sort_keys=True))
        else:
            print(ascii_table(
                _REPLICA_HEADERS, [_replica_row(args.engine, cell)]
            ))
        return 0
    config = SystemConfig.paper_scaled(args.scale)
    print(
        f"running {args.engine} at 1/{args.scale} scale for "
        f"{args.duration} virtual seconds ({mode})",
        file=sys.stderr,
    )
    if args.profile:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        result = run_experiment(
            args.engine,
            config,
            duration_s=args.duration,
            seed=args.seed,
            scan_mode=args.scan,
        )
        profiler.disable()
        out = Path(
            args.profile_out
            or f"results/profile_{args.engine.replace('+', '_')}.pstats"
        )
        out.parent.mkdir(parents=True, exist_ok=True)
        profiler.dump_stats(out)
        stats = pstats.Stats(profiler, stream=sys.stderr)
        stats.sort_stats("cumulative").print_stats(args.profile_top)
        print(
            f"[cProfile dump written to {out}; inspect with "
            f"`python -m pstats {out}` or snakeviz]",
            file=sys.stderr,
        )
    else:
        result = run_experiment(
            args.engine,
            config,
            duration_s=args.duration,
            seed=args.seed,
            scan_mode=args.scan,
        )
    if args.json:
        print(json.dumps(result.to_json_dict(), indent=2, sort_keys=True))
    else:
        print(ascii_table(_HEADERS, [_summary_row(args.engine, result)]))
        print()
        print(series_block("hit ratio", result.hit_ratio))
        print(series_block("throughput (QPS)", result.throughput_qps))
        print(series_block("DB size (MB)", result.db_size_mb))
    if args.csv:
        Path(args.csv).write_text("\n".join(result.to_csv_rows()) + "\n")
        print(f"\ntime series written to {args.csv}", file=sys.stderr)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    names = [name.strip() for name in args.engines.split(",") if name.strip()]
    unknown = [name for name in names if name not in ENGINE_NAMES]
    if unknown:
        print(f"unknown engines: {unknown}; see `engines`", file=sys.stderr)
        return 2
    if args.seeds is not None:
        try:
            seeds = _parse_seeds(args.seeds)
        except ValueError as error:
            print(f"compare: {error}", file=sys.stderr)
            return 2
        print(
            f"comparing {','.join(names)} over seeds {args.seeds}, "
            f"jobs={args.jobs} ...",
            file=sys.stderr,
        )
        outcome, cells = _replicate(names, seeds, args)
        if args.json:
            print(json.dumps(
                [_replica_json(outcome, cell) for cell in cells],
                indent=2, sort_keys=True,
            ))
        else:
            print(ascii_table(
                _REPLICA_HEADERS,
                [_replica_row(name, cell)
                 for name, cell in zip(names, cells)],
            ))
        return 0
    config = SystemConfig.paper_scaled(args.scale)
    rows = []
    summaries = []
    for name in names:
        print(f"running {name} ...", file=sys.stderr)
        result = run_experiment(
            name,
            config,
            duration_s=args.duration,
            seed=args.seed,
            scan_mode=args.scan,
        )
        rows.append(_summary_row(name, result))
        summaries.append(result.to_json_dict())
    if args.json:
        print(json.dumps(summaries, indent=2, sort_keys=True))
    else:
        print(ascii_table(_HEADERS, rows))
    return 0


#: Parsers for ``--set field=v1,v2`` values, keyed by the annotated type
#: of the SystemConfig field (annotations are strings under
#: ``from __future__ import annotations``).
_AXIS_PARSERS = {
    "int": int,
    "float": float,
    "bool": lambda text: text.lower() in ("1", "true", "yes", "on"),
    "str": str,
}

_CONFIG_FIELD_TYPES = {
    field.name: str(field.type) for field in dataclasses.fields(SystemConfig)
}


def _parse_axis(setting: str) -> tuple[str, list[object]]:
    """Parse one ``--set field=v1,v2`` grid axis, typed per the config."""
    key, separator, raw = setting.partition("=")
    key = key.strip()
    if not separator or not raw.strip():
        raise ConfigError(f"--set expects field=v1,v2..., got {setting!r}")
    field_type = _CONFIG_FIELD_TYPES.get(key)
    if field_type is None:
        raise ConfigError(
            f"unknown SystemConfig field {key!r} in --set {setting!r}"
        )
    parse = _AXIS_PARSERS.get(field_type, str)
    return key, [parse(part.strip()) for part in raw.split(",") if part.strip()]


def cmd_sweep(args: argparse.Namespace) -> int:
    """Declarative grid sweep over engines × seeds × config overrides."""
    names = [name.strip() for name in args.engines.split(",") if name.strip()]
    unknown = [name for name in names if name not in ENGINE_NAMES]
    if unknown:
        print(f"unknown engines: {unknown}; see `engines`", file=sys.stderr)
        return 2
    try:
        seeds = _parse_seeds(args.seeds)
        axes = dict(_parse_axis(setting) for setting in args.set or [])
        specs = expand_grid(
            names,
            seeds=seeds,
            scale=args.scale,
            duration_s=args.duration,
            scan_mode=args.scan,
            axes=axes,
        )
    except (ConfigError, ValueError) as error:
        print(f"sweep: {error}", file=sys.stderr)
        return 2
    print(
        f"sweep: {len(specs)} runs "
        f"({len(names)} engines × {len(seeds)} seeds"
        + "".join(f" × {len(vals)} {key}" for key, vals in axes.items())
        + f") with jobs={args.jobs}",
        file=sys.stderr,
    )
    outcome = run_sweep(specs, jobs=args.jobs)
    payload = outcome.to_payload(args.name)
    if args.out:
        path = outcome.write_payload(args.out, args.name)
        print(f"sweep payload written to {path}", file=sys.stderr)
    if args.out_dir:
        outcome.write_payload(
            Path(args.out_dir) / f"BENCH_{args.name}.json", args.name
        )
        paths = outcome.write_runs(args.out_dir)
        print(
            f"{len(paths)} full per-run results written to {args.out_dir}",
            file=sys.stderr,
        )
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    rows = [
        [
            cell.key,
            str(cell.replicas),
            f"{cell.stats['hit_ratio']['mean']:.3f} ± "
            f"{cell.stats['hit_ratio']['std']:.3f}",
            f"{cell.stats['throughput_qps']['mean']:,.0f} ± "
            f"{cell.stats['throughput_qps']['std']:,.0f}",
            f"{cell.stats['latency_p99_ms']['mean']:.2f}",
        ]
        for cell in outcome.cells()
    ]
    print(ascii_table(
        ["cell", "n", "hit mean±std", "QPS mean±std", "p99 ms"], rows
    ))
    print(
        f"\n{len(outcome.outcomes)} runs in {outcome.wall_clock_s:.1f}s "
        f"with jobs={outcome.jobs} "
        f"(serial estimate {outcome.serial_estimate_s:.1f}s, "
        f"speedup {outcome.speedup:.2f}x)"
    )
    return 0


def cmd_tune(args: argparse.Namespace) -> int:
    """Search the compaction design space for an SLO objective."""
    from repro.sim.tune import OBJECTIVES, run_tune

    names = [name.strip() for name in args.engines.split(",") if name.strip()]
    unknown = [name for name in names if name not in ENGINE_NAMES]
    if unknown:
        print(f"unknown engines: {unknown}; see `engines`", file=sys.stderr)
        return 2
    try:
        seeds = _parse_seeds(args.seeds)
        axes = dict(_parse_axis(setting) for setting in args.set or [])
    except (ConfigError, ValueError) as error:
        print(f"tune: {error}", file=sys.stderr)
        return 2
    cells = len(names)
    for values in axes.values():
        cells *= len(values)
    print(
        f"tune: objective={args.objective}, {cells} candidates × "
        f"{len(seeds)} seeds with jobs={args.jobs}",
        file=sys.stderr,
    )
    try:
        outcome = run_tune(
            names,
            seeds,
            args.objective,
            axes=axes,
            scale=args.scale,
            duration_s=args.duration,
            jobs=args.jobs,
            rate_qps=args.rate,
            policy=args.policy,
        )
    except ConfigError as error:
        print(f"tune: {error}", file=sys.stderr)
        return 2
    payload = outcome.to_payload(args.name)
    if args.out:
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"tune payload written to {path}", file=sys.stderr)
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    direction, description = OBJECTIVES[args.objective]
    rows = [
        [
            str(rank + 1),
            candidate.key,
            f"{candidate.score:.4g}",
            f"{candidate.evidence['hit_floor']:.3f}",
            f"{candidate.evidence['hit_dips']:.1f}",
            f"{candidate.evidence['stall_seconds']:.1f}",
            f"{candidate.stats['latency_p99_ms']['mean']:.2f}",
        ]
        for rank, candidate in enumerate(outcome.candidates)
    ]
    print(f"objective: {args.objective} ({direction}) — {description}")
    print(ascii_table(
        ["rank", "candidate", "score", "hit floor", "dips",
         "stall s", "p99 ms"],
        rows,
    ))
    explanation = outcome.explanation()
    print(f"\nwinner: {outcome.winner.key}")
    print(explanation["summary"])
    deltas = explanation.get("deltas", {})
    if deltas:
        print(ascii_table(
            ["evidence", "winner", "runner-up", "advantage"],
            [
                [
                    name,
                    f"{entry['winner']:.4g}",
                    f"{entry['runner_up']:.4g}",
                    f"{entry['advantage']:+.4g}",
                ]
                for name, entry in deltas.items()
            ],
        ))
    sweep = outcome.sweep
    print(
        f"\n{len(sweep.outcomes)} runs in {sweep.wall_clock_s:.1f}s "
        f"with jobs={sweep.jobs} "
        f"(serial estimate {sweep.serial_estimate_s:.1f}s, "
        f"speedup {sweep.speedup:.2f}x)"
    )
    return 0


#: Headers for the worst-exemplar digest table (tracing runs).
_EXEMPLAR_HEADERS = [
    "trace id", "shard", "class", "op", "sampled", "total ms",
    "queue ms", "service ms", "top stage", "stage ms",
]


def _exemplar_rows(digests: list[dict]) -> list[list[str]]:
    """Table rows from ``exemplar_summary`` digests (``.get``-tolerant)."""
    return [
        [
            str(digest.get("trace_id", "?")),
            "-" if digest.get("shard") is None else str(digest["shard"]),
            str(digest.get("klass", "?")),
            str(digest.get("op", "?")),
            str(digest.get("sampled", "?")),
            f"{digest.get('total_ms', 0.0):.3f}",
            f"{digest.get('queue_ms', 0.0):.3f}",
            f"{digest.get('service_ms', 0.0):.3f}",
            str(digest.get("top_stage", "?")),
            f"{digest.get('top_stage_ms', 0.0):.3f}",
        ]
        for digest in digests
    ]


#: Headers for the serve latency-vs-offered-load table.
_SERVE_HEADERS = [
    "run", "class", "offered", "goodput", "p50 ms", "p99 ms", "p99.9 ms",
    "queue p99 ms", "shed", "deferred",
]


def _serve_rows(outcome) -> list[list[str]]:
    """One row per run × client class from a serve sweep outcome."""
    rows = []
    for spec_outcome in outcome.outcomes:
        result = spec_outcome.result
        for name, stats in sorted(result.class_stats.items()):
            rows.append(
                [
                    spec_outcome.spec.label(),
                    name,
                    format_qps(result.offered_read_qps)
                    if stats.op != "write"
                    else "-",
                    format_qps(
                        stats.completed * result.ops_scale / result.duration_s
                    ),
                    f"{stats.latency_s.percentile(50) * 1000:.2f}",
                    f"{stats.latency_s.percentile(99) * 1000:.2f}",
                    f"{stats.latency_s.percentile(99.9) * 1000:.2f}",
                    f"{stats.queue_delay_s.percentile(99) * 1000:.2f}",
                    str(stats.shed),
                    str(stats.deferred),
                ]
            )
    return rows


def cmd_serve(args: argparse.Namespace) -> int:
    """Open-loop serving grid: engines × offered rates × policies."""
    from repro.serve.scheduler import SCHEDULER_NAMES
    from repro.serve.spec import expand_serve_grid

    names = [name.strip() for name in args.engines.split(",") if name.strip()]
    unknown = [name for name in names if name not in ENGINE_NAMES]
    if unknown:
        print(f"unknown engines: {unknown}; see `engines`", file=sys.stderr)
        return 2
    policies = [p.strip() for p in args.policy.split(",") if p.strip()]
    bad = [p for p in policies if p not in SCHEDULER_NAMES]
    if bad:
        print(
            f"unknown policies: {bad}; choose from {SCHEDULER_NAMES}",
            file=sys.stderr,
        )
        return 2
    try:
        rates = [float(r) for r in args.rate.split(",") if r.strip()]
        seeds = _parse_seeds(args.seeds)
        specs = expand_serve_grid(
            names,
            rates,
            policies,
            seeds,
            arrival=args.arrival,
            scale=args.scale,
            duration_s=args.duration,
            queue_bound=args.queue_bound,
            trace=args.trace,
            trace_dir=args.trace_dir,
            trace_slo_s=args.trace_slo,
            trace_stall_spike_s=args.trace_stall_spike,
            trace_dip_threshold=args.trace_dip,
            controller=args.controller,
            control_interval_s=args.control_interval,
        )
    except (ConfigError, ValueError) as error:
        print(f"serve: {error}", file=sys.stderr)
        return 2
    print(
        f"serve: {len(specs)} runs ({len(names)} engines × {len(rates)} "
        f"rates × {len(policies)} policies × {len(seeds)} seeds), "
        f"{args.arrival} arrivals, queue bound {args.queue_bound}, "
        f"jobs={args.jobs}",
        file=sys.stderr,
    )
    outcome = run_sweep(specs, jobs=args.jobs)
    payload = outcome.to_payload(args.name)
    if args.out:
        path = outcome.write_payload(args.out, args.name)
        print(f"serve payload written to {path}", file=sys.stderr)
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(ascii_table(_SERVE_HEADERS, _serve_rows(outcome)))
    for spec_outcome in outcome.outcomes:
        result = spec_outcome.result
        if result.trace_mode == "off" or not result.exemplars:
            continue
        print(
            f"\nworst exemplars — {spec_outcome.spec.label()} "
            f"({len(result.exemplars)} kept, "
            f"{len(result.flight_dumps)} flight dumps)"
        )
        print(ascii_table(
            _EXEMPLAR_HEADERS, _exemplar_rows(result.worst_exemplars(5))
        ))
    print(
        f"\n{len(outcome.outcomes)} runs in {outcome.wall_clock_s:.1f}s "
        f"with jobs={outcome.jobs} "
        f"(serial estimate {outcome.serial_estimate_s:.1f}s, "
        f"speedup {outcome.speedup:.2f}x)"
    )
    return 0


#: Headers for the cluster summary table (one row per cluster cell).
_CLUSTER_HEADERS = [
    "cluster", "shards", "goodput", "p50 ms", "p99 ms", "imbalance",
    "hottest", "shed", "deferred",
]

#: Headers for the per-shard detail table.
_SHARD_HEADERS = [
    "cluster", "shard", "reads", "writes", "goodput", "p99 ms", "hit",
    "stall s", "shed",
]


def cmd_cluster(args: argparse.Namespace) -> int:
    """Sharded cluster grid: engines × shard counts × partitioners."""
    from repro.cluster import (
        PARTITIONERS,
        cluster_payload,
        expand_cluster_grid,
        run_cluster_grid,
    )
    from repro.serve.scheduler import SCHEDULER_NAMES

    names = [name.strip() for name in args.engines.split(",") if name.strip()]
    unknown = [name for name in names if name not in ENGINE_NAMES]
    if unknown:
        print(f"unknown engines: {unknown}; see `engines`", file=sys.stderr)
        return 2
    if args.policy not in SCHEDULER_NAMES:
        print(
            f"unknown policy {args.policy!r}; choose from {SCHEDULER_NAMES}",
            file=sys.stderr,
        )
        return 2
    partitioners = [p.strip() for p in args.partitioner.split(",") if p.strip()]
    bad = [p for p in partitioners if p not in PARTITIONERS]
    if bad:
        print(
            f"unknown partitioners: {bad}; choose from {PARTITIONERS}",
            file=sys.stderr,
        )
        return 2
    try:
        shard_counts = [int(s) for s in args.shards.split(",") if s.strip()]
        rates = [float(r) for r in args.rate.split(",") if r.strip()]
        seeds = _parse_seeds(args.seeds)
        common: dict[str, object] = {
            "scale": args.scale,
            "duration_s": args.duration,
            "policy": args.policy,
            "arrival": args.arrival,
            "queue_bound": args.queue_bound,
            "verify": args.verify,
            "trace": args.trace,
            "trace_dir": args.trace_dir,
            "trace_slo_s": args.trace_slo,
            "trace_stall_spike_s": args.trace_stall_spike,
            "trace_dip_threshold": args.trace_dip,
            "controller": args.controller,
            "control_interval_s": args.control_interval,
        }
        if args.write_rate is not None:
            common["write_rate_qps"] = args.write_rate
        if args.split_at is not None:
            common.update(
                split_at_s=args.split_at,
                split_source=args.split_source,
                split_target=args.split_target,
                split_fraction=args.split_fraction,
            )
        specs = expand_cluster_grid(
            names, shard_counts, partitioners, rates, seeds, **common
        )
    except (ConfigError, ValueError) as error:
        print(f"cluster: {error}", file=sys.stderr)
        return 2
    print(
        f"cluster: {len(specs)} cells ({len(names)} engines × "
        f"{len(shard_counts)} shard counts × {len(partitioners)} "
        f"partitioners × {len(rates)} rates × {len(seeds)} seeds), "
        f"jobs={args.jobs}",
        file=sys.stderr,
    )
    try:
        entries = run_cluster_grid(specs, jobs=args.jobs)
    except ConfigError as error:
        print(f"cluster: {error}", file=sys.stderr)
        return 2
    payload = cluster_payload(args.name, entries)
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"cluster payload written to {out}", file=sys.stderr)
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    summary_rows = []
    shard_rows = []
    for spec, result, _wall in entries:
        summary_rows.append(
            [
                spec.label(),
                str(result.num_shards),
                format_qps(result.goodput_qps()),
                f"{result.read_percentile_ms(50):.2f}",
                f"{result.read_percentile_ms(99):.2f}",
                f"{result.read_imbalance():.2f}x",
                str(result.hottest_shard()),
                str(result.total_shed),
                str(result.total_deferred),
            ]
        )
        for index, summary in result.per_shard_summary().items():
            shard_rows.append(
                [
                    spec.label(),
                    index,
                    str(summary["reads_completed"]),
                    str(summary["writes_applied"]),
                    format_qps(summary["goodput_qps"]),
                    f"{summary['latency_p99_ms']:.2f}",
                    f"{summary['mean_hit_ratio']:.3f}",
                    f"{summary['stall_seconds']:.1f}",
                    str(summary["shed"]),
                ]
            )
        if result.migration is not None:
            m = result.migration
            print(
                f"{spec.label()}: migrated [{m.low}, {m.high}) "
                f"({m.entries} entries, {m.drained_requests} queued, "
                f"{m.moved_retries} retries) shard {m.source} -> "
                f"{m.target} at t={m.at_s}s",
                file=sys.stderr,
            )
        if result.verify is not None:
            print(
                f"{spec.label()}: oracle checked "
                f"{result.verify['reads_checked']} reads, "
                f"{result.verify['read_mismatches']} mismatches",
                file=sys.stderr,
            )
    print(ascii_table(_CLUSTER_HEADERS, summary_rows))
    print()
    print(ascii_table(_SHARD_HEADERS, shard_rows))
    for spec, result, _wall in entries:
        if all(shard.trace_mode == "off" for shard in result.shards):
            continue
        worst = result.worst_exemplars(5)
        if not worst:
            continue
        kept = sum(len(shard.exemplars) for shard in result.shards)
        dumps = sum(len(shard.flight_dumps) for shard in result.shards)
        print(
            f"\nworst exemplars — {spec.label()} "
            f"({kept} kept, {dumps} flight dumps)"
        )
        print(ascii_table(_EXEMPLAR_HEADERS, _exemplar_rows(worst)))
    total_wall = sum(wall for _, _, wall in entries)
    print(f"\n{len(entries)} cluster cells in {total_wall:.1f}s")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    if getattr(args, "trace_command", None) == "replay":
        return cmd_trace_replay(args)
    if args.engine is None:
        print("trace: --engine is required", file=sys.stderr)
        return 2
    config = SystemConfig.paper_scaled(args.scale)
    print(
        f"tracing {args.engine} at 1/{args.scale} scale for "
        f"{args.duration} virtual seconds -> {args.out}",
        file=sys.stderr,
    )
    result = run_experiment(
        args.engine,
        config,
        duration_s=args.duration,
        seed=args.seed,
        scan_mode=args.scan,
        trace_path=args.out,
    )
    for name in sorted(result.event_counts):
        print(f"{name}: {result.event_counts[name]}", file=sys.stderr)
    print(f"trace written to {args.out}", file=sys.stderr)
    return 0


def cmd_trace_replay(args: argparse.Namespace) -> int:
    """Replay an archived operation trace against one engine."""
    from repro.errors import WorkloadError
    from repro.sim.experiment import build_engine, preload
    from repro.workload.trace import load_trace, replay_trace

    try:
        ops = load_trace(args.file)
    except OSError as error:
        print(f"trace replay: {error}", file=sys.stderr)
        return 2
    except WorkloadError as error:
        print(f"trace replay: {error}", file=sys.stderr)
        return 2
    config = SystemConfig.paper_scaled(args.scale)
    setup = build_engine(args.engine, config)
    if args.preload:
        preload(setup)
    print(
        f"replaying {len(ops)} trace ops against {args.engine} "
        f"at 1/{args.scale} scale",
        file=sys.stderr,
    )
    result = replay_trace(setup.engine, setup.clock, ops)
    summary = dataclasses.asdict(result)
    summary["engine"] = args.engine
    summary["ops"] = len(ops)
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    rows = [
        [field, str(getattr(result, field))]
        for field in (
            "puts", "gets", "deletes", "scans", "ticks",
            "found", "pairs_scanned",
        )
    ]
    print(ascii_table(["counter", "value"], rows))
    return 0


def _span_summaries(records: list[dict]) -> tuple[dict, dict]:
    """A trace's sampled ReadSpan records as two digests (``{"count": 0}``
    without spans): mean time per stage, under the names the spans carry
    in first-seen order, with the mean total; and the queueing delay vs
    service time split of :func:`repro.obs.tracing.span_queueing_split`.
    """
    from repro.obs.tracing import span_queueing_split

    spans = [r for r in records if r.get("event") == "ReadSpan"]
    count = len(spans)
    if not count:
        return {"count": 0}, {"count": 0}
    sums: dict[str, float] = {}
    for span in spans:
        for stage in span["stages"]:
            name = stage["stage"]
            sums[name] = sums.get(name, 0.0) + stage["duration_s"]
    total = sum(span["total_s"] for span in spans)
    stages = {
        "count": count,
        "mean_stage_s": {name: value / count for name, value in sums.items()},
        "mean_total_s": total / count,
    }
    queueing, service = zip(*(span_queueing_split(span) for span in spans))
    return stages, {
        "count": count,
        "mean_queueing_s": sum(queueing) / count,
        "mean_service_s": sum(service) / count,
        "max_queueing_s": max(queueing),
        "max_service_s": max(service),
        "queueing_share": sum(queueing) / (total or 1.0),
        "spans_queued": sum(1 for q in queueing if q > 0),
    }


def _render_trace_section(trace: dict) -> None:
    """Print a payload's ``trace`` digest (mode, dumps, worst requests)."""
    triggers = trace.get("flight_triggers") or []
    print(
        f"trace: mode={trace.get('mode', '?')} "
        f"exemplars={trace.get('exemplars', 0)} "
        f"flight_dumps={trace.get('flight_dumps', 0)} "
        f"triggers={','.join(str(t) for t in triggers) or '-'}"
    )
    worst = trace.get("worst_exemplars")
    if isinstance(worst, list) and worst:
        print(ascii_table(_EXEMPLAR_HEADERS, _exemplar_rows(worst)))


def _render_cluster_entry(label: str, entry: dict) -> None:
    """Cluster bench entry as summary + per-shard tables (``.get``-based)."""
    print(ascii_table(
        ["cluster", "shards", "goodput", "p50 ms", "p99 ms",
         "imbalance", "shed", "deferred"],
        [[
            label,
            str(entry.get("num_shards", "?")),
            format_qps(float(entry.get("goodput_qps", 0.0))),
            f"{entry.get('latency_p50_ms', 0.0):.2f}",
            f"{entry.get('latency_p99_ms', 0.0):.2f}",
            f"{entry.get('read_imbalance', 1.0):.2f}x",
            str(entry.get("shed", 0)),
            str(entry.get("deferred", 0)),
        ]],
    ))
    per_shard = entry.get("per_shard")
    if isinstance(per_shard, dict) and per_shard:
        rows = []
        for index in sorted(
            per_shard, key=lambda s: int(s) if str(s).isdigit() else -1
        ):
            shard = per_shard[index]
            if not isinstance(shard, dict):
                continue
            rows.append([
                str(index),
                str(shard.get("reads_completed", 0)),
                str(shard.get("writes_applied", 0)),
                format_qps(float(shard.get("goodput_qps", 0.0))),
                f"{shard.get('latency_p99_ms', 0.0):.2f}",
                f"{shard.get('mean_hit_ratio', 0.0):.3f}",
                f"{shard.get('stall_seconds', 0.0):.1f}",
                str(shard.get("shed", 0)),
            ])
        print(ascii_table(
            ["shard", "reads", "writes", "goodput", "p99 ms", "hit",
             "stall s", "shed"],
            rows,
        ))
    migration = entry.get("migration")
    if isinstance(migration, dict):
        print(
            f"migration: [{migration.get('low')}, {migration.get('high')}) "
            f"shard {migration.get('source')} -> {migration.get('target')} "
            f"at t={migration.get('at_s')}s "
            f"({migration.get('entries')} entries)"
        )
    verify = entry.get("verify")
    if isinstance(verify, dict):
        print(
            f"oracle: {verify.get('reads_checked', 0)} reads checked, "
            f"{verify.get('read_mismatches', 0)} mismatches"
        )


def _render_generic_entry(label: str, entry: dict) -> None:
    """Any run/serve bench entry as a one-row summary (``.get``-based)."""
    print(ascii_table(
        ["run", "kind", "reads", "writes", "hit", "p50 ms", "p99 ms"],
        [[
            label,
            str(entry.get("kind", "run")),
            str(entry.get("reads_completed", 0)),
            str(entry.get("writes_applied", 0)),
            f"{entry.get('mean_hit_ratio', 0.0):.3f}",
            f"{entry.get('latency_p50_ms', 0.0):.2f}",
            f"{entry.get('latency_p99_ms', 0.0):.2f}",
        ]],
    ))


def _render_run_entry(label: str, entry: dict) -> None:
    if entry.get("kind") == "cluster":
        _render_cluster_entry(label, entry)
    else:
        _render_generic_entry(label, entry)
    trace = entry.get("trace")
    if isinstance(trace, dict):
        _render_trace_section(trace)


def _report_digest(payload: dict) -> dict:
    """Compact machine-readable digest of a loaded payload (``--json``)."""
    runs = payload.get("runs")
    if isinstance(runs, dict):
        return {
            "name": payload.get("name"),
            "runs": {
                label: {
                    "kind": entry.get("kind", "run"),
                    "reads_completed": entry.get("reads_completed"),
                    "latency_p99_ms": entry.get("latency_p99_ms"),
                    "trace": entry.get("trace"),
                }
                for label, entry in runs.items()
                if isinstance(entry, dict)
            },
        }
    shards = payload.get("shards")
    return {
        "kind": payload.get("kind", "run"),
        "reads_completed": payload.get("reads_completed"),
        "num_shards": len(shards) if isinstance(shards, list) else None,
    }


def _report_from_file(args: argparse.Namespace) -> int:
    """``repro report --from FILE``: render an archived payload.

    Accepts any of the repo's JSON artifact shapes and degrades
    gracefully: a bench payload (``"runs"`` dict, each entry rendered
    by its ``kind`` — cluster entries get per-shard tables), a lossless
    ``"kind": "cluster"`` ClusterResult dict, or a lossless
    ``"kind": "serve"`` ServeResult dict.
    """
    from repro.cluster.result import ClusterResult
    from repro.serve.result import ServeResult

    try:
        payload = json.loads(Path(args.from_file).read_text())
    except (OSError, ValueError) as error:
        print(f"report: cannot load {args.from_file}: {error}",
              file=sys.stderr)
        return 2
    if not isinstance(payload, dict):
        print(f"report: {args.from_file} is not a JSON object",
              file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(_report_digest(payload), indent=2, sort_keys=True))
        return 0
    runs = payload.get("runs")
    if isinstance(runs, dict):
        print(
            f"payload {payload.get('name', '?')!r}: {len(runs)} runs "
            f"(schema v{payload.get('schema_version', '?')})"
        )
        for label in sorted(runs):
            entry = runs[label]
            if not isinstance(entry, dict):
                continue
            print()
            _render_run_entry(label, entry)
        return 0
    kind = payload.get("kind")
    loader = None
    if kind == "cluster" and "spec" in payload and "shards" in payload:
        loader = ClusterResult
    elif kind == "serve":
        loader = ServeResult
    if loader is not None:
        try:
            result = loader.from_dict(payload)
        except ReproError as error:
            print(f"report: cannot load {args.from_file}: {error}",
                  file=sys.stderr)
            return 2
        if loader is ClusterResult:
            label = result.spec.label()
        else:
            label = f"{result.policy}@{result.offered_read_qps:g}qps"
        _render_run_entry(label, result.to_json_dict())
        return 0
    if "reads_completed" in payload:
        _render_run_entry(args.from_file, payload)
        return 0
    # Unrecognized kinds (a newer schema, a foreign tool's dump — e.g.
    # a ``"kind": "control"`` decision log) still render their digest
    # and any bench metadata instead of erroring, so re-rendering never
    # breaks on payloads this build doesn't know how to pretty-print.
    print(
        f"payload {payload.get('name', args.from_file)!r}: "
        f"unrecognized kind {kind!r}; showing digest"
    )
    for key in ("name", "schema_version", "generated_by", "bench"):
        if key in payload:
            print(f"  {key}: {payload[key]}")
    digest = _report_digest(payload)
    for key, value in sorted(digest.items()):
        if value is not None:
            print(f"  {key}: {value}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Profiled run: spans + per-cause bandwidth + dip diagnosis."""
    from repro.obs.diagnose import diagnose_dips, format_dip_report

    if args.from_file:
        return _report_from_file(args)
    if args.engine is None:
        print("report: --engine or --from FILE is required", file=sys.stderr)
        return 2
    try:
        spec = ExperimentSpec(
            args.engine,
            scale=args.scale,
            duration_s=args.duration,
            seed=args.seed,
            scan_mode=args.scan,
            profile=True,
            sample_every=args.sample_every,
            trace_path=args.trace_out,
        )
    except ConfigError as error:
        print(f"report: {error}", file=sys.stderr)
        return 2
    print(
        f"profiling {args.engine} at 1/{args.scale} scale for "
        f"{args.duration} virtual seconds "
        f"(one span per {args.sample_every} reads)",
        file=sys.stderr,
    )
    result, recorder = execute_with_trace(spec)
    diagnosis = diagnose_dips(
        result.hit_ratio, recorder.records, threshold=args.dip_threshold
    )
    spans, queueing = _span_summaries(recorder.records)

    if args.json:
        payload = result.to_json_dict()
        payload["dip_diagnosis"] = diagnosis.to_json_dict()
        payload["span_summary"] = spans
        payload["queueing_decomposition"] = queueing
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0

    print(ascii_table(_HEADERS, [_summary_row(args.engine, result)]))
    print()
    print(f"hit ratio (^ marks a dip below {args.dip_threshold:g})")
    print("  " + sparkline(result.hit_ratio))
    marks = [d.dip.time for d in diagnosis.diagnoses]
    if marks:
        print("  " + mark_line(result.hit_ratio, marks))
    print(format_dip_report(diagnosis))
    print()
    print("disk bandwidth by cause")
    totals = result.bandwidth_kb_by_cause
    grand = sum(t["read_kb"] + t["write_kb"] for t in totals.values()) or 1.0
    rows = [
        [
            cause,
            f"{t['read_kb']:,.0f}",
            f"{t['write_kb']:,.0f}",
            f"{(t['read_kb'] + t['write_kb']) / grand:.1%}",
        ]
        for cause, t in sorted(
            totals.items(),
            key=lambda item: -(item[1]["read_kb"] + item[1]["write_kb"]),
        )
    ]
    print(ascii_table(["cause", "read KB", "write KB", "share"], rows))
    print()
    if spans["count"]:
        print(f"read-path spans ({spans['count']} sampled)")
        stage_rows = [
            [name, f"{seconds * 1000:.3f}"]
            for name, seconds in spans["mean_stage_s"].items()
        ]
        stage_rows.append(["total", f"{spans['mean_total_s'] * 1000:.3f}"])
        print(ascii_table(["stage", "mean ms"], stage_rows))
        print()
        print(
            f"queueing delay vs service time "
            f"({queueing['spans_queued']}/{queueing['count']} spans queued "
            f"behind compaction I/O)"
        )
        print(ascii_table(
            ["component", "mean ms", "max ms"],
            [
                [
                    "queueing delay",
                    f"{queueing['mean_queueing_s'] * 1000:.3f}",
                    f"{queueing['max_queueing_s'] * 1000:.3f}",
                ],
                [
                    "service time",
                    f"{queueing['mean_service_s'] * 1000:.3f}",
                    f"{queueing['max_service_s'] * 1000:.3f}",
                ],
            ],
        ))
        print(f"  queueing share of sampled read time: "
              f"{queueing['queueing_share']:.1%}")
    else:
        print("read-path spans: none sampled (raise duration or lower "
              "--sample-every); queueing decomposition unavailable")
    if args.trace_out:
        print(f"\ntrace written to {args.trace_out}", file=sys.stderr)
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    """Live per-shard telemetry over one coordinated cluster run."""
    from repro.cluster import ClusterSpec, run_coordinated
    from repro.obs.expo import render_openmetrics_many

    try:
        spec = ClusterSpec(
            engine=args.engine,
            num_shards=args.shards,
            partitioner=args.partitioner,
            read_rate_qps=args.rate,
            seed=args.seed,
            scale=args.scale,
            duration_s=args.duration,
            policy=args.policy,
            arrival=args.arrival,
            queue_bound=args.queue_bound,
            trace=args.trace,
            trace_dir=args.trace_dir,
            trace_slo_s=args.trace_slo,
            trace_stall_spike_s=args.trace_stall_spike,
            trace_dip_threshold=args.trace_dip,
            controller=args.controller,
            control_interval_s=args.control_interval,
        )
    except ConfigError as error:
        print(f"top: {error}", file=sys.stderr)
        return 2
    interval = max(1, args.refresh)
    live = sys.stdout.isatty() and not args.plain
    headers = ["shard", "reads", "writes", "p99 ms", "hit", "stall s"]
    if spec.controller != "off":
        headers = headers + ["ctl"]

    def on_tick(tick: int, sessions) -> None:
        now = tick + 1
        if now % interval:
            return
        rows = []
        for shard, session in enumerate(sessions):
            result = session.simulator.current_result
            if result is None:
                continue
            hit = (
                result.hit_ratio.values[-1]
                if result.hit_ratio.values
                else 0.0
            )
            row = [
                str(shard),
                str(result.reads_completed),
                str(result.writes_applied),
                f"{result.latency_percentile_s(99) * 1000:.2f}",
                f"{hit:.3f}",
                f"{result.stall_seconds:.1f}",
            ]
            if spec.controller != "off":
                row.append(str(len(result.control_decisions)))
            rows.append(row)
        if live:
            sys.stdout.write("\x1b[H\x1b[2J")
        print(f"repro top — {spec.label()} — t={now}s")
        print(ascii_table(headers, rows))
        sys.stdout.flush()

    try:
        result = run_coordinated(spec, on_tick=on_tick)
    except ConfigError as error:
        print(f"top: {error}", file=sys.stderr)
        return 2
    print(f"\nfinal — {spec.label()}")
    print(ascii_table(_CLUSTER_HEADERS, [[
        spec.label(),
        str(result.num_shards),
        format_qps(result.goodput_qps()),
        f"{result.read_percentile_ms(50):.2f}",
        f"{result.read_percentile_ms(99):.2f}",
        f"{result.read_imbalance():.2f}x",
        str(result.hottest_shard()),
        str(result.total_shed),
        str(result.total_deferred),
    ]]))
    if spec.controller != "off":
        total = sum(len(s.control_decisions) for s in result.shards)
        print(
            f"controller {spec.controller}: {total} decisions "
            f"across {result.num_shards} shards"
        )
    if any(shard.trace_mode != "off" for shard in result.shards):
        worst = result.worst_exemplars(5)
        if worst:
            print("\nworst exemplars (fleet)")
            print(ascii_table(_EXEMPLAR_HEADERS, _exemplar_rows(worst)))
        dumps = sum(len(shard.flight_dumps) for shard in result.shards)
        if dumps:
            triggers = sorted({
                dump["trigger"]
                for shard in result.shards
                for dump in shard.flight_dumps
            })
            print(
                f"flight recorder: {dumps} dumps "
                f"({', '.join(triggers)})"
            )
    if args.metrics_out:
        out = Path(args.metrics_out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(render_openmetrics_many([
            ({"shard": str(index)}, shard.metrics)
            for index, shard in enumerate(result.shards)
        ]))
        print(f"OpenMetrics snapshot written to {out}", file=sys.stderr)
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    """Differential harness over one seed; prints a JSON verdict."""
    from repro.check.crash import CrashRecoveryHarness
    from repro.check.differential import DifferentialRunner
    from repro.check.schedule import ScheduleSpec

    if args.engines == "all":
        names = list(ENGINE_NAMES)
    else:
        names = [n.strip() for n in args.engines.split(",") if n.strip()]
        unknown = [n for n in names if n not in ENGINE_NAMES]
        if unknown:
            print(f"unknown engines: {unknown}; see `engines`", file=sys.stderr)
            return 2
    verdict: dict = {
        "seed": args.seed,
        "ops": args.ops,
        "key_space": args.key_space,
        "engines": {},
    }
    for name in names:
        print(f"checking {name} ...", file=sys.stderr)
        runner = DifferentialRunner(
            name, seed=args.seed, ops=args.ops, key_space=args.key_space
        )
        report = runner.run().to_json_dict()
        if args.crash:
            harness = CrashRecoveryHarness(
                name,
                ScheduleSpec(
                    seed=args.seed,
                    ops=min(args.ops, args.crash_ops),
                    key_space=args.key_space,
                ),
            )
            outcomes = [o.to_json_dict() for o in harness.run_all()]
            report["crash"] = {
                "outcomes": outcomes,
                "ok": all(o["consistent"] for o in outcomes),
            }
            report["ok"] = report["ok"] and report["crash"]["ok"]
        verdict["engines"][name] = report
    verdict["ok"] = all(r["ok"] for r in verdict["engines"].values())
    print(json.dumps(verdict, indent=2, sort_keys=True))
    return 0 if verdict["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LSbM-tree reproduction: run simulated experiments.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    engines = commands.add_parser("engines", help="list engine variants")
    engines.add_argument(
        "--json", action="store_true",
        help="print the engine catalog as JSON (name, wiring, axes)",
    )
    engines.set_defaults(func=cmd_engines)

    run = commands.add_parser("run", help="run one engine, print its series")
    run.add_argument("--engine", required=True, choices=ENGINE_NAMES)
    run.add_argument("--csv", help="write the per-second series to this file")
    run.add_argument(
        "--json",
        action="store_true",
        help="print the run summary as JSON instead of tables",
    )
    run.add_argument(
        "--profile",
        action="store_true",
        help="run under cProfile: print the top functions and dump "
        "a .pstats file (single-seed runs only)",
    )
    run.add_argument(
        "--profile-out",
        help="cProfile dump path (default results/profile_<engine>.pstats)",
    )
    run.add_argument(
        "--profile-top",
        type=int,
        default=25,
        help="rows in the printed cumulative-time table (default 25)",
    )
    _add_common(run)
    _add_replication(run)
    run.set_defaults(func=cmd_run)

    compare = commands.add_parser("compare", help="run several engines")
    compare.add_argument(
        "--engines",
        default="blsm,leveldb,lsbm",
        help="comma-separated engine names",
    )
    compare.add_argument(
        "--json",
        action="store_true",
        help="print all run summaries as a JSON list",
    )
    _add_common(compare)
    _add_replication(compare)
    compare.set_defaults(func=cmd_compare)

    sweep = commands.add_parser(
        "sweep",
        help="parallel grid sweep: engines × seeds × config overrides",
    )
    sweep.add_argument(
        "--engines",
        default="blsm,leveldb,lsbm",
        help="comma-separated engine names",
    )
    sweep.add_argument(
        "--seeds",
        default="0",
        help="comma-separated seeds replicated per cell (default 0)",
    )
    sweep.add_argument(
        "--set",
        action="append",
        metavar="FIELD=V1,V2",
        help="add a config-override axis, e.g. --set trim_interval_s=10,30 "
        "(repeatable; axes multiply)",
    )
    sweep.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (default 1 = serial, same results)",
    )
    sweep.add_argument(
        "--scale",
        type=int,
        default=2048,
        help="linear size scale vs the paper's setup (default 2048)",
    )
    sweep.add_argument(
        "--duration",
        type=int,
        default=8000,
        help="virtual seconds per run (paper: 20000)",
    )
    sweep.add_argument(
        "--scan",
        action="store_true",
        help="drive range queries instead of point reads",
    )
    sweep.add_argument(
        "--name", default="sweep", help="payload name (default sweep)"
    )
    sweep.add_argument(
        "--json",
        action="store_true",
        help="print the bench-schema payload as JSON",
    )
    sweep.add_argument(
        "--out", help="write the bench-schema payload to this file"
    )
    sweep.add_argument(
        "--out-dir",
        help="write the payload plus one lossless JSON per run here",
    )
    sweep.set_defaults(func=cmd_sweep)

    tune = commands.add_parser(
        "tune",
        help="search the compaction design space for an SLO objective",
    )
    tune.add_argument(
        "--engines",
        default="design",
        help="comma-separated candidate engines (default: design, whose "
        "axes come from --set compaction_* overrides)",
    )
    tune.add_argument(
        "--objective",
        choices=("p99", "hit-stability"),
        default="hit-stability",
        help="SLO to optimize: open-loop read p99 (min) or the "
        "hit-ratio floor (max; default)",
    )
    tune.add_argument(
        "--seeds",
        default="0",
        help="comma-separated seeds replicated per candidate (default 0)",
    )
    tune.add_argument(
        "--set",
        action="append",
        metavar="FIELD=V1,V2",
        help="add a candidate axis, e.g. "
        "--set compaction_layout=tiering,lazy-leveling "
        "(repeatable; axes multiply)",
    )
    tune.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (the winner is jobs-independent)",
    )
    tune.add_argument(
        "--scale",
        type=int,
        default=2048,
        help="linear size scale vs the paper's setup (default 2048)",
    )
    tune.add_argument(
        "--duration",
        type=int,
        default=8000,
        help="virtual seconds per run (paper: 20000)",
    )
    tune.add_argument(
        "--rate",
        type=float,
        default=2000.0,
        help="offered read rate for the p99 objective (default 2000 QPS)",
    )
    tune.add_argument(
        "--policy",
        default="fifo",
        help="scheduler policy for the p99 objective (default fifo)",
    )
    tune.add_argument(
        "--name",
        default="design_space",
        help="payload name (default design_space)",
    )
    tune.add_argument(
        "--json",
        action="store_true",
        help="print the bench-schema payload as JSON",
    )
    tune.add_argument(
        "--out", help="write the bench-schema payload to this file"
    )
    tune.set_defaults(func=cmd_tune)

    serve = commands.add_parser(
        "serve",
        help="open-loop serving: latency vs offered load per policy",
    )
    serve.add_argument(
        "--engines",
        default="leveldb,lsbm",
        help="comma-separated engine names",
    )
    serve.add_argument(
        "--rate",
        default="2000,8000",
        help="comma-separated offered read rates in paper-scale QPS",
    )
    serve.add_argument(
        "--policy",
        default="fifo",
        help="comma-separated scheduling policies "
        "(fifo, read-priority, weighted-fair)",
    )
    serve.add_argument(
        "--arrival",
        default="poisson",
        choices=("poisson", "bursty", "diurnal"),
        help="arrival process for all client classes (default poisson)",
    )
    serve.add_argument(
        "--queue-bound",
        type=int,
        default=64,
        help="total request-queue depth bound (default 64)",
    )
    serve.add_argument(
        "--seeds",
        default="0",
        help="comma-separated seeds replicated per cell (default 0)",
    )
    serve.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (default 1 = serial, same results)",
    )
    serve.add_argument(
        "--scale",
        type=int,
        default=2048,
        help="linear size scale vs the paper's setup (default 2048)",
    )
    serve.add_argument(
        "--duration",
        type=int,
        default=2000,
        help="virtual seconds per run (default 2000)",
    )
    serve.add_argument(
        "--name", default="serve", help="payload name (default serve)"
    )
    serve.add_argument(
        "--json",
        action="store_true",
        help="print the bench-schema payload as JSON",
    )
    serve.add_argument(
        "--out", help="write the bench-schema payload to this file"
    )
    _add_tracing(serve)
    _add_control(serve)
    serve.set_defaults(func=cmd_serve)

    trace = commands.add_parser(
        "trace",
        help="record an engine's events as JSONL, or replay an "
        "operation trace",
    )
    trace.add_argument("--engine", choices=ENGINE_NAMES)
    trace.add_argument(
        "--out", default="trace.jsonl", help="JSONL output path"
    )
    _add_common(trace)
    trace.set_defaults(func=cmd_trace, trace_command=None)
    trace_sub = trace.add_subparsers(dest="trace_command")
    replay = trace_sub.add_parser(
        "replay",
        help="replay an operation-trace file against one engine",
    )
    replay.add_argument("file", help="trace file (one operation per line)")
    replay.add_argument("--engine", required=True, choices=ENGINE_NAMES)
    replay.add_argument(
        "--scale",
        type=int,
        default=2048,
        help="linear size scale vs the paper's setup (default 2048)",
    )
    replay.add_argument(
        "--preload",
        action="store_true",
        help="bulk-load the unique data set before replaying",
    )
    replay.add_argument(
        "--json",
        action="store_true",
        help="print the replay counters as JSON",
    )

    cluster = commands.add_parser(
        "cluster",
        help="sharded cluster grid: engines × shard counts × partitioners",
    )
    cluster.add_argument(
        "--engines",
        default="leveldb,lsbm",
        help="comma-separated engine names",
    )
    cluster.add_argument(
        "--shards",
        default="2",
        help="comma-separated shard counts (default 2)",
    )
    cluster.add_argument(
        "--partitioner",
        default="hash",
        help="comma-separated partitioners (hash, range)",
    )
    cluster.add_argument(
        "--rate",
        default="2000",
        help="comma-separated cluster-wide offered read rates "
        "(paper-scale QPS)",
    )
    cluster.add_argument(
        "--write-rate",
        type=float,
        default=None,
        help="cluster-wide offered write rate (default: config write OPS)",
    )
    cluster.add_argument(
        "--policy",
        default="fifo",
        help="per-shard scheduling policy (fifo, read-priority, "
        "weighted-fair)",
    )
    cluster.add_argument(
        "--arrival",
        default="poisson",
        choices=("poisson", "bursty", "diurnal"),
        help="arrival process (default poisson)",
    )
    cluster.add_argument(
        "--queue-bound",
        type=int,
        default=64,
        help="per-shard request-queue depth bound (default 64)",
    )
    cluster.add_argument(
        "--seeds",
        default="0",
        help="comma-separated seeds replicated per cell (default 0)",
    )
    cluster.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for shard fan-out (default 1)",
    )
    cluster.add_argument(
        "--scale",
        type=int,
        default=2048,
        help="linear size scale vs the paper's setup (default 2048)",
    )
    cluster.add_argument(
        "--duration",
        type=int,
        default=2000,
        help="virtual seconds per run (default 2000)",
    )
    cluster.add_argument(
        "--split-at",
        type=int,
        default=None,
        help="migrate a key range mid-run at this virtual second "
        "(range partitioner only; forces coordinated execution)",
    )
    cluster.add_argument(
        "--split-source",
        type=int,
        default=0,
        help="shard whose range the split cuts (default 0)",
    )
    cluster.add_argument(
        "--split-target",
        type=int,
        default=1,
        help="shard that adopts the migrated range (default 1)",
    )
    cluster.add_argument(
        "--split-fraction",
        type=float,
        default=0.5,
        help="upper fraction of the source range to migrate (default 0.5)",
    )
    cluster.add_argument(
        "--verify",
        action="store_true",
        help="shadow every dispatch with a cluster-wide KV oracle "
        "(forces coordinated execution)",
    )
    cluster.add_argument(
        "--name", default="cluster", help="payload name (default cluster)"
    )
    cluster.add_argument(
        "--json",
        action="store_true",
        help="print the bench-schema payload as JSON",
    )
    cluster.add_argument(
        "--out", help="write the bench-schema payload to this file"
    )
    _add_tracing(cluster)
    _add_control(cluster)
    cluster.set_defaults(func=cmd_cluster)

    top = commands.add_parser(
        "top",
        help="live per-shard telemetry for one coordinated cluster run",
    )
    top.add_argument("--engine", default="lsbm", choices=ENGINE_NAMES)
    top.add_argument(
        "--shards", type=int, default=2, help="shard count (default 2)"
    )
    top.add_argument(
        "--partitioner", default="hash", help="hash or range (default hash)"
    )
    top.add_argument(
        "--rate",
        type=float,
        default=2000.0,
        help="cluster-wide offered read rate in paper-scale QPS",
    )
    top.add_argument(
        "--policy",
        default="fifo",
        help="per-shard scheduling policy (default fifo)",
    )
    top.add_argument(
        "--arrival",
        default="poisson",
        choices=("poisson", "bursty", "diurnal"),
        help="arrival process (default poisson)",
    )
    top.add_argument(
        "--queue-bound",
        type=int,
        default=64,
        help="per-shard request-queue depth bound (default 64)",
    )
    top.add_argument(
        "--scale",
        type=int,
        default=2048,
        help="linear size scale vs the paper's setup (default 2048)",
    )
    top.add_argument(
        "--duration",
        type=int,
        default=2000,
        help="virtual seconds to run (default 2000)",
    )
    top.add_argument("--seed", type=int, default=0)
    top.add_argument(
        "--refresh",
        type=int,
        default=20,
        help="virtual seconds between frames (default 20)",
    )
    top.add_argument(
        "--plain",
        action="store_true",
        help="append frames instead of redrawing (the non-tty default)",
    )
    top.add_argument(
        "--metrics-out",
        help="write a final OpenMetrics snapshot of every shard "
        "registry to this file",
    )
    _add_tracing(top)
    _add_control(top)
    top.set_defaults(func=cmd_top)

    report = commands.add_parser(
        "report",
        help="profiled run: spans, per-cause bandwidth, dip diagnosis; "
        "or render an archived payload with --from",
    )
    report.add_argument("--engine", choices=ENGINE_NAMES)
    report.add_argument(
        "--from",
        dest="from_file",
        metavar="FILE",
        help="render an archived JSON payload (bench payload or "
        "lossless serve/cluster result) instead of running",
    )
    report.add_argument(
        "--sample-every",
        type=int,
        default=32,
        help="emit one read span per this many reads (default 32)",
    )
    report.add_argument(
        "--dip-threshold",
        type=float,
        default=0.7,
        help="hit-ratio threshold whose downward crossings are diagnosed",
    )
    report.add_argument(
        "--trace-out", help="also write the full JSONL trace to this path"
    )
    report.add_argument(
        "--json",
        action="store_true",
        help="print the report as JSON instead of tables",
    )
    _add_common(report)
    report.set_defaults(func=cmd_report)

    check = commands.add_parser(
        "check",
        help="differential correctness harness: oracle + invariants",
    )
    check.add_argument(
        "--engines",
        default="all",
        help='comma-separated engine names, or "all" (default)',
    )
    check.add_argument("--seed", type=int, default=0)
    check.add_argument(
        "--ops",
        type=int,
        default=5000,
        help="schedule length per engine (default 5000)",
    )
    check.add_argument(
        "--key-space",
        type=int,
        default=2000,
        help="distinct keys in the schedule (default 2000)",
    )
    check.add_argument(
        "--crash",
        action="store_true",
        help="also run crash/recovery fault injection at every crash point",
    )
    check.add_argument(
        "--crash-ops",
        type=int,
        default=2500,
        help="schedule length for crash experiments (default 2500)",
    )
    check.set_defaults(func=cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
