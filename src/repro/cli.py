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

How the module is laid out:

* every option is declared once, in :data:`_OPTIONS`; a command names
  the options it takes and passes its own defaults (:func:`_declare`);
* every comma-separated value (``--engines``, ``--seeds``, ``--rate``,
  ``--shards``, ``--policy``, ``--partitioner``, ``--set`` values) goes
  through :func:`_parse_list`;
* a command reports bad input by raising
  :class:`~repro.errors.ReproError`; :func:`main` turns it, or an
  :class:`OSError` from a file the command reads or writes, into one
  stderr line ``<command>: <message>`` and exit status 2;
* ``run``, ``compare`` and ``sweep`` describe their runs with
  :func:`~repro.sim.sweep.expand_grid` and execute them with
  :func:`~repro.sim.sweep.run_sweep`; ``trace`` and ``report`` build one
  :class:`~repro.sim.spec.ExperimentSpec` each;
* files a command writes go through :func:`_write`, which creates
  missing parent directories.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from repro.config import SystemConfig
from repro.control.controller import CONTROLLER_NAMES
from repro.errors import ConfigError, ReproError
from repro.obs.tracing import TRACE_MODES
from repro.serve.arrivals import PROCESSES
from repro.sim.experiment import ENGINE_NAMES, ENGINE_SPECS, execute_with_trace
from repro.sim.metrics import RunResult
from repro.sim.report import (
    ascii_table,
    format_qps,
    mark_line,
    series_block,
    sparkline,
)
from repro.sim.spec import ExperimentSpec
from repro.sim.sweep import SweepOutcome, expand_grid, run_sweep
from repro.sim.tune import OBJECTIVES

# ----------------------------------------------------------------------
# The option vocabulary.
# ----------------------------------------------------------------------

#: A per-command default that makes the option required instead.
_REQUIRED = object()

#: Every option the commands take, declared once as its argparse
#: keywords.  A command overrides only the default (see :func:`_declare`).
_OPTIONS: dict[str, dict] = {
    # What to run.
    "--engine": dict(choices=ENGINE_NAMES, help="engine variant"),
    "--engines": dict(
        help="comma-separated engine names (default %(default)s)"
    ),
    "--scale": dict(
        default=2048,
        help="linear size scale vs the paper's setup (default %(default)s)",
    ),
    "--duration": dict(
        default=8000,
        help="virtual seconds per run (default %(default)s; paper: 20000)",
    ),
    "--seed": dict(default=1, help="workload seed (default %(default)s)"),
    "--scan": dict(
        action="store_true",
        help="drive range queries instead of point reads",
    ),
    "--seeds": dict(
        help="comma-separated seeds, each run replicated once per seed "
        "(run/compare: report mean ± std instead of one point)",
    ),
    "--jobs": dict(
        default=1,
        help="worker processes (default 1 = serial, same results)",
    ),
    "--set": dict(
        action="append",
        metavar="FIELD=V1,V2",
        help="add a SystemConfig axis, e.g. --set trim_interval_s=10,30 "
        "or --set compaction_layout=tiering,lazy-leveling "
        "(repeatable; axes multiply)",
    ),
    "--objective": dict(
        default="hit-stability",
        choices=tuple(OBJECTIVES),
        help="SLO to optimize: open-loop read p99 (min) or the "
        "hit-ratio floor (max; default)",
    ),
    # Open-loop serving and clusters.
    "--rate": dict(
        help="offered read rate in paper-scale QPS, cluster-wide for a "
        "cluster; comma-separated where the command sweeps rates "
        "(default %(default)s)",
    ),
    "--write-rate": dict(
        type=float,
        help="cluster-wide offered write rate (default: config write OPS)",
    ),
    "--policy": dict(
        default="fifo",
        help="scheduling policy (fifo, read-priority, weighted-fair); "
        "comma-separated for serve (default %(default)s)",
    ),
    "--arrival": dict(
        default="poisson",
        choices=PROCESSES,
        help="arrival process for all client classes (default %(default)s)",
    ),
    "--queue-bound": dict(
        default=64,
        help="request-queue depth bound, per shard (default %(default)s)",
    ),
    "--shards": dict(
        help="shard count; comma-separated for cluster (default %(default)s)"
    ),
    "--partitioner": dict(
        default="hash",
        help="hash or range; comma-separated for cluster "
        "(default %(default)s)",
    ),
    "--split-at": dict(
        type=int,
        help="migrate a key range mid-run at this virtual second "
        "(range partitioner only; forces coordinated execution)",
    ),
    "--split-source": dict(
        default=0, help="shard whose range the split cuts (default 0)"
    ),
    "--split-target": dict(
        default=1, help="shard that adopts the migrated range (default 1)"
    ),
    "--split-fraction": dict(
        default=0.5,
        help="upper fraction of the source range to migrate (default 0.5)",
    ),
    "--verify": dict(
        action="store_true",
        help="shadow every dispatch with a cluster-wide KV oracle "
        "(forces coordinated execution)",
    ),
    "--trace": dict(
        default="off",
        choices=TRACE_MODES,
        help="end-to-end request tracing: tail-biased exemplars "
        "('exemplar') or every completed request ('full'); default off",
    ),
    "--trace-dir": dict(
        help="write exemplar span trees and flight-recorder dumps as "
        "JSONL files under this directory",
    ),
    "--trace-slo": dict(
        default=1.0,
        metavar="SECONDS",
        help="flight-recorder SLO-breach trigger: total request latency "
        "over this many seconds (default 1.0)",
    ),
    "--trace-stall-spike": dict(
        default=0.25,
        metavar="SECONDS",
        help="flight-recorder stall-spike trigger: one engine stall "
        "over this many seconds (default 0.25)",
    ),
    "--trace-dip": dict(
        default=0.7,
        metavar="RATIO",
        help="flight-recorder hit-ratio-dip trigger threshold, same "
        "family as repro diagnose (default 0.7)",
    ),
    "--controller": dict(
        default="off",
        choices=CONTROLLER_NAMES,
        help="runtime feedback controller: 'static' (inert anchor), "
        "'rules' (banded hysteresis) or 'gradient' (hill-climb); "
        "default off",
    ),
    "--control-interval": dict(
        default=30,
        metavar="SECONDS",
        help="virtual seconds between control ticks (default 30)",
    ),
    "--refresh": dict(
        default=20, help="virtual seconds between frames (default 20)"
    ),
    "--plain": dict(
        action="store_true",
        help="append frames instead of redrawing (the non-tty default)",
    ),
    # Profiling, tracing and replay of closed-loop runs.
    "--profile": dict(
        action="store_true",
        help="run under cProfile: print the top functions and dump "
        "a .pstats file (single-seed runs only)",
    ),
    "--profile-out": dict(
        help="cProfile dump path (default results/profile_<engine>.pstats)"
    ),
    "--profile-top": dict(
        default=25,
        help="rows in the printed cumulative-time table (default 25)",
    ),
    "--sample-every": dict(
        default=32,
        help="emit one read span per this many reads (default 32)",
    ),
    "--dip-threshold": dict(
        default=0.7,
        help="hit-ratio threshold whose downward crossings are diagnosed",
    ),
    "file": dict(help="trace file (one operation per line)"),
    "--preload": dict(
        action="store_true",
        help="bulk-load the unique data set before replaying",
    ),
    # The differential harness.
    "--ops": dict(
        default=5000, help="schedule length per engine (default 5000)"
    ),
    "--key-space": dict(
        default=2000, help="distinct keys in the schedule (default 2000)"
    ),
    "--crash": dict(
        action="store_true",
        help="also run crash/recovery fault injection at every crash point",
    ),
    "--crash-ops": dict(
        default=2500,
        help="schedule length for crash experiments (default 2500)",
    ),
    # Outputs.
    "--json": dict(action="store_true", help="print JSON instead of tables"),
    "--name": dict(help="payload name (default %(default)s)"),
    "--out": dict(
        help="write the bench-schema payload (trace: the JSONL trace) "
        "to this file"
    ),
    "--out-dir": dict(
        help="write the payload plus one lossless JSON per run here"
    ),
    "--csv": dict(help="write the per-second series to this file"),
    "--trace-out": dict(help="also write the full JSONL trace to this path"),
    "--metrics-out": dict(
        help="write a final OpenMetrics snapshot of every shard "
        "registry to this file",
    ),
    "--from": dict(
        dest="from_file",
        metavar="FILE",
        help="render an archived JSON payload (bench payload or "
        "lossless serve/cluster result) instead of running",
    ),
}

#: The options of one closed-loop run.
_CLOSED_LOOP = "--scale --duration --seed --scan"

#: The options every open-loop command (serve, cluster, top) takes; the
#: spec fields they set, but ``--policy``, are :func:`_serving`.
_SERVING = (
    "--policy --arrival --queue-bound --scale --duration --trace "
    "--trace-dir --trace-slo --trace-stall-spike --trace-dip "
    "--controller --control-interval"
)


def _declare(
    parser: argparse.ArgumentParser, names: str, **defaults: object
) -> None:
    """Add the space-separated ``names`` of :data:`_OPTIONS` to ``parser``.

    ``defaults`` maps an option's dest to this command's default
    (:data:`_REQUIRED` makes the option required).  An int or float
    default also types the option, so ``rate=2000.0`` takes one float
    where ``rate="2000,8000"`` takes a comma list.
    """
    for name in names.split():
        kwargs = dict(_OPTIONS[name])
        dest = kwargs.get("dest", name.lstrip("-").replace("-", "_"))
        if dest in defaults:
            kwargs["default"] = defaults[dest]
        if kwargs.get("default") is _REQUIRED:
            del kwargs["default"]
            kwargs["required"] = True
        elif type(kwargs.get("default")) in (int, float):
            kwargs.setdefault("type", type(kwargs["default"]))
        parser.add_argument(name, **kwargs)


def _parse_list(
    text: str,
    noun: str,
    parse=str,
    choices: tuple | None = None,
) -> list:
    """A comma-separated option value as a non-empty list.

    Each entry goes through ``parse`` and, when ``choices`` is given,
    must be one of them; otherwise, or for an empty list, this raises
    :class:`ConfigError`.
    """
    parts = [part.strip() for part in text.split(",") if part.strip()]
    if not parts:
        raise ConfigError(f"no {noun} in {text!r}")
    try:
        values = [parse(part) for part in parts]
    except ValueError as error:
        raise ConfigError(str(error)) from None
    if choices is not None:
        unknown = [value for value in values if value not in choices]
        if unknown:
            raise ConfigError(
                f"unknown {noun}: {unknown}; choose from {choices}"
            )
    return values


def _engines(text: str) -> list[str]:
    """The names an ``--engines`` value lists; any other entry raises
    ``unknown engines: [...]; choose from (...)``."""
    return _parse_list(text, "engines", choices=ENGINE_NAMES)


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


def _parse_axes(settings: list[str] | None) -> dict[str, list[object]]:
    """The ``--set field=v1,v2`` grid axes, typed per the config."""
    axes = {}
    for setting in settings or []:
        key, separator, raw = setting.partition("=")
        key = key.strip()
        if not separator or not raw.strip():
            raise ConfigError(f"--set expects field=v1,v2..., got {setting!r}")
        field_type = _CONFIG_FIELD_TYPES.get(key)
        if field_type is None:
            raise ConfigError(
                f"unknown SystemConfig field {key!r} in --set {setting!r}"
            )
        axes[key] = _parse_list(raw, key, _AXIS_PARSERS.get(field_type, str))
    return axes


def _serving(args: argparse.Namespace) -> dict[str, object]:
    """The spec fields :data:`_SERVING` sets, but the policy."""
    return {
        "scale": args.scale,
        "duration_s": args.duration,
        "arrival": args.arrival,
        "queue_bound": args.queue_bound,
        "trace": args.trace,
        "trace_dir": args.trace_dir,
        "trace_slo_s": args.trace_slo,
        "trace_stall_spike_s": args.trace_stall_spike,
        "trace_dip_threshold": args.trace_dip,
        "controller": args.controller,
        "control_interval_s": args.control_interval,
    }


# ----------------------------------------------------------------------
# Outputs.
# ----------------------------------------------------------------------


def _print_json(value: object) -> None:
    print(json.dumps(value, indent=2, sort_keys=True))


def _write(path: str | Path, text: str, what: str) -> None:
    """Write one output file, creating missing parent directories."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text)
    print(f"{what} written to {out}", file=sys.stderr)


def _publish(args: argparse.Namespace, payload: dict) -> bool:
    """Write ``payload`` to ``--out`` and print it for ``--json``.

    Returns whether it was printed; the command then prints no tables.
    """
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        _write(args.out, text + "\n", f"{args.command} payload")
    if args.json:
        print(text)
    return args.json


def _footer(outcome: SweepOutcome) -> str:
    return (
        f"\n{len(outcome.outcomes)} runs in {outcome.wall_clock_s:.1f}s "
        f"with jobs={outcome.jobs} "
        f"(serial estimate {outcome.serial_estimate_s:.1f}s, "
        f"speedup {outcome.speedup:.2f}x)"
    )


_HEADERS = ["engine", "hit", "QPS", "DB MB", "p50 ms", "p99 ms"]


def _summary_row(result: RunResult) -> list[str]:
    return [
        result.engine,
        f"{result.mean_hit_ratio():.3f}",
        format_qps(result.mean_throughput()),
        f"{result.mean_db_size_mb():,.0f}",
        f"{result.latency_percentile_s(50) * 1000:.2f}",
        f"{result.latency_percentile_s(99) * 1000:.2f}",
    ]


def _replica_table(cells) -> str:
    """Seed-replicated cells (``--seeds``, sweeps) as mean ± std rows."""
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
        for cell in cells
    ]
    return ascii_table(
        ["cell", "n", "hit mean±std", "QPS mean±std", "p99 ms mean"], rows
    )


def _replica_json(outcome: SweepOutcome, cell) -> dict:
    replicas = [
        dict(o.result.to_json_dict(), seed=o.spec.seed, wall_clock_s=o.wall_clock_s)
        for o in outcome.outcomes
        if o.spec.cell_key() == cell.key
    ]
    return dict(cell.to_json_dict(), replicas=replicas)


#: Headers for the worst-exemplar digest table (tracing runs).
_EXEMPLAR_HEADERS = [
    "trace id", "shard", "class", "op", "sampled", "total ms",
    "queue ms", "service ms", "top stage", "stage ms",
]


def _render_trace(label: str, trace: dict) -> None:
    """Print a ``trace`` digest: mode and flight-recorder triggers, then
    the worst requests (``exemplar_summary`` digests, ``.get``-tolerant).
    """
    triggers = trace.get("flight_triggers") or []
    print(
        f"trace: mode={trace.get('mode', '?')} "
        f"exemplars={trace.get('exemplars', 0)} "
        f"flight_dumps={trace.get('flight_dumps', 0)} "
        f"triggers={','.join(str(t) for t in triggers) or '-'}"
    )
    worst = trace.get("worst_exemplars")
    if not isinstance(worst, list) or not worst:
        return
    print(f"worst exemplars — {label}")
    print(ascii_table(_EXEMPLAR_HEADERS, [
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
        for digest in worst
    ]))


def _render_cluster_entry(label: str, entry: dict) -> None:
    """Cluster bench entry as summary + per-shard tables (``.get``-based)."""
    print(ascii_table(
        ["cluster", "shards", "goodput", "p50 ms", "p99 ms",
         "imbalance", "hottest", "shed", "deferred"],
        [[
            label,
            str(entry.get("num_shards", "?")),
            format_qps(float(entry.get("goodput_qps", 0.0))),
            f"{entry.get('latency_p50_ms', 0.0):.2f}",
            f"{entry.get('latency_p99_ms', 0.0):.2f}",
            f"{entry.get('read_imbalance', 1.0):.2f}x",
            str(entry.get("hottest_shard", "?")),
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


def _render_run_entry(label: str, entry: dict) -> None:
    """Any bench entry: cluster tables, or a one-row run/serve summary."""
    if entry.get("kind") == "cluster":
        _render_cluster_entry(label, entry)
    else:
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
    trace = entry.get("trace")
    if isinstance(trace, dict):
        _render_trace(label, trace)


def _render_bench(payload: dict) -> None:
    """A bench payload: a header, then each run entry by its ``kind``."""
    runs = payload["runs"]
    print(
        f"payload {payload.get('name', '?')!r}: {len(runs)} runs "
        f"(schema v{payload.get('schema_version', '?')})"
    )
    for label in sorted(runs):
        if isinstance(runs[label], dict):
            print()
            _render_run_entry(label, runs[label])


# ----------------------------------------------------------------------
# Commands.
# ----------------------------------------------------------------------


def cmd_engines(args: argparse.Namespace) -> int:
    if args.json:
        _print_json([
            {
                "name": spec.name,
                "wiring": spec.wiring,
                "summary": spec.summary,
                "axes": spec.axes.to_dict() if spec.axes else None,
            }
            for spec in ENGINE_SPECS.values()
        ])
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


def _closed_loop(
    args: argparse.Namespace, names: list[str]
) -> tuple[SweepOutcome, list[dict], str]:
    """Run ``names`` at ``--seed``, or once per ``--seeds`` entry, through
    the sweep runner.

    Returns the outcome plus one JSON summary per engine and the table
    of them; over ``--seeds`` both hold mean ± std per engine.
    """
    replicated = args.seeds is not None
    seeds = _parse_list(args.seeds, "seeds", int) if replicated else [args.seed]
    specs = expand_grid(
        names,
        seeds=seeds,
        scale=args.scale,
        duration_s=args.duration,
        scan_mode=args.scan,
    )
    print(
        f"running {','.join(names)} at 1/{args.scale} scale for "
        f"{args.duration} virtual seconds "
        f"({'range queries' if args.scan else 'point reads'}), "
        f"seeds {','.join(map(str, seeds))}, jobs={args.jobs}",
        file=sys.stderr,
    )
    outcome = run_sweep(specs, jobs=args.jobs)
    if replicated:
        cells = outcome.cells()
        summaries = [_replica_json(outcome, cell) for cell in cells]
        return outcome, summaries, _replica_table(cells)
    results = [o.result for o in outcome.outcomes]
    summaries = [result.to_json_dict() for result in results]
    return outcome, summaries, ascii_table(
        _HEADERS, [_summary_row(result) for result in results]
    )


def cmd_run(args: argparse.Namespace) -> int:
    for flag, value in (("--csv", args.csv), ("--profile", args.profile)):
        if value and args.seeds is not None:
            raise ConfigError(
                f"{flag} is per-run; use it with --seed, not --seeds"
            )
    if args.profile:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        outcome, (summary,), table = profiler.runcall(
            _closed_loop, args, [args.engine]
        )
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
        outcome, (summary,), table = _closed_loop(args, [args.engine])
    if args.json:
        _print_json(summary)
    else:
        print(table)
    if args.seeds is not None:
        return 0
    result = outcome.outcomes[0].result
    if not args.json:
        print()
        print(series_block("hit ratio", result.hit_ratio))
        print(series_block("throughput (QPS)", result.throughput_qps))
        print(series_block("DB size (MB)", result.db_size_mb))
    if args.csv:
        _write(args.csv, "\n".join(result.to_csv_rows()) + "\n", "time series")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    _, summaries, table = _closed_loop(args, _engines(args.engines))
    if args.json:
        _print_json(summaries)
    else:
        print(table)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Declarative grid sweep over engines × seeds × config overrides."""
    names = _engines(args.engines)
    seeds = _parse_list(args.seeds, "seeds", int)
    axes = _parse_axes(args.set)
    specs = expand_grid(
        names,
        seeds=seeds,
        scale=args.scale,
        duration_s=args.duration,
        scan_mode=args.scan,
        axes=axes,
    )
    print(
        f"sweep: {len(specs)} runs "
        f"({len(names)} engines × {len(seeds)} seeds"
        + "".join(f" × {len(vals)} {key}" for key, vals in axes.items())
        + f") with jobs={args.jobs}",
        file=sys.stderr,
    )
    outcome = run_sweep(specs, jobs=args.jobs)
    if args.out_dir:
        outcome.write_payload(
            Path(args.out_dir) / f"BENCH_{args.name}.json", args.name
        )
        paths = outcome.write_runs(args.out_dir)
        print(
            f"{len(paths)} full per-run results written to {args.out_dir}",
            file=sys.stderr,
        )
    if _publish(args, outcome.to_payload(args.name)):
        return 0
    print(_replica_table(outcome.cells()))
    print(_footer(outcome))
    return 0


def cmd_tune(args: argparse.Namespace) -> int:
    """Search the compaction design space for an SLO objective."""
    from repro.sim.tune import run_tune

    names = _engines(args.engines)
    seeds = _parse_list(args.seeds, "seeds", int)
    axes = _parse_axes(args.set)
    candidates = len(names) * math.prod(len(values) for values in axes.values())
    print(
        f"tune: objective={args.objective}, {candidates} candidates × "
        f"{len(seeds)} seeds with jobs={args.jobs}",
        file=sys.stderr,
    )
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
    if _publish(args, outcome.to_payload(args.name)):
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
    print(_footer(outcome.sweep))
    return 0


#: Headers for the serve latency-vs-offered-load table.
_SERVE_HEADERS = [
    "run", "class", "offered", "goodput", "p50 ms", "p99 ms", "p99.9 ms",
    "queue p99 ms", "shed", "deferred",
]


def _serve_rows(outcome: SweepOutcome) -> list[list[str]]:
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

    names = _engines(args.engines)
    rates = _parse_list(args.rate, "rates", float)
    policies = _parse_list(args.policy, "policies", choices=SCHEDULER_NAMES)
    seeds = _parse_list(args.seeds, "seeds", int)
    specs = expand_serve_grid(names, rates, policies, seeds, **_serving(args))
    print(
        f"serve: {len(specs)} runs ({len(names)} engines × {len(rates)} "
        f"rates × {len(policies)} policies × {len(seeds)} seeds), "
        f"{args.arrival} arrivals, queue bound {args.queue_bound}, "
        f"jobs={args.jobs}",
        file=sys.stderr,
    )
    outcome = run_sweep(specs, jobs=args.jobs)
    payload = outcome.to_payload(args.name)
    if _publish(args, payload):
        return 0
    print(ascii_table(_SERVE_HEADERS, _serve_rows(outcome)))
    for label, entry in payload["runs"].items():
        if "trace" in entry:
            print()
            _render_trace(label, entry["trace"])
    print(_footer(outcome))
    return 0


def cmd_cluster(args: argparse.Namespace) -> int:
    """Sharded cluster grid: engines × shard counts × partitioners."""
    from repro.cluster import (
        PARTITIONERS,
        cluster_payload,
        expand_cluster_grid,
        run_cluster_grid,
    )

    names = _engines(args.engines)
    shard_counts = _parse_list(args.shards, "shard counts", int)
    partitioners = _parse_list(
        args.partitioner, "partitioners", choices=PARTITIONERS
    )
    rates = _parse_list(args.rate, "rates", float)
    seeds = _parse_list(args.seeds, "seeds", int)
    specs = expand_cluster_grid(
        names,
        shard_counts,
        partitioners,
        rates,
        seeds,
        policy=args.policy,
        write_rate_qps=args.write_rate,
        split_at_s=args.split_at,
        split_source=args.split_source,
        split_target=args.split_target,
        split_fraction=args.split_fraction,
        verify=args.verify,
        **_serving(args),
    )
    print(
        f"cluster: {len(specs)} cells ({len(names)} engines × "
        f"{len(shard_counts)} shard counts × {len(partitioners)} "
        f"partitioners × {len(rates)} rates × {len(seeds)} seeds), "
        f"jobs={args.jobs}",
        file=sys.stderr,
    )
    entries = run_cluster_grid(specs, jobs=args.jobs)
    payload = cluster_payload(args.name, entries)
    if _publish(args, payload):
        return 0
    _render_bench(payload)
    total_wall = sum(wall for _, _, wall in entries)
    print(f"\n{len(entries)} cluster cells in {total_wall:.1f}s")
    return 0


def _experiment_spec(args: argparse.Namespace, **fields: object) -> ExperimentSpec:
    """The one closed-loop run ``trace`` and ``report`` describe."""
    return ExperimentSpec(
        args.engine,
        scale=args.scale,
        duration_s=args.duration,
        seed=args.seed,
        scan_mode=args.scan,
        **fields,
    )


def cmd_trace(args: argparse.Namespace) -> int:
    if args.engine is None:
        raise ConfigError("--engine is required")
    print(
        f"tracing {args.engine} at 1/{args.scale} scale for "
        f"{args.duration} virtual seconds -> {args.out}",
        file=sys.stderr,
    )
    result, _ = execute_with_trace(_experiment_spec(args, trace_path=args.out))
    for name in sorted(result.event_counts):
        print(f"{name}: {result.event_counts[name]}", file=sys.stderr)
    print(f"trace written to {args.out}", file=sys.stderr)
    return 0


def cmd_trace_replay(args: argparse.Namespace) -> int:
    """Replay an archived operation trace against one engine."""
    from repro.sim.experiment import build_engine, preload
    from repro.workload.trace import load_trace, replay_trace

    ops = load_trace(args.file)
    setup = build_engine(args.engine, SystemConfig.paper_scaled(args.scale))
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
        _print_json(summary)
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
        raise ConfigError(f"cannot load {args.from_file}: {error}") from None
    if not isinstance(payload, dict):
        raise ConfigError(f"{args.from_file} is not a JSON object")
    if args.json:
        _print_json(_report_digest(payload))
        return 0
    if isinstance(payload.get("runs"), dict):
        _render_bench(payload)
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
            raise ConfigError(
                f"cannot load {args.from_file}: {error}"
            ) from None
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
        raise ConfigError("--engine or --from FILE is required")
    spec = _experiment_spec(
        args,
        profile=True,
        sample_every=args.sample_every,
        trace_path=args.trace_out,
    )
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
        _print_json(payload)
        return 0

    print(ascii_table(_HEADERS, [_summary_row(result)]))
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

    spec = ClusterSpec(
        engine=args.engine,
        num_shards=args.shards,
        partitioner=args.partitioner,
        read_rate_qps=args.rate,
        seed=args.seed,
        policy=args.policy,
        **_serving(args),
    )
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

    result = run_coordinated(spec, on_tick=on_tick)
    print(f"\nfinal — {spec.label()}")
    _render_run_entry(spec.label(), result.to_json_dict())
    if spec.controller != "off":
        total = sum(len(s.control_decisions) for s in result.shards)
        print(
            f"controller {spec.controller}: {total} decisions "
            f"across {result.num_shards} shards"
        )
    if args.metrics_out:
        _write(
            args.metrics_out,
            render_openmetrics_many([
                ({"shard": str(index)}, shard.metrics)
                for index, shard in enumerate(result.shards)
            ]),
            "OpenMetrics snapshot",
        )
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    """Differential harness over one seed; prints a JSON verdict."""
    from repro.check.crash import CrashRecoveryHarness
    from repro.check.differential import DifferentialRunner
    from repro.check.schedule import ScheduleSpec

    if args.engines == "all":
        names = list(ENGINE_NAMES)
    else:
        names = _engines(args.engines)
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
    _print_json(verdict)
    return 0 if verdict["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LSbM-tree reproduction: run simulated experiments.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, options, /, **defaults):
        sub = commands.add_parser(name, help=help)
        _declare(sub, options, **defaults)
        sub.set_defaults(func=func)
        return sub

    command("engines", cmd_engines, "list engine variants", "--json")
    command(
        "run", cmd_run, "run one engine, print its series",
        f"--engine --csv --json --profile --profile-out --profile-top "
        f"{_CLOSED_LOOP} --seeds --jobs",
        engine=_REQUIRED,
    )
    command(
        "compare", cmd_compare, "run several engines",
        f"--engines --json {_CLOSED_LOOP} --seeds --jobs",
        engines="blsm,leveldb,lsbm",
    )
    command(
        "sweep", cmd_sweep,
        "parallel grid sweep: engines × seeds × config overrides",
        "--engines --seeds --set --jobs --scale --duration --scan --name "
        "--json --out --out-dir",
        engines="blsm,leveldb,lsbm", seeds="0", name="sweep",
    )
    command(
        "tune", cmd_tune,
        "search the compaction design space for an SLO objective (the "
        "design engine takes its axes from --set compaction_* overrides)",
        "--engines --objective --seeds --set --jobs --scale --duration "
        "--rate --policy --name --json --out",
        engines="design", seeds="0", rate=2000.0, name="design_space",
    )
    command(
        "serve", cmd_serve,
        "open-loop serving: latency vs offered load per policy",
        f"--engines --rate --seeds --jobs --name --json --out {_SERVING}",
        engines="leveldb,lsbm", rate="2000,8000", seeds="0", duration=2000,
        name="serve",
    )
    trace = command(
        "trace", cmd_trace,
        "record an engine's events as JSONL, or replay an operation trace",
        f"--engine --out {_CLOSED_LOOP}",
        out="trace.jsonl",
    )
    replay = trace.add_subparsers(dest="trace_command").add_parser(
        "replay", help="replay an operation-trace file against one engine"
    )
    _declare(replay, "file --engine --scale --preload --json", engine=_REQUIRED)
    replay.set_defaults(func=cmd_trace_replay)
    command(
        "cluster", cmd_cluster,
        "sharded cluster grid: engines × shard counts × partitioners",
        f"--engines --shards --partitioner --rate --write-rate --seeds "
        f"--jobs --split-at --split-source --split-target --split-fraction "
        f"--verify --name --json --out {_SERVING}",
        engines="leveldb,lsbm", shards="2", rate="2000", seeds="0",
        duration=2000, name="cluster",
    )
    command(
        "top", cmd_top,
        "live per-shard telemetry for one coordinated cluster run",
        f"--engine --shards --partitioner --rate --seed --refresh --plain "
        f"--metrics-out {_SERVING}",
        engine="lsbm", shards=2, rate=2000.0, duration=2000, seed=0,
    )
    command(
        "report", cmd_report,
        "profiled run: spans, per-cause bandwidth, dip diagnosis; "
        "or render an archived payload with --from",
        f"--engine --from --sample-every --dip-threshold --trace-out --json "
        f"{_CLOSED_LOOP}",
    )
    command(
        "check", cmd_check,
        "differential correctness harness: oracle + invariants",
        "--engines --seed --ops --key-space --crash --crash-ops",
        engines="all", seed=0,
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; bad input exits 2 with one stderr line."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError) as error:
        command = args.command
        if getattr(args, "trace_command", None):
            command += f" {args.trace_command}"
        print(f"{command}: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
