"""Command line of the ladder: one run, a whole set, or a comparison.

``python -m benchmarks.ladder``
    the whole set: every workload ``--repeats`` times, each run a fresh
    single-process subprocess, interleaved round-robin so box drift hits
    every workload equally; then one traced run per workload.  Prints
    every metric by name and writes one self-describing JSON.

``python -m benchmarks.ladder --workload W --seed N --seconds S --trace T``
    one run in this process (what the set spawns, and what the driver of
    ``BENCHMARK.json`` calls).  The last line of standard output is one
    JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``python -m benchmarks.ladder compare A.json B.json``
    two sets under the bounds of ``BENCHMARK.json``.

Every mode exits non-zero when a correctness gate fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from benchmarks.ladder import env
from benchmarks.ladder.run import failed_share, run_workload, same_outputs
from benchmarks.ladder.spec import (
    ADDITIVE_UNITS,
    END_TO_END,
    PER_LAYER,
    WORKLOADS,
)

OUT_DIR = Path(__file__).resolve().parent / "out"

#: Bounds of host metrics ``BENCHMARK.json`` does not declare.  Raw speed
#: is too noisy across runs of different seeds to gate there (its
#: calibrated twin ``sim_ops_per_mstep`` is declared); between two sets of
#: one seed its quartiles say whether 10 % can be resolved.
UNDECLARED_BOUNDS = {"sim_ops_per_s": 0.10}

#: ``compare`` forgives this much absolute set-up drift: the smallest
#: workloads set up in a tenth of a second, where a share means little.
SETUP_SLACK_S = 0.05


def benchmark_json() -> dict:
    with open(env.REPO_ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# One run.
# ----------------------------------------------------------------------
def driver_line(record: dict) -> dict:
    """The result object ``BENCHMARK.json``'s contract asks for."""
    declared = benchmark_json()
    if record["trace"]:
        # The contract wants every declared name on every workload; only
        # counts and times of a layer the workload lacks may read 0.
        per_layer = record["per_layer"]
        metrics = {
            m["name"]: {
                "value": per_layer[m["name"]]
                if m["name"] in per_layer or m["unit"] not in ADDITIVE_UNITS
                else 0,
                "unit": m["unit"],
            }
            for m in declared["per_layer"]
        }
    else:
        metrics = {
            m["name"]: {
                "value": record["end_to_end"][m["name"]],
                "unit": m["unit"],
            }
            for m in declared["end_to_end"]
        }
    failed = record["ops"]["mismatched"]
    return {
        "correct": all(record["gates"].values()) and failed == 0,
        "attempted": record["sim_ops"],
        "failed": failed,
        "metrics": metrics,
    }


def print_end_to_end(entries: dict[str, dict]) -> None:
    for name, metric in END_TO_END.items():
        entry = entries[name]
        line = f"  {name:<22} {entry['value']:>16.6f} {metric.unit:<10} {metric.kind}"
        if "q1" in entry:
            line += (
                f"  [q1 {entry['q1']:.6f}, q3 {entry['q3']:.6f}, "
                f"n={entry['n']}]"
            )
        if "latency_samples" in entry:
            line += f"  [{entry['latency_samples']} latency samples]"
        print(line)


def print_per_layer(per_layer: dict, traced_wall: float) -> None:
    for name, unit in PER_LAYER.items():
        if name not in per_layer:
            continue
        value = per_layer[name]
        line = f"  {name:<42} {value:>16.6f} {unit}"
        if name.endswith(".self_s"):
            line += f"  ({value / traced_wall:6.1%} of traced wall)"
        print(line)


def print_record(record: dict) -> None:
    print(
        f"{record['workload']} seed={record['seed']} "
        f"passes={record['passes']} sim_ops={record['sim_ops']} "
        f"untraced_wall={record['untraced_wall_s']:.3f}s"
    )
    entries = {
        name: {"value": value} for name, value in record["end_to_end"].items()
    }
    entries["sim_read_p99_ms"]["latency_samples"] = record["latency_samples"]
    print_end_to_end(entries)
    if record["trace"]:
        print_per_layer(record["per_layer"], record["traced_wall_s"])
        ranked = sorted(
            record["layer_self_s"].items(), key=lambda item: -item[1]
        )
        print("  layers by self time: " + ", ".join(
            f"{layer} {self_s / record['traced_wall_s']:.1%}"
            for layer, self_s in ranked
        ))
    print_gates(record["gates"])


def print_gates(gates: dict[str, bool]) -> bool:
    for gate, held in gates.items():
        print(f"  gate {gate}: {'ok' if held else 'FAILED'}")
    return all(gates.values())


def run_one(args) -> int:
    record = run_workload(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        scale_mult=args.scale_mult,
        smoke=args.smoke,
        trace_dir=args.out,
    )
    record["argv"] = sys.argv
    record.update(env.describe())
    print_record(record)
    if args.record is not None:
        args.record.parent.mkdir(parents=True, exist_ok=True)
        args.record.write_text(json.dumps(record, indent=1))
    line = driver_line(record)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


# ----------------------------------------------------------------------
# The whole set.
# ----------------------------------------------------------------------
def spawn_run(args, workload: str, trace: int, tag: str) -> dict:
    """One run in a fresh single-process subprocess; its full record."""
    path = args.out / f"run_{workload}_{tag}.json"
    command = [
        sys.executable, "-m", "benchmarks.ladder",
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", "0",
        "--trace", str(trace),
        "--scale-mult", str(args.scale_mult),
        "--out", str(args.out),
        "--record", str(path),
    ]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(
        command, cwd=env.REPO_ROOT, capture_output=True, text=True
    )
    if done.returncode not in (0, 1) or not path.exists():
        raise RuntimeError(
            f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}"
        )
    print(f"  ran {workload} ({tag})", file=sys.stderr)
    return json.loads(path.read_text())


def spread_entry(samples: list[float]) -> dict:
    """Median, quartiles and sample count of one host metric."""
    entry = {"value": statistics.median(samples), "n": len(samples),
             "samples": samples}
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        entry["q1"], entry["q3"] = q1, q3
    return entry


def aggregate(runs: list[dict], traced: dict) -> dict:
    """One workload's entry in the set's JSON."""
    first = runs[0]
    everyone = runs + [traced]
    # Only the traced run checks every read; its verdict is the set's.
    ops = {**first["ops"], "checked": traced["ops"]["checked"],
           "mismatched": traced["ops"]["mismatched"]}
    failed = failed_share(ops)
    end_to_end: dict[str, dict] = {}
    simulated_equal = True
    for name, metric in END_TO_END.items():
        samples = [run["end_to_end"][name] for run in runs]
        if metric.kind == "host":
            entry = spread_entry(samples)
        else:
            entry = {"value": samples[0]}
            simulated_equal &= all(value == samples[0] for value in samples)
        entry["unit"], entry["kind"] = metric.unit, metric.kind
        entry["better"] = metric.better
        end_to_end[name] = entry
    end_to_end["failed_share"]["value"] = failed
    end_to_end["sim_served_share"]["value"] = 1.0 - failed
    end_to_end["sim_read_p99_ms"]["latency_samples"] = first["latency_samples"]
    gates = {
        "runs_agree": all(
            same_outputs(first["cells"], run["cells"]) for run in everyone
        ),
        "simulated_metrics_repeat": simulated_equal,
    }
    for gate in traced["gates"]:
        gates[gate] = all(run["gates"].get(gate, True) for run in everyone)
    return {
        "why": first["why"],
        "loop": first["loop"],
        "working_set": first["working_set"],
        "sim_ops": first["sim_ops"],
        "cells": {
            name: {key: cell[key] for key in
                   ("kind", "spec", "config", "sim_digest", "reads", "writes")}
            for name, cell in first["cells"].items()
        },
        "end_to_end": end_to_end,
        "per_layer": {
            name: {"value": traced["per_layer"][name], "unit": unit}
            for name, unit in PER_LAYER.items()
            if name in traced["per_layer"]
        },
        "layer_self_s": traced["layer_self_s"],
        "traced_wall_s": traced["traced_wall_s"],
        "ops": ops,
        "gates": gates,
    }


def run_set(args) -> int:
    args.out.mkdir(parents=True, exist_ok=True)
    repeats = 1 if args.smoke else args.repeats
    payload = {
        "schema": "ladder/1",
        "argv": sys.argv,
        "seed": args.seed,
        "repeats": repeats,
        "smoke": args.smoke,
        "scale_mult": args.scale_mult,
        **env.describe(),
        "host_calib_ops_per_s": {"before": env.host_calib_ops_per_s()},
    }
    runs: dict[str, list[dict]] = {name: [] for name in WORKLOADS}
    for repeat in range(repeats):
        for name in WORKLOADS:
            runs[name].append(spawn_run(args, name, 0, f"r{repeat}"))
    traced = {name: spawn_run(args, name, 1, "traced") for name in WORKLOADS}
    payload["host_calib_ops_per_s"]["after"] = env.host_calib_ops_per_s()
    payload["workloads"] = {
        name: aggregate(runs[name], traced[name]) for name in WORKLOADS
    }

    calib = payload["host_calib_ops_per_s"]
    print(
        f"ladder seed={args.seed} repeats={repeats} commit={payload['commit']}"
        f" host_calib_ops_per_s before={calib['before']:.0f}"
        f" after={calib['after']:.0f}"
    )
    ok = True
    for name, entry in payload["workloads"].items():
        workload = WORKLOADS[name]
        print(f"\n{name} ({workload.loop} loop; {workload.working_set})")
        print(f"  why: {workload.why}")
        print_end_to_end(entry["end_to_end"])
        print_per_layer(
            {k: v["value"] for k, v in entry["per_layer"].items()},
            entry["traced_wall_s"],
        )
        ok = print_gates(entry["gates"]) and ok
    payload["gates_ok"] = ok
    path = args.out / f"ladder_seed{args.seed}.json"
    path.write_text(json.dumps(payload, indent=1))
    print(f"\nwrote {path}; gates {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


# ----------------------------------------------------------------------
# Comparing two sets.
# ----------------------------------------------------------------------
def _spread(entry: dict) -> float:
    if "q1" not in entry or not entry["value"]:
        return 0.0
    return (entry["q3"] - entry["q1"]) / abs(entry["value"])


def compare(a: dict, b: dict, bounds: dict[str, float]) -> tuple[list, int]:
    """Rows ``(workload, metric, a, b, verdict)`` and the breach count.

    Simulated metrics and digests must be equal.  A host metric breaches
    when B's median is worse than A's by more than the metric's bound;
    where either side's quartile spread exceeds the bound the row is
    ``unresolved`` instead, because the runs cannot tell.
    """
    rows = []
    for name, wa in a["workloads"].items():
        wb = b["workloads"][name]
        for metric, spec in END_TO_END.items():
            ea, eb = wa["end_to_end"][metric], wb["end_to_end"][metric]
            va, vb = ea["value"], eb["value"]
            if spec.kind == "simulated":
                verdict = "equal" if va == vb else "DIFFERS"
            else:
                bound = bounds[metric]
                worse = (vb - va) if spec.better == "lower" else (va - vb)
                slack = SETUP_SLACK_S if metric == "setup_s" else 0.0
                if max(_spread(ea), _spread(eb)) > bound:
                    verdict = "unresolved"
                elif worse > slack and worse / abs(va) > bound:
                    verdict = "WORSE"
                else:
                    verdict = "within"
            rows.append((name, metric, va, vb, verdict))
        same = same_outputs(wa["cells"], wb["cells"])
        rows.append((name, "sim_digest", None, None,
                     "equal" if same else "DIFFERS"))
    breaches = sum(1 for row in rows if row[4] in ("DIFFERS", "WORSE"))
    return rows, breaches


def compare_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ladder compare")
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    a, b = (json.loads(path.read_text()) for path in (args.a, args.b))
    for key in ("seed", "smoke", "scale_mult"):
        if a[key] != b[key]:
            print(f"sets differ in {key}: {a[key]} vs {b[key]}")
            return 2
    bounds = {
        **UNDECLARED_BOUNDS,
        **{m["name"]: m["bound"] for m in benchmark_json()["end_to_end"]},
    }
    rows, breaches = compare(a, b, bounds)
    for key in ("commit", "cpu_model", "host_calib_ops_per_s"):
        print(f"{key}: A={a[key]} B={b[key]}")
    for workload, metric, va, vb, verdict in rows:
        values = "" if va is None else f"{va:>16.6f} {vb:>16.6f}"
        print(f"{workload:<18} {metric:<20} {values:<34} {verdict}")
    unresolved = sum(1 for row in rows if row[4] == "unresolved")
    print(f"{breaches} breached, {unresolved} unresolved, {len(rows)} rows")
    return 1 if breaches else 0


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        return compare_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.ladder", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="one run measures whole passes for at least "
                        "this long (always at least one pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=3,
                        help="untraced runs per workload in a set")
    parser.add_argument("--scale-mult", type=int, default=1,
                        help="multiply every scale (fig10_scan stays <= 256)")
    parser.add_argument("--smoke", action="store_true",
                        help="scale 2048, 2000 virtual seconds, one repeat")
    parser.add_argument("--out", type=Path, default=OUT_DIR,
                        help="directory for result JSON and span traces")
    parser.add_argument("--record", type=Path,
                        help="with --workload: also write the full record")
    args = parser.parse_args(argv)
    if args.workload is not None:
        return run_one(args)
    return run_set(args)
